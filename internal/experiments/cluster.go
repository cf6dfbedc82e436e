// Cluster scale-out experiment: the six production apps of Table 1 served
// from a simulated multi-host TPU fleet behind a front-end router, driven
// through a load ramp with a host killed mid-ramp. This is the paper's
// deployment frame made executable — "the TPU was designed to be a
// coprocessor" for fleets that "need responses in milliseconds" — with
// every app's service times from the Table 4 analytic model, its Weight
// Memory footprint from the compiler's exact tile accounting, and the
// serving plan, health machine, failover and autoscaler composed by
// internal/cluster on the discrete-event core.
package experiments

import (
	"fmt"
	"strings"

	"tpusim/internal/cluster"
	"tpusim/internal/obs"
)

// ClusterConfig parameterizes the fleet experiment. Zero values mean the
// acceptance defaults: an 8x4 fleet, bounded-load hashing, a 25%->150%
// capacity ramp with host 0 hard-killed mid-ramp.
type ClusterConfig struct {
	// Hosts and DevicesPerHost size the fleet. 0 means 8 x 4.
	Hosts, DevicesPerHost int
	// Router names the routing policy ("wrr", "least-loaded",
	// "bounded-hash"). Empty means bounded-hash.
	Router string
	// RampSeconds is the virtual-time length of the load ramp; the run
	// holds peak load for another RampSeconds/2 after it. 0 means 0.4.
	RampSeconds float64
	// StartFrac and PeakFrac bound the ramp as fractions of each app's
	// initial rated capacity. 0 means 0.25 -> 1.5.
	StartFrac, PeakFrac float64
	// NoKill skips the mid-ramp host kill; otherwise KillHost dies at half
	// the ramp.
	NoKill   bool
	KillHost int
	// SLASeconds is the per-request deadline. 0 means the paper's 7 ms.
	SLASeconds float64
	// Seed pins arrivals and request keys. 0 means 42.
	Seed int64
	// Trace records the whole ramp — every dispatched batch with its member
	// requests, host kills, quarantines, autoscaler decisions — as
	// virtual-time spans, returned in Spans for Chrome-trace export.
	Trace bool
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	defaultFleet(&c.Hosts, &c.DevicesPerHost, &c.Router, &c.SLASeconds, &c.Seed)
	if c.RampSeconds == 0 {
		c.RampSeconds = 0.4
	}
	if c.StartFrac == 0 {
		c.StartFrac = 0.25
	}
	if c.PeakFrac == 0 {
		c.PeakFrac = 1.5
	}
	return c
}

// ClusterAppInfo is one app's static serving profile in the experiment.
type ClusterAppInfo struct {
	Name string
	// DeployShare is Table 1's datacenter load share, context for the mix.
	DeployShare float64
	// WeightBytes is the compiler's exact Weight Memory footprint.
	WeightBytes int64
	// SafeBatch and ReplicaRate are the resolved operating point: largest
	// deadline-safe batch and one un-shared replica's saturation rate.
	SafeBatch   int
	ReplicaRate float64
	// PeakRate is the app's offered load at the top of the ramp.
	PeakRate float64
}

// ClusterResult is the experiment outcome.
type ClusterResult struct {
	Cfg ClusterConfig
	// Apps are the served apps' profiles, Table 1 order.
	Apps []ClusterAppInfo
	// Skipped lists apps with no deadline-safe operating point at the SLA
	// (dropped from the mix rather than failing the experiment).
	Skipped []string
	// KilledAt is the virtual time of the host kill, 0 if NoKill.
	KilledAt float64
	// Snap is the final fleet snapshot; Events the full ordered log.
	Snap   *cluster.Snapshot
	Events []cluster.Event
	// Report is the saturation analysis: per-app knee rate, bottleneck
	// attribution and SLO burn over the ramp's windowed series.
	Report *cluster.SaturationReport
	// Fleet is the metrics registry behind Report, for Text/Prometheus
	// rendering or a live scrape during the run.
	Fleet *cluster.FleetMetrics
	// Spans is the recorded virtual-time trace when Cfg.Trace is set, ready
	// for obs.WriteChromeTrace.
	Spans []obs.SpanData
}

// RunCluster builds the six-app fleet and drives it through the ramp.
// Each app's load curve ramps from StartFrac to PeakFrac of its own
// initial rated capacity, so every app — not just the big MLPs — crosses
// its scale-up threshold and the autoscaler must act while a host dies.
// Fleet observability rides along, so the result carries the saturation
// report and its registry; the trace is opt-in because it holds every
// sampled batch span in memory.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	cfg = cfg.withDefaults()
	res := &ClusterResult{Cfg: cfg}
	var kill func(*cluster.Cluster) error
	if !cfg.NoKill {
		res.KilledAt = cfg.RampSeconds / 2
		kill = func(c *cluster.Cluster) error { return c.KillHostAt(res.KilledAt, cfg.KillHost) }
	}
	run, err := scenario{
		hosts: cfg.Hosts, devicesPerHost: cfg.DevicesPerHost, router: cfg.Router,
		slaSeconds: cfg.SLASeconds, seed: cfg.Seed,
		unit:     cfg.RampSeconds,
		horizon:  cfg.RampSeconds * 1.5, // ramp, then hold peak for half a ramp
		replicas: 1,
		load:     ramp(cfg.StartFrac, cfg.PeakFrac, cfg.RampSeconds),
		trace:    cfg.Trace,
		twins:    []twin{{arm: kill}},
	}.run()
	if err != nil {
		return nil, err
	}
	t := run.twins[0]
	res.Apps, res.Skipped = run.apps, run.skipped
	res.Snap, res.Events, res.Report, res.Fleet, res.Spans = t.final, t.events, t.report, t.fleet, t.spans
	return res, nil
}

// RenderCluster formats the experiment report.
func RenderCluster(r *ClusterResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster scale-out: %d hosts x %d devices, router=%s, seed=%d\n",
		r.Cfg.Hosts, r.Cfg.DevicesPerHost, r.Cfg.Router, r.Cfg.Seed)
	fmt.Fprintf(&b, "ramp %.0f%% -> %.0f%% of initial rated capacity over %.2fs virtual, hold %.2fs",
		r.Cfg.StartFrac*100, r.Cfg.PeakFrac*100, r.Cfg.RampSeconds, r.Cfg.RampSeconds/2)
	if r.KilledAt > 0 {
		fmt.Fprintf(&b, ", host%d killed at %.2fs", r.Cfg.KillHost, r.KilledAt)
	}
	b.WriteString("\n\n")
	renderApps(&b, r.Apps, r.Skipped, "peak-load", "no operating point", r.Cfg.SLASeconds)
	b.WriteString("\n")
	b.WriteString(r.Snap.Render())
	fmt.Fprintf(&b, "\nevent log: %s\n", eventDigest(r.Events))
	return b.String()
}
