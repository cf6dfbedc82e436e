// Fleet scenario runner: the scaffolding shared by the cluster,
// cluster-chaos and rollout campaigns. Each replays the paper's Table 1
// production mix — every app at its largest deadline-safe batch under the
// SLA, priced by the Table 4 model, weights sized by the compiler — on one
// fleet shape, as serial twins that differ only in what is armed on them
// before they run.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"tpusim/internal/cluster"
	"tpusim/internal/compiler"
	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/obs"
	"tpusim/internal/serve"
	"tpusim/internal/workload"
)

// defaultFleet fills the fleet fields every campaign config shares: an
// 8x4 fleet, bounded-load hashing, the paper's 7 ms deadline, seed 42.
func defaultFleet(hosts, devicesPerHost *int, router *string, slaSeconds *float64, seed *int64) {
	if *hosts == 0 {
		*hosts = 8
	}
	if *devicesPerHost == 0 {
		*devicesPerHost = 4
	}
	if *router == "" {
		*router = "bounded-hash"
	}
	if *slaSeconds == 0 {
		*slaSeconds = 7e-3
	}
	if *seed == 0 {
		*seed = 42
	}
}

// scenario is one fleet campaign.
type scenario struct {
	hosts, devicesPerHost, zones int
	router                       string
	slaSeconds                   float64
	seed                         int64
	// unit is the campaign's time unit: the autoscaler decides every
	// unit/8 (about ten batch epochs at the apps' millisecond service
	// times) and the fleet metrics close a window every unit/20, enough
	// windows for the knee detector without starving each of arrivals.
	unit    float64
	horizon float64
	// replicas is every app's initial and minimum replica count.
	replicas int
	// admit, when set, drops an app whose resolved operating point it
	// rejects, as if the app had none.
	admit func(serve.Plan) bool
	// load gives an app's offered-load curve and its peak rate from the
	// app's rated capacity (replicas x one replica's saturation rate).
	load func(rated float64) (workload.Curve, float64, error)
	// trace records the run's virtual-time spans (one batch in four, with
	// its requests; kills and autoscaler decisions always).
	trace bool
	twins []twin
}

// twin is one run of the scenario's fleet.
type twin struct {
	retry cluster.RetryConfig
	// arm schedules the twin's kills, chaos or rollout; nil runs it clean.
	arm func(*cluster.Cluster) error
	// checkpoints are virtual times, before the horizon, at which a
	// snapshot is kept.
	checkpoints []float64
}

// twinResult is what is kept of a finished twin. The fleet itself is not
// kept, so it is garbage before the next twin runs.
type twinResult struct {
	final       *cluster.Snapshot
	checkpoints []*cluster.Snapshot
	events      []cluster.Event
	report      *cluster.SaturationReport
	fleet       *cluster.FleetMetrics
	spans       []obs.SpanData
}

// scenarioResult is the served app set and each twin's outputs, in twin
// order.
type scenarioResult struct {
	apps    []ClusterAppInfo
	skipped []string
	twins   []twinResult
}

// run builds and arms every twin, so bad input fails before any virtual
// time is spent, then runs them one after another to the horizon.
func (s scenario) run() (*scenarioResult, error) {
	policy, err := cluster.ParsePolicy(s.router)
	if err != nil {
		return nil, err
	}
	res := &scenarioResult{twins: make([]twinResult, len(s.twins))}
	var apps []cluster.AppConfig
	for _, b := range models.All() {
		name := b.Model.Name
		svc := latency.ServiceFunc(func(n int) (float64, error) { return TPUBatchSeconds(name, n) })
		pol := serve.Policy{MaxBatch: b.Model.Batch, SLASeconds: s.slaSeconds}
		plan, err := pol.Resolve(svc)
		if err != nil || (s.admit != nil && !s.admit(plan)) {
			// No usable operating point at this SLA (CNN1 under tight
			// deadlines): the fleet serves the apps that have one.
			res.skipped = append(res.skipped, name)
			continue
		}
		one := float64(plan.SafeBatch) / plan.SafeServiceSeconds
		curve, peak, err := s.load(float64(s.replicas) * one)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s ramp: %w", name, err)
		}
		weights := compiler.WeightFootprint(b.Model, false)
		res.apps = append(res.apps, ClusterAppInfo{
			Name:        name,
			DeployShare: b.DeployShare,
			WeightBytes: weights,
			SafeBatch:   plan.SafeBatch,
			ReplicaRate: one,
			PeakRate:    peak,
		})
		apps = append(apps, cluster.AppConfig{
			Name:            name,
			Service:         svc,
			Policy:          pol,
			WeightBytes:     weights,
			Curve:           curve,
			InitialReplicas: s.replicas,
			MinReplicas:     s.replicas,
		})
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("experiments: no app has an operating point at SLA %.1f ms", s.slaSeconds*1e3)
	}

	fleets := make([]*cluster.Cluster, len(s.twins))
	tels := make([]*cluster.Telemetry, len(s.twins))
	for i, tw := range s.twins {
		// Telemetry only reads simulator state, so snapshots and event
		// logs are byte-identical to an uninstrumented run.
		tel := &cluster.Telemetry{Metrics: cluster.NewFleetMetrics(s.unit / 20)}
		if s.trace {
			// Every 4th batch keeps the span volume inside the ring, so
			// nothing from the run is evicted.
			tel.Tracer = obs.NewTracer(1 << 18)
			tel.SampleEvery = 4
		}
		c, err := cluster.New(cluster.Config{
			Hosts:          s.hosts,
			DevicesPerHost: s.devicesPerHost,
			Zones:          s.zones,
			Router:         policy,
			Apps:           apps,
			Autoscale:      cluster.AutoscaleConfig{Interval: s.unit / 8},
			Retry:          tw.retry,
			Seed:           s.seed,
			Telemetry:      tel,
		})
		if err != nil {
			return nil, err
		}
		if tw.arm != nil {
			if err := tw.arm(c); err != nil {
				return nil, err
			}
		}
		fleets[i], tels[i] = c, tel
	}

	for i, tw := range s.twins {
		c, tel := fleets[i], tels[i]
		fleets[i], tels[i] = nil, nil
		out := &res.twins[i]
		for _, t := range tw.checkpoints {
			c.Run(t)
			out.checkpoints = append(out.checkpoints, c.Snapshot())
		}
		c.Run(s.horizon)
		out.final = c.Snapshot()
		out.events = c.Events()
		if out.report, err = c.SaturationReport(); err != nil {
			return nil, err
		}
		out.fleet = tel.Metrics
		if s.trace {
			out.spans = tel.Tracer.Spans()
		}
	}
	return res, nil
}

// ramp is the load curve of a ramp from startFrac to peakFrac of the
// rated capacity over seconds, holding the peak after it.
func ramp(startFrac, peakFrac, seconds float64) func(float64) (workload.Curve, float64, error) {
	return func(rated float64) (workload.Curve, float64, error) {
		c, err := workload.NewPiecewiseLinear(
			workload.Point{T: 0, Rate: startFrac * rated},
			workload.Point{T: seconds, Rate: peakFrac * rated},
		)
		return c, peakFrac * rated, err
	}
}

// renderApps writes the served apps' table; loadCol names the offered-load
// column and skipWhy says why a skipped app has no place in the fleet.
func renderApps(b *strings.Builder, apps []ClusterAppInfo, skipped []string, loadCol, skipWhy string, slaSeconds float64) {
	fmt.Fprintf(b, "%-6s %7s %10s %6s %12s %12s\n",
		"app", "share", "weights", "batch", "replica-cap", loadCol)
	for _, a := range apps {
		fmt.Fprintf(b, "%-6s %6.1f%% %8.1fMiB %6d %10.0f/s %10.0f/s\n",
			a.Name, a.DeployShare, float64(a.WeightBytes)/(1<<20), a.SafeBatch, a.ReplicaRate, a.PeakRate)
	}
	if len(skipped) > 0 {
		fmt.Fprintf(b, "skipped (%s at %.1f ms SLA): %s\n",
			skipWhy, slaSeconds*1e3, strings.Join(skipped, ", "))
	}
}

// eventDigest renders an ordered kind-count summary of an event log; the
// log itself is pinned by tests.
func eventDigest(events []cluster.Event) string {
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%d %s", counts[k], k)
	}
	return fmt.Sprintf("%s (%d total)", strings.Join(parts, ", "), len(events))
}

// renderAcceptance writes a campaign's verdict: PASS with the criteria it
// met, or FAIL with one line per violation.
func renderAcceptance(b *strings.Builder, violations []string, criteria string) {
	if len(violations) == 0 {
		fmt.Fprintf(b, "\nacceptance: PASS (%s)\n", criteria)
		return
	}
	b.WriteString("\nacceptance: FAIL\n")
	for _, v := range violations {
		fmt.Fprintf(b, "  - %s\n", v)
	}
}
