package main

import (
	"fmt"
	"time"

	"tpusim/internal/cluster"
	"tpusim/internal/latency"
	"tpusim/internal/serve"
	"tpusim/internal/workload"
)

// The pod workload is the fleet-scale capacity-planning shape of
// BenchmarkClusterSim, timed with its build: 250 hosts x 4 devices, 10
// apps x 100 replicas at a constant 4000 req/s each, bounded-hash routing,
// autoscaler off, 10 virtual seconds. The seed is the cluster seed.
//
// Checks: for a seed in podRecorded, the des event count and the SHA-256
// of Snapshot().Render() equal the recorded values; for any seed, no app
// saw a client error and every app completed requests.
const (
	podHosts          = 250
	podDevicesPerHost = 4
	podApps           = 10
	podReplicas       = 100
	podRatePerApp     = 4000
	podVirtualSeconds = 10.0
)

// podOutcome is one seed's recorded simulated outcome.
type podOutcome struct {
	events uint64
	sha256 string
}

// podRecorded holds the outcomes recorded for the seeds the benchmark was
// validated on.
var podRecorded = map[int64]podOutcome{
	1:  {1200063, "7202043edbd73552a3e5cf0442a048daf4f764833f623e174522b95f24112864"},
	2:  {1200281, "5870b3a04628394e2bb137e80afd559a9bcfe341595762f77b0cf2d59dc06988"},
	3:  {1200433, "5d67ba2468dfa917addb1a2e8179b519000053ccbfacf279753d820c01882dd7"},
	4:  {1201977, "c08384dc7fc895f41b41afa07fef64b59a2c9bc70b413a466b1791716caa434f"},
	5:  {1202162, "f010a922f2d2d8037030a37b21621caafb5a54402c8dd133bc9db22b40da3368"},
	6:  {1198821, "f134561e15b2b29b26e1e0a75363fc89b30ad3c690a218a9e995810f1b3fdc6b"},
	7:  {1197936, "473125f46b75653cc1f3b0035295e74986cfb6333dc0b5c6d5ec03bff5659f8c"},
	8:  {1199995, "cfd42ea1c78586deb26be3b126ea767c95eaec84ad19480824b084e60a858693"},
	9:  {1201915, "7f8be2b1bdfbb0fd2637299e0ce5ebdd47a63cb8b6c06db77eb09be350b86200"},
	10: {1197792, "4d91efb0bedca561750e45956846ec06e51f788463bd735238ce7998ffe428e7"},
}

func init() {
	register(&spec{name: "pod", run: runPod, profileChecks: podChecks})
}

// podConfig is the pod at one seed.
func podConfig(seed int64) cluster.Config {
	apps := make([]cluster.AppConfig, podApps)
	for i := range apps {
		apps[i] = cluster.AppConfig{
			Name:            fmt.Sprintf("APP%d", i),
			Service:         latency.ServiceFunc(func(n int) (float64, error) { return 0.5e-3 + 0.1e-3*float64(n), nil }),
			Policy:          serve.Policy{MaxBatch: 64, SLASeconds: 7e-3},
			WeightBytes:     256 << 20,
			Curve:           workload.Constant(podRatePerApp),
			InitialReplicas: podReplicas,
		}
	}
	return cluster.Config{
		Hosts: podHosts, DevicesPerHost: podDevicesPerHost,
		Router:    cluster.BoundedHash,
		Apps:      apps,
		Autoscale: cluster.AutoscaleConfig{Disabled: true},
		Seed:      seed,
	}
}

func runPod(j *job) error {
	cfg := podConfig(j.seed)
	var c *cluster.Cluster
	var err error
	j.span("cluster.new_s", func() { c, err = cluster.New(cfg) })
	if err != nil {
		return err
	}
	j.setupDone()
	runStart := time.Now()
	j.span("cluster.run_s", func() { c.Run(podVirtualSeconds) })
	var snap *cluster.Snapshot
	var text string
	j.span("cluster.snapshot_s", func() {
		snap = c.Snapshot()
		text = snap.Render()
	})
	j.workDone()

	events := c.EventsProcessed()
	j.count("des.events", float64(events))
	j.events(float64(events), runStart, j.rec.Layers["cluster.run_s"])
	j.rec.Digest = sha(text)
	j.rec.Attempted = 1
	if want, ok := podRecorded[j.seed]; ok {
		if events != want.events {
			j.problem("pod: seed %d processed %d des events, recorded %d", j.seed, events, want.events)
		}
		if j.rec.Digest != want.sha256 {
			j.problem("pod: seed %d snapshot sha256 %s, recorded %s", j.seed, j.rec.Digest, want.sha256)
		}
	}
	if events == 0 {
		j.problem("pod: no des events processed")
	}
	for _, a := range snap.Apps {
		if a.Errors != 0 || a.Completed == 0 {
			j.problem("pod: app %s completed %d with %d client errors", a.Name, a.Completed, a.Errors)
		}
	}
	if !j.rec.OK {
		j.rec.Failed = 1
	}
	return nil
}

// podChecks: the pod's set-up should be led by the cluster build.
func podChecks(r *result) []string {
	var newS, setup []float64
	for _, s := range r.Samples {
		if !s.Traced {
			newS = append(newS, s.Layers["cluster.new_s"])
			setup = append(setup, s.SetupS)
		}
	}
	n, st := median(newS), median(setup)
	verdict := "holds"
	if n <= st/2 {
		verdict = "DOES NOT HOLD"
	}
	return []string{fmt.Sprintf("pod setup_s led by cluster.New: %s (cluster.New %.3f s of setup_s %.3f s)", verdict, n, st)}
}
