// Command perfbench is tpusim's end-to-end benchmark. One invocation runs
// one named workload (paper, pod, rollout or serve) for a time budget and
// prints every end-to-end metric by name with its unit, then one JSON
// result line:
//
//	bash perfbench/run.sh --workload pod --seed 1 --seconds 25 --trace 0
//
// The program memoizes work for the life of a process (the SLA study, the
// load sweep, device pools, compiler slabs), and a user running a CLI pays
// those costs on every run. So every repetition runs in a fresh child
// process, the same binary started with -child, and the parent reports
// medians over the repetitions. With --trace 1 the parent alternates
// untraced and traced children: traced children record a CPU profile and
// allocation counters, and the parent reports the per-layer metrics, the
// profile's package shares and top functions, and the tracing overhead
// (traced minus untraced wall_s). Time-based end-to-end metrics are stated
// at a reference host speed (see reference.go); the raw host times are
// reported beside them.
//
// Every child checks its workload's output against the repository's
// goldens or recorded digests (see the workload files); one failed check
// marks the whole run incorrect and the command exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minReps is the fewest untraced children a run measures, so every
	// reported median has at least three samples behind it.
	minReps = 3
	// minPairs is the fewest untraced+traced pairs a traced run measures.
	minPairs = 2
	// hardStop bounds a run's wall time well inside the 180 s a run may
	// take: no child starts once the next one could cross it.
	hardStop = 150 * time.Second
	// setupSamples is how many set-up times an untraced run takes its
	// setup_s median over: whole repetitions first, then set-up-only
	// children, for at most setupBudget.
	setupSamples = 21
	setupBudget  = 2 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1: also run traced children and report per-layer metrics")
	root := flag.String("root", ".", "repository root (goldens are read and outputs written under it)")
	child := flag.Bool("child", false, "run one repetition in this process and print its record")
	traced := flag.Bool("traced", false, "with -child: record a CPU profile and allocation counters")
	profile := flag.String("profile", "", "with -child -traced: CPU profile output path")
	setupOnly := flag.Bool("setup-only", false, "with -child: exit as soon as set-up ends")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *child {
		os.Exit(runChild(w, *seed, *root, *traced, *setupOnly, *profile))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(runParent(w, *seed, *seconds, *trace == 1, *root))
}

// sample is one child's record plus what the parent measured around it.
type sample struct {
	record
	Traced bool    `json:"traced"`
	WallS  float64 `json:"wall_s"`  // child start to end of work
	SetupS float64 `json:"setup_s"` // child start to end of set-up
	RSSMB  float64 `json:"peak_rss_mb"`
	// StartNS is when the parent started the child (Unix nanoseconds);
	// RefS is the reference kernel's mean time while the child ran: the
	// host speed it ran at.
	// EventRefS is the same over the workload's event phase.
	StartNS   int64   `json:"start_ns"`
	RefS      float64 `json:"ref_s"`
	EventRefS float64 `json:"event_ref_s"`
}

// spawn runs one child repetition and collects its record.
func spawn(w *spec, seed int64, root string, traced, setupOnly bool, profile string) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-root", root}
	if traced {
		args = append(args, "-traced", "-profile", profile)
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return sample{}, fmt.Errorf("child %s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	s := sample{Traced: traced, StartNS: start}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.record); err != nil {
		return sample{}, fmt.Errorf("child %s: bad record: %w", w.name, err)
	}
	s.RSSMB = s.HWMMB
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && s.RSSMB == 0 {
		s.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	s.WallS = float64(s.EndNS-start) / 1e9
	s.SetupS = float64(s.SetupEndNS-start) / 1e9
	return s, nil
}

// runParent measures one workload for the budget and prints the report.
func runParent(w *spec, seed int64, seconds int, trace bool, root string) int {
	m := describeMachine(root)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%v\n", w.name, seed, seconds, trace)
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		m.CPU, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit, m.SourceSHA256)

	profDir := filepath.Join(root, ".bench_build", "profiles")
	if trace {
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	budget := time.Duration(seconds) * time.Second
	begin := time.Now()
	host := startHostSampler(!w.fillsCPUs)
	defer host.close()
	host.burst()
	measure := func(traced, setupOnly bool, profile string) (sample, error) {
		s, err := spawn(w, seed, root, traced, setupOnly, profile)
		if err == nil && !setupOnly {
			host.burst()
		}
		return s, err
	}
	var plain, traced []sample
	var longest time.Duration
	for round := 0; ; round++ {
		enough := len(plain) >= minReps
		if trace {
			enough = len(traced) >= minPairs
		}
		elapsed := time.Since(begin)
		if (enough && elapsed >= budget) || (round > 0 && elapsed+longest > hardStop) {
			break
		}
		t0 := time.Now()
		s, err := measure(false, false, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		plain = append(plain, s)
		if trace {
			prof := filepath.Join(profDir, fmt.Sprintf("%s-seed%d-%d.pprof", w.name, seed, len(traced)))
			s, err := measure(true, false, prof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			traced = append(traced, s)
		}
		longest = max(longest, time.Since(t0))
	}

	// Set-up-only children are too short for bursts of their own: they
	// share the bursts around the whole batch.
	var quick []sample
	for t0 := time.Now(); !trace && len(plain)+len(quick) < setupSamples && time.Since(t0) < setupBudget; {
		s, err := measure(false, true, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		quick = append(quick, s)
	}
	if len(quick) > 0 {
		host.burst()
	}
	host.close()
	var setups setupTimes
	for _, ss := range [][]sample{plain, traced, quick} {
		for i := range ss {
			host.assign(&ss[i])
			if !ss[i].Traced {
				setups.add(ss[i].SetupS, ss[i].RefS)
			}
		}
	}

	res, err := summarize(w, plain, traced, setups)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Machine, res.Seed, res.Workload = m, seed, w.name
	printReport(res, trace)
	if err := writeResult(root, res, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	metrics := res.EndToEnd
	if trace {
		metrics = res.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metricMap(metrics)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one named value in the JSON result.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricList is a list of metrics that marshals as an object keyed by
// name, as in the JSON result line.
type metricList []metric

func (ms metricList) MarshalJSON() ([]byte, error) { return json.Marshal(metricMap(ms)) }

func metricMap(ms []metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// result is everything one run measured; the whole value is written to
// .bench_build/results/ and the metrics are printed.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Machine   machine  `json:"machine"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// EndToEnd are the metrics the JSON result carries on every workload;
	// AllEndToEnd adds the end-to-end figures that are zero, absent or too
	// short-lived to bound on some workloads (events_per_s, fail_frac;
	// sat_rps, p50_ms and p99_ms on serve).
	// Host holds the raw host times behind the reference-speed ones.
	EndToEnd    metricList `json:"end_to_end"`
	AllEndToEnd metricList `json:"all_end_to_end"`
	Host        metricList `json:"host"`
	PerLayer    metricList `json:"per_layer,omitempty"`
	// Prof is the traced children's CPU profile summary.
	Prof    *profileSummary `json:"profile,omitempty"`
	Checks  []string        `json:"profile_checks,omitempty"`
	Samples []sample        `json:"samples"`
}

// setupTimes are the set-up times setup_s is the median of, raw and at
// the reference host speed.
type setupTimes struct{ host, atRef []float64 }

func (st *setupTimes) add(hostS, refS float64) {
	st.host = append(st.host, hostS)
	st.atRef = append(st.atRef, atRef(hostS, refS))
}

// summarize turns the children's samples into the run's metrics.
func summarize(w *spec, plain, traced []sample, setups setupTimes) (*result, error) {
	r := &result{Correct: true}
	all := append(append([]sample(nil), plain...), traced...)
	r.Samples = all
	for i, s := range all {
		r.Attempted += s.Attempted
		r.Failed += s.Failed
		problems := s.Problems
		// Same seed, same simulated bytes: every child must agree.
		if s.Digest != all[0].Digest {
			problems = append(problems, fmt.Sprintf("child %d digest %s differs from child 0's %s (same seed)", i, s.Digest, all[0].Digest))
		}
		if !s.OK || len(problems) > 0 {
			r.Correct = false
		}
		for _, p := range problems {
			if !slices.Contains(r.Problems, p) {
				r.Problems = append(r.Problems, p)
			}
		}
	}
	if !r.Correct {
		r.Failed = r.Attempted
	}
	pick := func(ss []sample, f func(sample) float64) float64 {
		v := make([]float64, len(ss))
		for i, s := range ss {
			v[i] = f(s)
		}
		return median(v)
	}
	wall := pick(plain, func(s sample) float64 { return atRef(s.WallS, s.RefS) })
	eps := pick(plain, func(s sample) float64 { return rateAtRef(s.EventsPerS, s.EventRefS) })
	rss := pick(plain, func(s sample) float64 { return s.RSSMB })
	r.EndToEnd = []metric{
		{"wall_s", wall, "s"},
		{"setup_s", median(setups.atRef), "s"},
		{"peak_rss_mb", rss, "MiB"},
	}
	r.Host = []metric{
		{"host.wall_s", pick(plain, func(s sample) float64 { return s.WallS }), "s"},
		{"host.setup_s", median(setups.host), "s"},
		{"host.events_per_s", pick(plain, func(s sample) float64 { return s.EventsPerS }), "1/s"},
		{"host.ref_s", pick(plain, func(s sample) float64 { return s.RefS }), "s"},
	}
	failFrac := 0.0
	if r.Attempted > 0 {
		failFrac = float64(r.Failed) / float64(r.Attempted)
	}
	r.AllEndToEnd = append(append([]metric(nil), r.EndToEnd...),
		metric{"events_per_s", eps, "1/s"},
		metric{"fail_frac", failFrac, "ratio"})
	if w.name == "serve" {
		r.AllEndToEnd = append(r.AllEndToEnd,
			metric{"sat_rps", eps, "req/s"},
			metric{"p50_ms", pick(plain, layer("p50_ms")), "ms"},
			metric{"p99_ms", pick(plain, layer("p99_ms")), "ms"})
	}
	if len(traced) > 0 {
		prof, err := summarizeProfiles(traced)
		if err != nil {
			return nil, err
		}
		r.Prof = prof
		r.PerLayer = append(perLayer(plain, traced, pick, failFrac), metric{"events_per_s", eps, "1/s"})
		r.PerLayer = append(append(r.PerLayer, r.Host...), prof.metrics()...)
		if w.profileChecks != nil {
			r.Checks = w.profileChecks(r)
		}
	}
	return r, nil
}

// layer reads one per-layer value from a sample (0 when absent).
func layer(name string) func(sample) float64 {
	return func(s sample) float64 { return s.Layers[name] }
}

// perLayer lists the span- and count-backed per-layer metrics: medians
// over the traced children, except latency figures, which come from the
// untraced children the profiler does not slow.
func perLayer(plain, traced []sample, pick func([]sample, func(sample) float64) float64, failFrac float64) []metric {
	var out []metric
	for _, d := range layerDefs {
		src := traced
		if d.untraced {
			src = plain
		}
		out = append(out, metric{d.name, pick(src, layer(d.name)), d.unit})
	}
	wallT := pick(traced, func(s sample) float64 { return atRef(s.WallS, s.RefS) })
	wallU := pick(plain, func(s sample) float64 { return atRef(s.WallS, s.RefS) })
	return append(out,
		metric{"fail_frac", failFrac, "ratio"},
		metric{"trace.overhead_s", wallT - wallU, "s"})
}

// layerDefs is every span- and count-backed per-layer metric, in report
// order. A workload that does not call a layer reports 0 for it.
var layerDefs = []struct {
	name, unit string
	untraced   bool // taken from the untraced children
}{
	{"experiments.table3_s", "s", false},
	{"experiments.table4_s", "s", false},
	{"experiments.sla_study_s", "s", false},
	{"experiments.load_sweep_s", "s", false},
	{"experiments.rollout_s", "s", false},
	{"cluster.new_s", "s", false},
	{"cluster.run_s", "s", false},
	{"cluster.snapshot_s", "s", false},
	{"des.events", "count", false},
	{"compiler.warm_s", "s", false},
	{"runtime.run_ms", "ms", false},
	{"systolic.mul_ns_per_row", "ns", false},
	{"serve.batch_mean", "req/batch", false},
	{"serve.shed", "count", false},
	{"serve.expired", "count", false},
	{"p50_ms", "ms", true},
	{"p99_ms", "ms", true},
	{"serve.latency_samples", "count", true},
	{"loadgen.late_ms", "ms", true},
	{"go.alloc_objects", "count", false},
	{"go.alloc_mb", "MiB", false},
	{"go.gc_cycles", "count", false},
}

// printReport prints the human-readable lines that precede the JSON.
func printReport(r *result, trace bool) {
	plain := 0
	for _, s := range r.Samples {
		if !s.Traced {
			plain++
		}
	}
	fmt.Printf("children: %d untraced, %d traced (medians over the untraced for end-to-end metrics)\n",
		plain, len(r.Samples)-plain)
	for _, m := range r.AllEndToEnd {
		fmt.Printf("metric %-14s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if r.Workload != "serve" {
		for _, n := range []string{"sat_rps", "p50_ms", "p99_ms"} {
			fmt.Printf("metric %-14s %14s (serve only)\n", n, "n/a")
		}
	}
	fmt.Printf("(wall_s, setup_s, events_per_s and sat_rps at the reference host speed, where the reference kernel takes %g s; raw host figures:)\n", refNominalS)
	for _, m := range r.Host {
		fmt.Printf("host   %-17s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if trace {
		for _, m := range r.PerLayer {
			fmt.Printf("layer  %-26s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
		if r.Prof != nil {
			fmt.Printf("profile: %d samples from %d traced children\n", r.Prof.Samples, r.Prof.Profiles)
			for i, f := range r.Prof.Top {
				fmt.Printf("profile top%d: %5.1f%% %s\n", i+1, f.Share*100, f.Name)
			}
		}
		for _, c := range r.Checks {
			fmt.Println("profile check:", c)
		}
	}
	status := "PASS"
	if !r.Correct {
		status = "FAIL"
	}
	fmt.Printf("output check: %s (attempted %d, failed %d)\n", status, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Println("  problem:", p)
	}
}

// writeResult stores the full result under .bench_build/results/.
func writeResult(root string, r *result, trace bool) error {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if trace {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, t))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result file:", path)
	return nil
}

// median of a non-empty slice (0 for an empty one).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of v (q in [0,1]).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
