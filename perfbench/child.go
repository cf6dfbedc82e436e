package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// record is what one child repetition reports to the parent.
type record struct {
	// SetupEndNS and EndNS are Unix nanoseconds: when set-up ended and
	// the measured phase began, and when the work ended (output checks
	// run after EndNS).
	SetupEndNS int64 `json:"setup_end_ns"`
	EndNS      int64 `json:"end_ns"`
	// Events counts the work items of the workload's event phase and
	// EventSeconds is that phase's host time: des events (pod, rollout),
	// serve.Simulate requests (paper), served requests (serve).
	// EventsPerS is their rate: Events/EventSeconds unless the workload
	// measures it more robustly. EventStartNS is when the phase began (Unix
	// nanoseconds).
	Events       float64 `json:"events"`
	EventSeconds float64 `json:"event_seconds"`
	EventsPerS   float64 `json:"events_per_s"`
	EventStartNS int64   `json:"event_start_ns"`
	// Attempted and Failed count the operations the child checked.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// OK is false when any output check failed; Problems says which.
	OK       bool     `json:"ok"`
	Problems []string `json:"problems,omitempty"`
	// Digest fingerprints the simulated output (and for serve the
	// generated arrivals and reference outputs); it must repeat exactly
	// for the same seed.
	Digest string `json:"digest"`
	// Layers are the per-layer values the child measured, keyed by metric
	// name in the metric's unit: span seconds and counts.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Profile is the CPU profile a traced child wrote.
	Profile string `json:"profile,omitempty"`
	// HWMMB is the child's peak resident memory (VmHWM) when it reported.
	HWMMB float64 `json:"vm_hwm_mb"`
}

// spec is one named workload: a benchmark input set and its checks.
type spec struct {
	name string
	// run executes the workload once under j, calling j.setupDone when
	// set-up ends and j.workDone when the work the user waits for ends,
	// then checks the output.
	run func(j *job) error
	// profileChecks states, from a traced run's result, whether the
	// profile shape the benchmark documents for this workload holds; nil
	// when it documents none.
	profileChecks func(r *result) []string
	// fillsCPUs marks a workload that keeps every CPU busy, so the
	// reference kernel runs in bursts between its children, not beside
	// them (see reference.go).
	fillsCPUs bool
}

var workloads = map[string]*spec{}

func register(w *spec) { workloads[w.name] = w }

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// job is one repetition's measurement context.
type job struct {
	seed   int64
	root   string
	traced bool
	// setupOnly makes the child exit as soon as set-up ends, so a run can
	// sample set-up time more often than it can afford whole repetitions.
	setupOnly bool
	rec       *record

	mem0 runtime.MemStats
}

// span times fn as the named benchmark-side span, in seconds.
func (j *job) span(name string, fn func()) {
	t := time.Now()
	fn()
	j.rec.Layers[name] += time.Since(t).Seconds()
}

// count sets a per-layer value.
func (j *job) count(name string, v float64) { j.rec.Layers[name] = v }

// events records the event phase's work, start and host time.
func (j *job) events(n float64, start time.Time, seconds float64) {
	j.rec.Events, j.rec.EventSeconds, j.rec.EventStartNS = n, seconds, start.UnixNano()
	if seconds > 0 {
		j.rec.EventsPerS = n / seconds
	}
}

// problem records a failed output check.
func (j *job) problem(format string, args ...any) {
	j.rec.OK = false
	j.rec.Problems = append(j.rec.Problems, fmt.Sprintf(format, args...))
}

// setupDone ends set-up. A set-up-only child reports here and exits.
func (j *job) setupDone() {
	j.rec.SetupEndNS = time.Now().UnixNano()
	if j.setupOnly {
		j.rec.EndNS = j.rec.SetupEndNS
		os.Exit(report(j.rec))
	}
}

// workDone ends the measured work: it stamps the end time and, in a
// traced child, stops the CPU profile and takes the allocation deltas.
func (j *job) workDone() {
	j.rec.EndNS = time.Now().UnixNano()
	if !j.traced {
		return
	}
	pprof.StopCPUProfile()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	j.count("go.alloc_objects", float64(m.Mallocs-j.mem0.Mallocs))
	j.count("go.alloc_mb", float64(m.TotalAlloc-j.mem0.TotalAlloc)/(1<<20))
	j.count("go.gc_cycles", float64(m.NumGC-j.mem0.NumGC))
}

// runOnce runs w once in this process and returns its record.
func runOnce(w *spec, seed int64, root string, traced, setupOnly bool, profile string) (*record, error) {
	rec := &record{OK: true, Layers: map[string]float64{}}
	j := &job{seed: seed, root: root, traced: traced, setupOnly: setupOnly, rec: rec}
	var prof *os.File
	if traced {
		f, err := os.Create(profile)
		if err != nil {
			return nil, err
		}
		defer f.Close() // the success path below checks Close
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		prof = f
		rec.Profile = profile
		runtime.ReadMemStats(&j.mem0)
	}
	err := w.run(j)
	if rec.EndNS == 0 { // the workload failed before its work ended
		j.workDone()
	}
	if rec.SetupEndNS == 0 {
		rec.SetupEndNS = rec.EndNS
	}
	if err != nil {
		return rec, err
	}
	if prof != nil {
		if err := prof.Close(); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// runChild is the -child entry point: one repetition, one JSON record on
// standard output. An error the workload returns is a failed check.
func runChild(w *spec, seed int64, root string, traced, setupOnly bool, profile string) int {
	rec, err := runOnce(w, seed, root, traced, setupOnly, profile)
	if err != nil {
		if rec == nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		rec.OK = false
		rec.Problems = append(rec.Problems, err.Error())
		rec.Attempted = max(rec.Attempted, 1)
		rec.Failed = rec.Attempted
	}
	return report(rec)
}

// report prints a child's record as its one line of standard output.
func report(rec *record) int {
	rec.HWMMB = vmHWMMB()
	data, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// vmHWMMB reads this process's peak resident memory from /proc (0 when it
// cannot). Unlike the rusage the parent gets, it leaves out the memory the
// process shared with the parent before it exec'd.
func vmHWMMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}
