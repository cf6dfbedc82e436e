package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"tpusim/internal/tensor"
)

// The benchmark's own tests: seed plumbing, output checks and the profile
// reader. Run from this directory with `go test .`; -short skips the
// workloads that take seconds each.

const root = ".."

// runOK runs a workload once in-process and fails the test unless every
// output check passed.
func runOK(t *testing.T, name string, seed int64) *record {
	t.Helper()
	rec, err := runOnce(workloads[name], seed, root, false, false, "")
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !rec.OK {
		t.Fatalf("%s seed %d failed its checks: %v", name, seed, rec.Problems)
	}
	if rec.Digest == "" || rec.SetupEndNS == 0 || rec.EndNS < rec.SetupEndNS {
		t.Fatalf("%s seed %d: bad record %+v", name, seed, rec)
	}
	return rec
}

func TestPodSeedPlumbing(t *testing.T) {
	if testing.Short() {
		t.Skip("pod runs take seconds")
	}
	a, b := runOK(t, "pod", 1), runOK(t, "pod", 1)
	if a.Digest != b.Digest || a.Layers["des.events"] != b.Layers["des.events"] {
		t.Errorf("same seed, different outcomes: %s/%v vs %s/%v", a.Digest, a.Layers["des.events"], b.Digest, b.Layers["des.events"])
	}
	if _, ok := podRecorded[1]; !ok {
		t.Error("seed 1 has no recorded pod outcome")
	}
	const heldOut = 1001
	if _, ok := podRecorded[heldOut]; ok {
		t.Fatalf("seed %d is recorded; pick a held-out seed", heldOut)
	}
	if c := runOK(t, "pod", heldOut); c.Digest == a.Digest {
		t.Errorf("seeds 1 and %d give the same pod digest", heldOut)
	}
}

func TestRolloutSeedPlumbing(t *testing.T) {
	if testing.Short() {
		t.Skip("rollout runs take seconds")
	}
	golden := runOK(t, "rollout", rolloutGoldenSeed) // checked against rollout_campaign.txt
	if other := runOK(t, "rollout", 1001); other.Digest == golden.Digest {
		t.Errorf("seeds %d and 1001 give the same rollout digest", rolloutGoldenSeed)
	}
}

func TestServeArrivalsFollowSeed(t *testing.T) {
	apps := make([]*serveApp, 6)
	for i := range apps {
		apps[i] = &serveApp{rows: make([]*tensor.F32, 32)}
	}
	_, a := openSchedule(1, apps)
	_, b := openSchedule(1, apps)
	_, c := openSchedule(1001, apps)
	if a != b {
		t.Error("same seed, different open-loop arrivals")
	}
	if a == c {
		t.Error("seeds 1 and 1001 give the same open-loop arrivals")
	}
}

func TestServeHeldOutSeedPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("serve runs take seconds")
	}
	// Sheds and expiries depend on host speed, so only the request count
	// and the output checks (in runOK) are asserted.
	rec := runOK(t, "serve", 1001)
	if rec.Attempted != serveClosedRequests+serveOpenRequests || rec.Events <= 0 {
		t.Errorf("attempted %d requests and completed %v in the closed loop", rec.Attempted, rec.Events)
	}
}

func TestPaperMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper takes seconds")
	}
	rec := runOK(t, "paper", 1)
	if rec.Events <= 0 {
		t.Error("load sweep simulated no requests")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tpusim/internal/des.(*Loop).Run":                 "tpusim/internal/des",
		"container/heap.down":                             "container/heap",
		"runtime.mallocgc":                                "runtime",
		"slices.partitionOrdered[go.shape.float64]":       "slices",
		"tpusim/internal/cluster.(*Router).rebuild.func2": "tpusim/internal/cluster",
		"internal/runtime/syscall.Syscall6":               "internal/runtime/syscall",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestOwnerChargesLibraryCodeToCaller(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"slices.partitionOrdered[go.shape.float64]", "slices.Sort", "tpusim/internal/stats.Percentile", "tpusim/internal/cluster.(*Cluster).Snapshot"}, "tpusim/internal/stats"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "tpusim/internal/des.(*Loop).At"}, goGC},
		{[]string{"runtime.futex", "runtime.notesleep"}, "runtime"},
	} {
		if got := owner(c.stack); got != c.want {
			t.Errorf("owner(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestReadProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += spin(10000)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := summarizeProfiles([]sample{{record: record{Profile: path}}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples == 0 || len(sum.Top) == 0 {
		t.Fatalf("no samples decoded (spin result %d)", x)
	}
	if sum.Top[0].Name != "tpusim/perfbench.spin" {
		t.Errorf("top function %q, want tpusim/perfbench.spin (a test binary names package main by its import path)", sum.Top[0].Name)
	}
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

// A child's host speed is the mean kernel time over the runs inside it; a
// child too short to hold refMinChunks runs takes its neighbours'.
func TestHostSamplerWindow(t *testing.T) {
	h := &hostSampler{minChunks: refMinChunks, scale: 1}
	period := int64(refPeriod)
	for i := int64(0); i < 20; i++ {
		h.start = append(h.start, i*period)
		h.secs = append(h.secs, float64(i))
	}
	if got := h.refS(5*period, 9*period); got != 7 { // runs 5..9
		t.Errorf("refS over runs 5..9 = %g, want 7", got)
	}
	if got := h.refS(10*period+1, 10*period+2); got != 10.5 { // none inside; widened to 10..11, then 9..12
		t.Errorf("refS of a short child = %g, want 10.5", got)
	}
	if got := atRef(2, 2*refNominalS); got != 1 {
		t.Errorf("atRef at half speed = %g, want 1", got)
	}
	if got := rateAtRef(100, 2*refNominalS); got != 200 {
		t.Errorf("rateAtRef at half speed = %g, want 200", got)
	}
}
