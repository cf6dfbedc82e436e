package main

import (
	"crypto/sha256"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by tens of
// percent over seconds to minutes, and the same binary's wall time drifts
// with it. So for the whole run the parent times a small fixed reference
// kernel every refPeriod (about 5% of one CPU) while the children run, and
// the time-based
// end-to-end metrics are stated at the reference host speed: a host time t
// measured while the kernel took r seconds on average is reported as
// t × refNominalS / r (a rate as rate × r / refNominalS). A program change
// moves these numbers as it moves wall time; a slower or busier host slows
// the kernel too and cancels out. The raw host times are reported beside
// them as host.* metrics.
//
// A workload that keeps every CPU busy would make the kernel measure the
// scheduler instead; for it the parent runs the kernel refBurst times back
// to back before and after each child instead, and the child takes the mean
// of those two bursts. Back-to-back runs find their data in cache and run
// faster than lone ones, so a burst's times are scaled by
// refNominalS/refBurstNominalS onto the same scale.
//
// The kernel uses only the standard library and never tpusim code, so no
// change to the program under test can change it. It mixes the kinds of
// work the workloads do (float sorting, hashed map updates, straight-line
// integer compute) on preallocated buffers, so the parent's GC stays out of
// it.

const (
	// refNominalS is the kernel's time on a quiet 2-vCPU "Intel(R) Xeon(R)
	// Processor" host; it only sets the scale of the adjusted metrics.
	refNominalS = 0.0025
	refPeriod   = 50 * time.Millisecond
	// refMinChunks is the fewest kernel runs a child's host speed is
	// averaged over; a child shorter than that takes its neighbours'.
	refMinChunks = 3
	// refBurst is how many kernel runs one burst makes (about 0.2 s), and
	// refBurstNominalS one run's time inside a burst on the same quiet host.
	refBurst         = 100
	refBurstNominalS = 0.00175

	refFloats = 20_000
	refKeys   = 10_000
	refBytes  = 200 << 10
)

var ref struct {
	src, work []float64
	keys      []int
	m         map[int]int
	buf       []byte
	sink      int
}

func init() {
	r := rand.New(rand.NewSource(1))
	ref.src = make([]float64, refFloats)
	for i := range ref.src {
		ref.src[i] = r.Float64()
	}
	ref.work = make([]float64, refFloats)
	ref.keys = make([]int, refKeys)
	for i := range ref.keys {
		ref.keys[i] = r.Intn(1 << 20)
	}
	ref.m = make(map[int]int, refKeys)
	ref.buf = make([]byte, refBytes)
	r.Read(ref.buf)
}

// referenceSeconds runs the fixed reference kernel once and returns its
// host time.
func referenceSeconds() float64 {
	t := time.Now()
	copy(ref.work, ref.src)
	slices.Sort(ref.work)
	clear(ref.m)
	for i, k := range ref.keys {
		ref.m[k] += i
	}
	sum := sha256.Sum256(ref.buf)
	ref.sink += int(sum[0]) + len(ref.m) + int(ref.work[0]*8)
	return time.Since(t).Seconds()
}

// hostSampler runs the reference kernel, in the background every
// refPeriod or in bursts, and keeps when each run started and how long it
// took.
type hostSampler struct {
	mu         sync.Mutex
	start      []int64 // Unix nanoseconds, increasing
	secs       []float64
	background bool
	minChunks  int
	scale      float64 // applied to every recorded kernel time
	stop       chan struct{}
	done       chan struct{}
	once       sync.Once
}

// startHostSampler starts a sampler that runs the kernel in the background
// or, if background is false, only in bursts.
func startHostSampler(background bool) *hostSampler {
	h := &hostSampler{background: background, minChunks: refMinChunks, scale: 1,
		stop: make(chan struct{}), done: make(chan struct{})}
	if !background {
		h.minChunks, h.scale = 2*refBurst, refNominalS/refBurstNominalS
		close(h.done)
		return h
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(refPeriod)
		defer tick.Stop()
		for {
			h.run()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// run runs the kernel once and records it.
func (h *hostSampler) run() {
	t := time.Now().UnixNano()
	s := referenceSeconds() * h.scale
	h.mu.Lock()
	h.start, h.secs = append(h.start, t), append(h.secs, s)
	h.mu.Unlock()
}

// burst runs the kernel refBurst times back to back, unless the sampler
// runs in the background.
func (h *hostSampler) burst() {
	if h.background {
		return
	}
	for i := 0; i < refBurst; i++ {
		h.run()
	}
}

// close stops the sampler and waits for its last kernel run to end.
func (h *hostSampler) close() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}

// refS is the mean kernel time over the runs that started between from
// and to (Unix nanoseconds), widened by refPeriod on both sides until it
// holds minChunks runs. Call it once the sampler is closed.
func (h *hostSampler) refS(from, to int64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	for pad := int64(0); ; pad += int64(refPeriod) {
		lo, _ := slices.BinarySearch(h.start, from-pad)
		hi, _ := slices.BinarySearch(h.start, to+pad+1)
		if hi-lo >= h.minChunks || (lo == 0 && hi == len(h.start)) {
			sum := 0.0
			for _, s := range h.secs[lo:hi] {
				sum += s
			}
			if hi == lo {
				return 0
			}
			return sum / float64(hi-lo)
		}
	}
}

// assign sets a child's host speeds: over the whole child and over its
// event phase.
func (h *hostSampler) assign(s *sample) {
	s.RefS = h.refS(s.StartNS, s.EndNS)
	if s.EventStartNS != 0 {
		s.EventRefS = h.refS(s.EventStartNS, s.EventStartNS+int64(s.EventSeconds*1e9))
	}
}

// atRef converts a host time measured while the kernel took refS seconds
// to seconds at the reference host speed.
func atRef(hostS, refS float64) float64 {
	if refS <= 0 {
		return hostS
	}
	return hostS * refNominalS / refS
}

// rateAtRef converts a rate measured while the kernel took refS seconds to
// a rate at the reference host speed.
func rateAtRef(rate, refS float64) float64 {
	if refS <= 0 {
		return rate
	}
	return rate * refS / refNominalS
}
