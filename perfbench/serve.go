package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tpusim/internal/isa"
	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/runtime"
	"tpusim/internal/serve"
	"tpusim/internal/systolic"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// The serve workload is the wall-clock serving stack: a serve.Server over
// a RuntimeBackend on a 4-device runtime.Server, serving the six
// models.Tiny apps with real functional inference (compiler, tpu, systolic
// kernel, memory). It is the only workload that loads those layers.
//
// Set-up builds the stack, compiles each app on its pinned device (the
// cold first run) and computes reference outputs for a seeded pool of
// request rows with hot RunOn calls. Then two phases:
//   - closed loop: serveClients goroutines, an equal number per app, each
//     submit and wait until serveClosedRequests have been sent; sat_rps
//     is the median completion rate over serveWindow windows;
//   - open loop: serveOpenRequests seeded Poisson arrivals at
//     serveOpenRate over all apps, each timed from when it was due;
//     p50_ms and p99_ms.
//
// The service model and policy are fixed, not calibrated to the host. The
// fill wait is far below a device run (about 1.4 ms of host time for a
// tiny batch), so latency measures program work rather than the fill
// timer. The SLA is in host time and loose: only a stall of a quarter of a
// second sheds, expires or fails a request.
//
// Checks: every response equals its row's reference output bit for bit.
// Errors other than sheds and expiries fail the check; sheds, expiries and
// over-SLA responses are counted as failed requests (fail_frac) but depend
// on host timing, so they do not fail the check.
const (
	serveDevices        = 4
	serveClients        = 48
	serveClosedRequests = 25000
	serveOpenRate       = 500.0 // req/s over all six apps
	serveOpenRequests   = 1000
	servePoolBatches    = 4 // reference batches per app; the first is the cold run
	serveSLASeconds     = 250e-3
	serveMaxWaitSeconds = 100e-6
	serveQueueLimit     = 256
	serveWindow         = 200 * time.Millisecond
	// mulRows and mulReps size the systolic kernel probe: one 256x256
	// weight tile times a 256-row batch, repeated.
	mulRows = 256
	mulReps = 20
)

func init() {
	register(&spec{name: "serve", run: runServe, fillsCPUs: true})
}

// serveApp is one served model with its request pool and references.
type serveApp struct {
	m    *nn.Model
	rows []*tensor.F32
	refs [][]float32
}

// serveService is the fixed batch-time model the policy resolves against:
// it sizes the safe batch (the whole compiled batch) and drives
// shed-at-dispatch decisions.
var serveService = latency.ServiceFunc(func(n int) (float64, error) {
	return 100e-6 + 10e-6*float64(n), nil
})

// seedFor derives an independent seed for one stream of the run.
func seedFor(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*10_007 + int64(i)
}

func runServe(j *job) error {
	rt, err := runtime.NewServer(serveDevices, tpu.DefaultConfig())
	if err != nil {
		return err
	}
	defer rt.Close()
	backend := serve.NewRuntimeBackend(rt)
	srv := serve.NewServer(backend)
	defer srv.Close()
	apps, refSum, err := serveSetup(j, rt, backend, srv)
	if err != nil {
		return err
	}
	j.setupDone()

	// errs counts errors other than sheds and expiries, refused counts
	// sheds and expiries, mismatches counts wrong outputs.
	var errs, refused, mismatches atomic.Int64
	check := func(a *serveApp, row int, resp serve.Response, err error) bool {
		switch {
		case errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrDeadline):
			refused.Add(1)
			return false
		case err != nil:
			errs.Add(1)
			return false
		}
		if !equalF32(resp.Output.Data, a.refs[row]) {
			mismatches.Add(1)
			return false
		}
		return true
	}

	// A sampler reads the completion count every serveWindow; sat_rps is
	// the median rate over the phase's full windows, which a transient
	// host stall moves less than the phase mean.
	closedStart := time.Now()
	var next, completed atomic.Int64
	var windows []float64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(serveWindow)
		defer tick.Stop()
		last, lastT := int64(0), closedStart
		for {
			select {
			case <-stop:
				return
			case t := <-tick.C:
				n := completed.Load()
				windows = append(windows, float64(n-last)/t.Sub(lastT).Seconds())
				last, lastT = n, t
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seedFor(j.seed, 1, c)))
			a := apps[c%len(apps)]
			for next.Add(1) <= serveClosedRequests {
				row := rng.Intn(len(a.rows))
				resp, err := srv.Submit(a.m.Name, a.rows[row])
				if check(a, row, resp, err) {
					completed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	closedS := time.Since(closedStart).Seconds()
	close(stop)
	sampler.Wait()

	sched, schedSum := openSchedule(j.seed, apps)
	lat := make([]float64, len(sched))
	late := make([]float64, len(sched))
	var overSLA atomic.Int64
	openStart := time.Now()
	for i, ar := range sched {
		due := openStart.Add(ar.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due).Seconds()
		wg.Add(1)
		go func(i int, ar arrival, due time.Time) {
			defer wg.Done()
			a := apps[ar.app]
			resp, err := srv.Submit(a.m.Name, a.rows[ar.row])
			lat[i] = time.Since(due).Seconds()
			if check(a, ar.row, resp, err) && lat[i] > serveSLASeconds {
				overSLA.Add(1)
			}
		}(i, ar, due)
	}
	wg.Wait()
	j.workDone()
	srv.Close()

	j.events(float64(completed.Load()), closedStart, closedS)
	if len(windows) >= 3 {
		j.rec.EventsPerS = median(windows)
	}
	j.count("p50_ms", percentile(lat, 0.50)*1e3)
	j.count("p99_ms", percentile(lat, 0.99)*1e3)
	j.count("serve.latency_samples", float64(len(lat)))
	j.count("loadgen.late_ms", percentile(late, 0.99)*1e3)
	var shed, expired, done, batches uint64
	for _, m := range srv.Metrics().Snapshot().Models {
		shed += m.ShedQueue + m.ShedBrownout + m.ShedBreaker
		expired += m.Expired
		done += m.Completed
		batches += m.Batches
	}
	j.count("serve.shed", float64(shed))
	j.count("serve.expired", float64(expired))
	if batches > 0 {
		j.count("serve.batch_mean", float64(done)/float64(batches))
	}
	if j.traced {
		if err := probeKernel(j); err != nil {
			return err
		}
	}

	j.rec.Attempted = serveClosedRequests + serveOpenRequests
	j.rec.Failed = int(errs.Load() + mismatches.Load() + refused.Load() + overSLA.Load())
	if errs.Load() > 0 || mismatches.Load() > 0 {
		j.problem("serve: %d requests failed with errors and %d returned wrong outputs", errs.Load(), mismatches.Load())
	}
	j.rec.Digest = sha(refSum + schedSum)
	return nil
}

// arrival is one open-loop request: when it is due after the phase
// starts, and which app and pool row it sends.
type arrival struct {
	at       time.Duration
	app, row int
}

// openSchedule generates the open-loop arrivals from the seed and returns
// them with their digest.
func openSchedule(seed int64, apps []*serveApp) ([]arrival, string) {
	rng := rand.New(rand.NewSource(seedFor(seed, 2, 0)))
	sched := make([]arrival, serveOpenRequests)
	h := sha256.New()
	var at float64
	for i := range sched {
		at += rng.ExpFloat64() / serveOpenRate
		app := rng.Intn(len(apps))
		sched[i] = arrival{time.Duration(at * float64(time.Second)), app, rng.Intn(len(apps[app].rows))}
		_ = binary.Write(h, binary.LittleEndian, [3]int64{int64(sched[i].at), int64(app), int64(sched[i].row)}) // hash writes never fail
	}
	return sched, hex.EncodeToString(h.Sum(nil))
}

// serveSetup registers the six tiny apps, generates their request pools
// and computes the reference outputs on each app's pinned device. It
// returns the apps and a digest of pools and references.
func serveSetup(j *job, rt *runtime.Server, backend *serve.RuntimeBackend, srv *serve.Server) ([]*serveApp, string, error) {
	h := sha256.New()
	var apps []*serveApp
	var hot []float64 // per-app mean hot RunOn seconds
	for k, name := range models.Names() {
		m, err := models.Tiny(name)
		if err != nil {
			return nil, "", err
		}
		params := nn.InitRandom(m, seedFor(j.seed, 3, k), 0.25)
		// RuntimeBackend pins models to devices round robin in AddModel
		// order, so app k runs on device k % serveDevices.
		if err := backend.AddModel(m, params); err != nil {
			return nil, "", err
		}
		if _, err := srv.Register(m.Name, serve.ModelConfig{
			Policy: serve.Policy{
				MaxBatch:       m.Batch,
				SLASeconds:     serveSLASeconds,
				MaxWaitSeconds: serveMaxWaitSeconds,
				QueueLimit:     serveQueueLimit,
			},
			Service: serveService,
		}); err != nil {
			return nil, "", err
		}
		a := &serveApp{m: m}
		rowIn := m.InputElems()
		var hotS float64
		for b := 0; b < servePoolBatches; b++ {
			in := tensor.NewF32(batchShape(m)...)
			for r := 0; r < m.Batch; r++ {
				row := tensor.NewF32(1, rowIn)
				row.FillRandom(seedFor(j.seed, 4, k*1000+len(a.rows)), 1)
				copy(in.Data[r*rowIn:], row.Data)
				a.rows = append(a.rows, row)
			}
			var res *runtime.InferenceResult
			run := func() { res, err = rt.RunOn(k%serveDevices, m, params, in) }
			if b == 0 { // first run on the device: quantize, compile, run
				j.span("compiler.warm_s", run)
			} else {
				t := time.Now()
				run()
				hotS += time.Since(t).Seconds()
			}
			if err != nil {
				return nil, "", fmt.Errorf("serve: reference run %s: %w", m.Name, err)
			}
			rowOut := len(res.Output.Data) / m.Batch
			for r := 0; r < m.Batch; r++ {
				ref := append([]float32(nil), res.Output.Data[r*rowOut:(r+1)*rowOut]...)
				a.refs = append(a.refs, ref)
				_ = binary.Write(h, binary.LittleEndian, ref) // hash writes never fail
			}
		}
		hot = append(hot, hotS/float64(servePoolBatches-1))
		apps = append(apps, a)
	}
	j.count("runtime.run_ms", mean(hot)*1e3)
	return apps, hex.EncodeToString(h.Sum(nil)), nil
}

// probeKernel times systolic.MultiplyInto on one weight tile and a
// 256-row batch, single worker, and records nanoseconds per row.
func probeKernel(j *job) error {
	rng := rand.New(rand.NewSource(seedFor(j.seed, 5, 0)))
	w := make([]int8, isa.WeightTileBytes)
	for i := range w {
		w[i] = int8(rng.Intn(256) - 128)
	}
	tile, err := systolic.TileFromBytes(w)
	if err != nil {
		return err
	}
	arr := systolic.New()
	if err := arr.LoadShadow(tile); err != nil {
		return err
	}
	if err := arr.Commit(); err != nil {
		return err
	}
	in := make([]int8, mulRows*isa.MatrixDim)
	for i := range in {
		in[i] = int8(rng.Intn(256) - 128)
	}
	out := make([][isa.MatrixDim]int32, mulRows)
	if err := arr.MultiplyInto(in, out, 1); err != nil { // latch the packed tile
		return err
	}
	t := time.Now()
	for r := 0; r < mulReps; r++ {
		if err := arr.MultiplyInto(in, out, 1); err != nil {
			return err
		}
	}
	j.count("systolic.mul_ns_per_row", float64(time.Since(t).Nanoseconds())/float64(mulReps*mulRows))
	return nil
}

// batchShape is the full-batch input shape RunOn expects: images keep
// their (batch, H, W, Cin) geometry, everything else is flat rows. Either
// way one request row follows another in memory.
func batchShape(m *nn.Model) []int {
	if m.Class == nn.CNN && len(m.Layers) > 0 && m.Layers[0].Kind == nn.Conv {
		c := m.Layers[0].Conv
		return []int{m.Batch, c.H, c.W, c.Cin}
	}
	return []int{m.Batch, m.InputElems()}
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
