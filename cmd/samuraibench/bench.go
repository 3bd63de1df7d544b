package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"samurai/internal/obs/trace"
	"samurai/internal/rng"
)

// sizes fixes how much work one op of each workload does. fullSizes is
// the benchmark; quickSizes only exists so the tests can run every
// workload in seconds (golden digests are checked at fullSizes only).
type sizes struct {
	SweepCells   int     // cells per sweep-service / sweep-fabric job
	RareCells    int     // cells per rare-is sweep
	WarmCells    int     // cells of the warm-up sweep or job
	SetupReps    int     // set-ups per run; setup_s is their median
	TraceSamples int     // samples per trace-gen trace
	TraceSpan    float64 // trace-gen bias duration, s
}

var fullSizes = sizes{SweepCells: 128, RareCells: 32, WarmCells: 4, SetupReps: 7, TraceSamples: 65536, TraceSpan: 100e-6}

var quickSizes = sizes{SweepCells: 4, RareCells: 8, WarmCells: 2, SetupReps: 1, TraceSamples: 4096, TraceSpan: 10e-6}

// warmupOp is the op index of the untimed warm-up op that ends each
// set-up; timed ops count from 0, so its inputs never coincide with a
// timed op's.
const warmupOp = 1 << 30

// cellWorkers is the number of cells a sweep simulates at once: the
// montecarlo workers of rare-is and sweep-service, and the fabric's
// single-threaded workers.
const cellWorkers = 2

// goThreads is the number of OS threads executing Go code (GOMAXPROCS).
// The two vCPUs of the machine the benchmark was tuned on share about one
// CPU's worth of time: two busy threads each run at half speed, and
// samurai.RunCtx's op time wandered over 21–34 ms with two threads
// against 20–22 ms with one. One thread keeps every workload's
// concurrency (two cell workers, HTTP client and server) but not its
// parallel speed-up.
const goThreads = 1

// env is what a workload's set-up needs.
type env struct {
	seed    uint64
	sizes   sizes
	workdir string
}

// opSeed derives op k's input seed from the workload seed, so the
// program under test only ever sees generated inputs. The warm-up op's
// input is the same for every workload seed, so set-up time does not
// vary with the seed.
func opSeed(seed uint64, k int) uint64 {
	if k == warmupOp {
		seed = 0
	}
	return rng.New(seed).Split(uint64(k)).Uint64()
}

// opOut is what one op produced, reduced to what the benchmark checks.
type opOut struct {
	items  int    // units of work done (runs, traces or cells)
	digest string // hash of every output bit; equal digests ⇒ equal outputs
}

// checkFn verifies one op's outputs and digests them. Ops return one so
// that checking stays outside the timed region.
type checkFn func() (opOut, error)

// instance is one set-up of a workload, ready to run ops.
type instance interface {
	// run executes op k through the public API, untraced.
	run(ctx context.Context, k int) (checkFn, error)
	// traced executes op k again through the traced path, recording its
	// spans under the op span ctx carries. Its output must be
	// bit-identical to run's.
	traced(ctx context.Context, rec *recorder, k int) (checkFn, error)
	// layerMetrics adds the workload's own per-layer metrics after a
	// traced pass; p holds that pass's timings.
	layerMetrics(m map[string]float64, p *tracedPass) error
	// close releases everything the instance holds.
	close() error
}

// timed runs one op through fn, timing only fn, and then checks it.
func timed(fn func() (checkFn, error)) (opOut, float64, error) {
	t0 := time.Now()
	check, err := fn()
	d := time.Since(t0).Seconds()
	if err != nil {
		return opOut{}, d, err
	}
	out, err := check()
	return out, d, err
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// goldenKey names the golden digest list; the two sweeps share one,
	// which pins their results equal.
	goldenKey string
	// obsTrace adds a third variant per op in the traced pass: the API
	// call with the program's trace.Tracer in its context
	// (obs.trace_overhead_pct).
	obsTrace bool
	// tracedOps is the least number of ops the traced pass runs, for
	// per-layer metrics defined over a fixed number of ops.
	tracedOps int
	// setup builds an instance; rec is nil unless the instance serves a
	// traced pass.
	setup func(e env, rec *recorder) (instance, error)
}

var workloads = []workload{
	{name: "cell-run", goldenKey: "cell-run", obsTrace: true, setup: setupCellRun,
		why: "samurai.RunCtx on the default 90 nm cell: the designer's unit of work, dominated by the two MNA passes"},
	{name: "trace-gen", goldenKey: "trace-gen", setup: setupTraceGen,
		why: "samurai.GenerateTrace on one 32 nm device: uniformisation and Eq 3 with no circuit, the control for cell-run"},
	{name: "rare-is", goldenKey: "rare-is", tracedOps: rarePoolOps, setup: setupRareIS,
		why: "importance-sampled montecarlo sweeps of a marginal 32 nm cell: the tilted kernel and the estimator"},
	{name: "sweep-service", goldenKey: "sweep", setup: setupSweepService,
		why: "array and rare_array jobs through the single-node jobd HTTP API over an fsync'd WAL"},
	{name: "sweep-fabric", goldenKey: "sweep", setup: setupSweepFabric,
		why: "the same jobs through the fabric coordinator and two in-process lease workers"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newDigest hashes float64s, ints and byte strings bit for bit.
func newDigest(parts ...any) string {
	d := digest{h: sha256.New(), buf: make([]byte, 0, 4096)}
	for _, p := range parts {
		switch v := p.(type) {
		case float64:
			d.u64(math.Float64bits(v))
		case []float64:
			d.u64(uint64(len(v)))
			for _, x := range v {
				d.u64(math.Float64bits(x))
			}
		case int:
			d.u64(uint64(v))
		case []byte:
			d.u64(uint64(len(v)))
			d.flush()
			d.buf = append(d.buf, v...)
		default:
			panic(fmt.Sprintf("samuraibench: cannot digest %T", p))
		}
	}
	d.flush()
	return hex.EncodeToString(d.h.Sum(nil)[:8])
}

// digest feeds a hash through a small buffer, so digesting a long trace
// allocates nothing in proportion to it.
type digest struct {
	h   hash.Hash
	buf []byte
}

func (d *digest) u64(x uint64) {
	if len(d.buf)+8 > cap(d.buf) {
		d.flush()
	}
	d.buf = binary.LittleEndian.AppendUint64(d.buf, x)
}

func (d *digest) flush() {
	//lint:ignore bareerr hash.Hash documents that Write never returns an error
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

// phaseResult is what one pass of one workload measured.
type phaseResult struct {
	Workload  string             `json:"workload"`
	Mode      string             `json:"mode"` // "untraced" or "traced"
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]value   `json:"metrics"`
	Digests   []string           `json:"digests,omitempty"` // of the first goldenOps ops
	SelfSecs  map[string]float64 `json:"self_seconds_by_layer,omitempty"`
}

func (p *phaseResult) fail(format string, args ...any) {
	p.Failed++
	msg := fmt.Sprintf(format, args...)
	p.Failures = append(p.Failures, msg)
	fmt.Fprintln(os.Stderr, "samuraibench:", p.Workload, p.Mode+":", msg)
}

// goldenOps is how many leading ops of each workload the golden digests
// pin at seed 1.
const goldenOps = 16

// runner runs passes of workloads under one configuration.
type runner struct {
	cfg    config
	golden map[string][]string
}

func (r *runner) env() env {
	return env{seed: r.cfg.seed, sizes: r.cfg.sizes, workdir: r.cfg.workdir}
}

// checkGolden records op k's digest and compares it with the golden
// list when the run is the pinned configuration (seed 1, full sizes).
func (r *runner) checkGolden(w workload, p *phaseResult, k int, d string) {
	if k < goldenOps {
		p.Digests = append(p.Digests, d)
	}
	if r.cfg.seed != 1 || r.cfg.sizes != fullSizes || r.cfg.updateGolden {
		return
	}
	want := r.golden[w.goldenKey]
	if k < len(want) && want[k] != d {
		p.fail("op %d: digest %s, golden %s", k, d, want[k])
	}
}

// keepGoing reports whether a timed loop runs op k: at least minOps
// ops, then until the time budget is spent.
func (r *runner) keepGoing(k, minOps int, start time.Time) bool {
	return k < max(minOps, r.cfg.minOps) || time.Since(start).Seconds() < r.cfg.seconds
}

// setUp builds an instance of w and runs its warm-up op: one set-up,
// timed.
func (r *runner) setUp(ctx context.Context, w workload, rec *recorder) (instance, float64, error) {
	var in instance
	_, d, err := timed(func() (checkFn, error) {
		var err error
		if in, err = w.setup(r.env(), rec); err != nil {
			return nil, err
		}
		return in.run(ctx, warmupOp)
	})
	if err != nil {
		if in != nil {
			err = errors.Join(err, in.close())
		}
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return in, d, nil
}

// untraced measures the end-to-end metrics of one workload with tracing
// off: closed-loop ops from one client, and several timed set-ups. The
// first set-up serves the ops; the others are spread over the timed
// loop, so their median, like the ops', spans the machine's slow and
// fast phases.
func (r *runner) untraced(ctx context.Context, w workload) (*phaseResult, error) {
	p := &phaseResult{Workload: w.name, Mode: "untraced", Metrics: map[string]value{}}
	inst, d, err := r.setUp(ctx, w, nil)
	if err != nil {
		return nil, err
	}
	setupSecs := []float64{d}
	reps := r.cfg.sizes.SetupReps
	setUpAgain := func() error {
		in, d, err := r.setUp(ctx, w, nil)
		if err != nil {
			return err
		}
		setupSecs = append(setupSecs, d)
		return in.close()
	}

	runtime.GC()
	heap := startHeapSampler()
	var durs []float64
	items := 0
	start := time.Now()
	for k := 0; r.keepGoing(k, 0, start); k++ {
		if len(setupSecs) < reps && time.Since(start).Seconds() >= float64(len(setupSecs))*r.cfg.seconds/float64(reps) {
			if err := setUpAgain(); err != nil {
				heap.stop()
				return nil, errors.Join(err, inst.close())
			}
		}
		out, d, err := timed(func() (checkFn, error) { return inst.run(ctx, k) })
		p.Attempted++
		if err != nil {
			p.fail("op %d: %v", k, err)
			continue
		}
		durs = append(durs, d)
		items += out.items
		r.checkGolden(w, p, k, out.digest)
	}
	heapMiB := heap.stop()
	for len(setupSecs) < reps {
		if err := setUpAgain(); err != nil {
			return nil, errors.Join(err, inst.close())
		}
	}
	if err := inst.close(); err != nil {
		p.fail("close: %v", err)
	}
	n := len(durs)
	p.Metrics["setup_s"] = value{quantile(setupSecs, 0.5), "s", len(setupSecs)}
	p.Metrics["items_per_s"] = value{ratio(float64(items), sum(durs)), "1/s", n}
	p.Metrics["op_p50_ms"] = value{quantile(durs, 0.5) * 1e3, "ms", n}
	p.Metrics["op_p95_ms"] = value{quantile(durs, 0.95) * 1e3, "ms", n}
	p.Metrics["heap_p90_mb"] = value{quantile(heapMiB, 0.9), "MiB", len(heapMiB)}
	p.Metrics["heap_max_mb"] = value{quantile(heapMiB, 1), "MiB", len(heapMiB)}
	return p, nil
}

// tracedPass carries the timings of a traced pass to the workload's own
// per-layer metrics.
type tracedPass struct {
	ops    int       // op indices run; each ran once per variant
	execs  int       // program executions of an op's work, all variants
	wall   float64   // seconds, whole pass
	plain  []float64 // untraced op durations, s
	traced []float64 // traced op durations, s
	spans  []span
	// c0 and c1 are the program's counters before and after the pass.
	c0, c1 counters
}

// perExec returns the growth of counter name per program execution of
// an op.
func (p *tracedPass) perExec(name string) float64 {
	return ratio(p.c1.delta(p.c0, name), float64(p.execs))
}

// traced runs the traced pass of one workload: every op k runs untraced,
// optionally with the program's own tracer, and then through the traced
// path, and the outputs are bit-compared. Counts come from deltas of the
// program's obs counters over the pass.
func (r *runner) traced(ctx context.Context, w workload, rec *recorder) (*phaseResult, error) {
	p := &phaseResult{Workload: w.name, Mode: "traced", Metrics: map[string]value{}}
	inst, _, err := r.setUp(ctx, w, rec)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	c0, rt0 := snapshotCounters(), readRuntime()
	mark := rec.count()
	tp := &tracedPass{}
	var obsDurs []float64
	start := time.Now()
	for k := 0; r.keepGoing(k, w.tracedOps, start); k++ {
		tp.ops++
		p.Attempted++
		plain, d, err := timed(func() (checkFn, error) { return inst.run(ctx, k) })
		tp.plain = append(tp.plain, d)
		if err != nil {
			p.fail("op %d: %v", k, err)
			continue
		}
		r.checkGolden(w, p, k, plain.digest)
		if w.obsTrace {
			tctx := trace.NewContext(ctx, trace.New(trace.ID(opSeed(r.cfg.seed, k), []byte(w.name)),
				trace.Options{Flight: trace.NewFlight(256)}))
			o, d, err := timed(func() (checkFn, error) { return inst.run(tctx, k) })
			obsDurs = append(obsDurs, d)
			if err != nil {
				p.fail("op %d with the program's tracer: %v", k, err)
			} else if o.digest != plain.digest {
				p.fail("op %d with the program's tracer: digest %s, untraced %s", k, o.digest, plain.digest)
			}
		}
		tr, d, err := timed(func() (checkFn, error) {
			octx, root := rec.op(ctx, w.name, k)
			defer rec.finish(root)
			return inst.traced(octx, rec, k)
		})
		tp.traced = append(tp.traced, d)
		if err != nil {
			p.fail("traced op %d: %v", k, err)
		} else if tr.digest != plain.digest {
			p.fail("traced op %d: digest %s, untraced %s (recomposition is not bit-identical)", k, tr.digest, plain.digest)
		}
	}
	tp.wall = time.Since(start).Seconds()
	tp.c1 = snapshotCounters()
	rt1 := readRuntime()
	tp.spans = rec.spans(mark)
	tp.c0 = c0
	tp.execs = tp.ops * 2
	if w.obsTrace {
		tp.execs += tp.ops
	}

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	self := selfTimes(tp.spans)
	p.SelfSecs = self
	total := 0.0
	for _, layer := range sortedKeys(self) {
		total += self[layer]
	}
	n := float64(tp.ops)
	for _, layer := range []string{"circuit", "markov", "rtn"} {
		m[layer+".busy_ms_per_op"] = self[layer] * 1e3 / n
		m[layer+".share"] = ratio(self[layer], total)
	}
	iters := tp.perExec("samurai_circuit_newton_iterations_total")
	m["circuit.newton_iters_per_op"] = iters
	m["circuit.steps_accepted_per_op"] = tp.perExec("samurai_circuit_steps_accepted_total")
	m["circuit.steps_rejected_per_op"] = tp.perExec("samurai_circuit_steps_rejected_total")
	m["circuit.us_per_newton_iter"] = ratio(self["circuit"]*1e6/n, iters)
	cands := tp.perExec("samurai_markov_candidates_total")
	m["markov.candidates_per_op"] = cands
	m["markov.accept_ratio"] = ratio(tp.perExec("samurai_markov_accepts_total"), cands)
	m["markov.ns_per_candidate"] = ratio(self["markov"]*1e9/n, cands)
	trans := tp.perExec("samurai_rtn_trace_transitions_total")
	m["rtn.transitions_per_op"] = trans
	m["rtn.ns_per_transition"] = ratio(self["rtn"]*1e9/n, trans)
	m["trap.busy_us_per_op"] = self["trap"] * 1e6 / n
	m["sram.build_us_per_op"] = sum(durations(tp.spans, "sram.build")) * 1e6 / n
	m["sram.detect_us_per_op"] = sum(durations(tp.spans, "sram.detect")) * 1e6 / n
	m["mc.busy_frac"] = ratio(tp.c1.mcBusySecs-tp.c0.mcBusySecs, cellWorkers*tp.wall)
	if w.obsTrace {
		m["obs.trace_overhead_pct"] = 100 * (ratio(sum(obsDurs), sum(tp.plain)) - 1)
	}
	m["bench.trace_overhead_pct"] = 100 * (ratio(sum(tp.traced), sum(tp.plain)) - 1)
	m["go.alloc_kb_per_op"] = (rt1.allocBytes - rt0.allocBytes) / float64(tp.execs) / 1024
	m["go.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	m["go.gc_cycles_per_op"] = (rt1.gcCycles - rt0.gcCycles) / float64(tp.execs)
	if err := inst.layerMetrics(m, tp); err != nil {
		p.fail("layer metrics: %v", err)
	}
	if err := inst.close(); err != nil {
		p.fail("close: %v", err)
	}
	for _, d := range perLayer {
		p.Metrics[d.Name] = value{m[d.Name], d.Unit, tp.ops}
	}
	return p, nil
}

// heapSampler samples heapInUse at 10 Hz.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	mib    []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	h.observe()
	go func() {
		defer close(h.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.observe()
			case <-h.stopCh:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := heapInUse() / (1 << 20)
	h.mu.Lock()
	h.mib = append(h.mib, v)
	h.mu.Unlock()
}

// stop ends sampling, waits for the sampler, takes one final sample and
// returns every sample in MiB.
func (h *heapSampler) stop() []float64 {
	close(h.stopCh)
	<-h.done
	h.observe()
	return h.mib
}
