package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samurai"
	"samurai/internal/fabric"
	"samurai/internal/jobd"
	"samurai/internal/montecarlo"
	"samurai/internal/rareevent"
	"samurai/internal/sram"
)

// Sweep inputs: jobs alternate between plain array sweeps and
// importance-sampled rare_array sweeps of the default 90 nm cell with RTN
// scaled ×30, so some cells fail and both job types share one scheduler.
const (
	sweepScale = 30
	// pollEvery is the client's status polling interval (20 Hz).
	pollEvery = 50 * time.Millisecond
	// clientTimeout bounds every request of the benchmark's client.
	clientTimeout = 30 * time.Second
)

// jobSpec is op k's job.
func jobSpec(seed uint64, sz sizes, k int) jobd.Spec {
	s := jobd.Spec{Type: jobd.TypeArray, Seed: opSeed(seed, k), Cells: sz.SweepCells, Scale: sweepScale, Workers: cellWorkers}
	if k == warmupOp {
		s.Cells = sz.WarmCells
	}
	if k%2 == 1 {
		s.Type, s.TiltEV = jobd.TypeRareArray, rareTiltEV
	}
	return s
}

// jobResult is the part of GET /jobs/{id}/result the benchmark compares:
// everything but the id and the machine-dependent run_info.
type jobResult struct {
	Summary *jobd.Summary     `json:"summary"`
	Cells   []jobd.CellRecord `json:"cells"`
}

// checkJob verifies a finished job's summary against its cells with the
// operations single-node montecarlo uses, bit for bit, and hashes both.
func checkJob(spec jobd.Spec, res jobResult) (opOut, error) {
	if res.Summary == nil || len(res.Cells) != spec.Cells {
		return opOut{}, fmt.Errorf("result has %d cells for a %d-cell job", len(res.Cells), spec.Cells)
	}
	want := jobd.Summary{}
	var est rareevent.Estimator
	trapSum := 0
	for i, c := range res.Cells {
		if c.Index != i {
			return opOut{}, fmt.Errorf("cell %d carries index %d", i, c.Index)
		}
		x := 0.0
		if c.Failed {
			want.NumFailed++
			x = 1
		}
		trapSum += c.TrapCount
		est.Add(math.Exp(c.LogLR), x)
	}
	want.ErrorRate = float64(want.NumFailed) / float64(spec.Cells)
	want.MeanTraps = float64(trapSum) / float64(spec.Cells)
	if spec.Type == jobd.TypeRareArray {
		st := est.Stats(spec.TiltEV)
		want.Rare = &st
	}
	got, err := json.Marshal(res.Summary)
	if err != nil {
		return opOut{}, err
	}
	exp, err := json.Marshal(want)
	if err != nil {
		return opOut{}, err
	}
	if !bytes.Equal(got, exp) {
		return opOut{}, fmt.Errorf("summary %s does not match its cells (%s)", got, exp)
	}
	body, err := json.Marshal(res)
	if err != nil {
		return opOut{}, err
	}
	return opOut{items: spec.Cells, digest: newDigest(body)}, nil
}

// route names a request by the handler path it hits.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/jobs" && r.Method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(p, "/jobs/") && strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/jobs/"):
		return "status"
	case p == fabric.PathLease:
		return "lease"
	case p == fabric.PathCheckpoint:
		return "checkpoint"
	}
	return "other"
}

// traceHTTP is the timing middleware of the traced pass: while an op is
// traced (cur is set), every request the server handles is a span under
// that op, named by the handler path it hits.
func traceHTTP(rec *recorder, cur *atomic.Pointer[spanNode], layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := cur.Load()
		if op == nil {
			next.ServeHTTP(w, r)
			return
		}
		sp := rec.begin(op, 0, "", layer, layer+"."+route(r))
		next.ServeHTTP(w, r)
		rec.finish(sp)
	})
}

// service is the HTTP side shared by both sweeps: a loopback server over
// a fresh WAL and the closed-loop client.
type service struct {
	seed   uint64
	sizes  sizes
	dir    string
	store  *jobd.Store
	srv    *httptest.Server
	client *http.Client
	// cur is the op span of the op being traced, nil otherwise.
	cur atomic.Pointer[spanNode]

	walStart int64 // WAL bytes after the warm-up job
	cellsRun int   // cells of timed ops
}

// openService creates the WAL directory and store at samuraid's defaults
// (compaction on start-up, fsync on every append).
func openService(e env) (*service, []*jobd.Job, uint64, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	dir, err := os.MkdirTemp(e.workdir, "wal-")
	if err != nil {
		return nil, nil, 0, err
	}
	store, replayed, maxSeq, err := jobd.Open(filepath.Join(dir, "samuraid.jsonl"))
	if err != nil {
		return nil, nil, 0, errors.Join(err, os.RemoveAll(dir))
	}
	if err := store.Compact(replayed); err != nil {
		return nil, nil, 0, errors.Join(err, store.Close(), os.RemoveAll(dir))
	}
	return &service{
		seed: e.seed, sizes: e.sizes, dir: dir, store: store,
		client: &http.Client{Timeout: clientTimeout},
	}, replayed, maxSeq, nil
}

// serve starts the loopback server, behind the timing middleware when
// the instance serves a traced pass.
func (s *service) serve(rec *recorder, layer string, h http.Handler) {
	if rec != nil {
		h = traceHTTP(rec, &s.cur, layer, h)
	}
	s.srv = httptest.NewServer(h)
}

// traceOp runs op k's job with the op span ctx carries as the parent of
// every span the middleware and the runners record meanwhile.
func (s *service) traceOp(ctx context.Context, k int, afterSubmit func()) (checkFn, error) {
	s.cur.Store(nodeOf(ctx))
	defer s.cur.Store(nil)
	return s.job(ctx, k, afterSubmit)
}

// do sends one request and decodes the JSON answer into out.
func (s *service) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.srv.URL+path, body)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// job runs op k as one client would: submit, poll the status at 20 Hz
// until the job ends, fetch the result. afterSubmit runs once the job
// exists (the fabric starts its workers there on the first job).
func (s *service) job(ctx context.Context, k int, afterSubmit func()) (checkFn, error) {
	spec := jobSpec(s.seed, s.sizes, k)
	var v jobd.View
	if err := s.do(ctx, http.MethodPost, "/jobs", spec, &v); err != nil {
		return nil, err
	}
	if afterSubmit != nil {
		afterSubmit()
	}
	for !v.State.Terminal() {
		timer := time.NewTimer(pollEvery)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
		if err := s.do(ctx, http.MethodGet, "/jobs/"+v.ID, nil, &v); err != nil {
			return nil, err
		}
	}
	if v.State != jobd.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	var res jobResult
	if err := s.do(ctx, http.MethodGet, "/jobs/"+v.ID+"/result", nil, &res); err != nil {
		return nil, err
	}
	if k != warmupOp {
		s.cellsRun += spec.Cells
	} else if fi, err := os.Stat(s.store.Path()); err == nil {
		s.walStart = fi.Size()
	}
	return func() (opOut, error) { return checkJob(spec, res) }, nil
}

// httpMetrics adds the p50 and p95 of every request route the middleware
// timed, as <layer>.<route>_ms_p50 and _p95; the pass reports the ones
// perLayer lists.
func httpMetrics(m map[string]float64, spans []span, layer string) {
	for _, r := range []string{"submit", "status", "result", "lease", "checkpoint"} {
		d := durations(spans, layer+"."+r)
		m[layer+"."+r+"_ms_p50"] = quantile(d, 0.5) * 1e3
		m[layer+"."+r+"_ms_p95"] = quantile(d, 0.95) * 1e3
	}
}

// walMetrics reads the WAL written by the timed ops, then closes the
// store and times jobd.Open on the finished log: the restart read path.
func (s *service) walMetrics(m map[string]float64, layer string) error {
	if err := s.store.Close(); err != nil {
		return err
	}
	f, err := os.Open(s.store.Path())
	if err != nil {
		return err
	}
	bytesN, records, err := countLines(f, s.walStart)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m[layer+".wal_bytes_per_cell"] = ratio(float64(bytesN), float64(s.cellsRun))
	m[layer+".wal_records_per_cell"] = ratio(float64(records), float64(s.cellsRun))
	t0 := time.Now()
	store, _, _, err := jobd.Open(s.store.Path())
	m[layer+".replay_ms"] = time.Since(t0).Seconds() * 1e3
	if err != nil {
		return err
	}
	return store.Close()
}

// countLines counts the bytes and lines of f from offset on.
func countLines(f *os.File, offset int64) (int, int, error) {
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return 0, 0, err
	}
	var bytesN, lines int
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		bytesN += len(sc.Bytes()) + 1
		lines++
	}
	return bytesN, lines, sc.Err()
}

// shutdown stops the server and removes the WAL directory. The store is
// closed here unless walMetrics already did.
func (s *service) shutdown() error {
	s.srv.Close()
	s.client.CloseIdleConnections()
	return errors.Join(s.store.Close(), os.RemoveAll(s.dir))
}

// sweepService is single-node samuraid: the jobd scheduler behind its
// HTTP handler, at samuraid's defaults.
type sweepService struct {
	*service
	sched *jobd.Scheduler
}

func setupSweepService(e env, rec *recorder) (instance, error) {
	s, replayed, maxSeq, err := openService(e)
	if err != nil {
		return nil, err
	}
	sched := jobd.New(s.store, replayed, maxSeq, jobd.Options{})
	sched.Start()
	s.serve(rec, "jobd", jobd.NewHandler(sched))
	return &sweepService{service: s, sched: sched}, nil
}

func (s *sweepService) run(ctx context.Context, k int) (checkFn, error) { return s.job(ctx, k, nil) }

// traced submits op k's job again with the timing middleware on; the
// scheduler runs its own runner, so only the HTTP paths are timed.
func (s *sweepService) traced(ctx context.Context, _ *recorder, k int) (checkFn, error) {
	return s.traceOp(ctx, k, nil)
}

func (s *sweepService) layerMetrics(m map[string]float64, p *tracedPass) error {
	httpMetrics(m, p.spans, "jobd")
	m["jobd.job_p50_s"] = quantile(p.plain, 0.5)
	s.sched.Drain()
	return s.walMetrics(m, "jobd")
}

func (s *sweepService) close() error {
	s.sched.Drain()
	return s.shutdown()
}

// sweepFabric is the distributed path: the fabric coordinator behind its
// HTTP handler and two in-process workers at samuraiw's defaults, each
// simulating one cell at a time.
type sweepFabric struct {
	*service
	co      *fabric.Coordinator
	workers []*fabric.Worker
	wg      sync.WaitGroup
	errs    chan error // one slot per worker
	started bool
	stopped bool
}

func setupSweepFabric(e env, rec *recorder) (instance, error) {
	s, replayed, maxSeq, err := openService(e)
	if err != nil {
		return nil, err
	}
	co := fabric.New(s.store, replayed, maxSeq, fabric.Options{})
	s.serve(rec, "fabric", fabric.NewHandler(co))
	f := &sweepFabric{service: s, co: co, errs: make(chan error, cellWorkers)}
	for i := 0; i < cellWorkers; i++ {
		opts := fabric.WorkerOptions{BaseURL: s.srv.URL, Threads: 1}
		if rec != nil {
			opts.Runner, opts.RareRunner = tracedRunners(rec, &s.cur)
		}
		f.workers = append(f.workers, fabric.NewWorker(opts))
	}
	return f, nil
}

// tracedRunners wraps the public cell runners so that, while an op is
// traced, each cell is an mc.cell span under that op.
func tracedRunners(rec *recorder, cur *atomic.Pointer[spanNode]) (montecarlo.CtxRunner, montecarlo.RareCtxRunner) {
	cell := func() func() {
		op := cur.Load()
		if op == nil {
			return func() {}
		}
		sp := rec.begin(op, 0, "", "mc", "mc.cell")
		return func() { rec.finish(sp) }
	}
	run, rare := samurai.ArrayRunnerCtx(), samurai.RareArrayRunnerCtx()
	runner := func(ctx context.Context, c sram.CellConfig, p sram.Pattern, scale float64, seed uint64) (int, int, int, error) {
		done := cell()
		defer done()
		return run(ctx, c, p, scale, seed)
	}
	rareRunner := func(ctx context.Context, c sram.CellConfig, p sram.Pattern, scale, tilt float64, seed uint64) (int, int, int, float64, float64, error) {
		done := cell()
		defer done()
		return rare(ctx, c, p, scale, tilt, seed)
	}
	return runner, rareRunner
}

// startWorkers launches the workers once the first job exists, so the
// warm-up job does not wait out an idle poll.
func (f *sweepFabric) startWorkers() {
	if f.started {
		return
	}
	f.started = true
	for _, w := range f.workers {
		f.wg.Add(1)
		go func(w *fabric.Worker) {
			defer f.wg.Done()
			if err := w.Run(context.Background()); err != nil {
				f.errs <- err
			}
		}(w)
	}
}

func (f *sweepFabric) run(ctx context.Context, k int) (checkFn, error) {
	select {
	case err := <-f.errs:
		return nil, fmt.Errorf("fabric worker: %w", err)
	default:
	}
	return f.job(ctx, k, f.startWorkers)
}

func (f *sweepFabric) traced(ctx context.Context, _ *recorder, k int) (checkFn, error) {
	return f.traceOp(ctx, k, f.startWorkers)
}

func (f *sweepFabric) layerMetrics(m map[string]float64, p *tracedPass) error {
	httpMetrics(m, p.spans, "fabric")
	jobs := float64(p.execs)
	m["fabric.leases_per_job"] = p.perExec("samurai_fabric_leases_granted_total")
	m["fabric.steals"] = p.c1.delta(p.c0, "samurai_fabric_steals_total")
	m["fabric.idle_s_per_job"] = (cellWorkers*p.wall - (p.c1.mcBusySecs - p.c0.mcBusySecs)) / jobs
	m["fabric.job_p50_s"] = quantile(p.plain, 0.5)
	// The middleware records requests only during the traced job of each
	// op, so its counts are per traced job.
	traced := float64(p.ops)
	leases := float64(len(durations(p.spans, "fabric.lease")))
	m["fabric.empty_leases_per_job"] = (leases - m["fabric.leases_per_job"]*traced) / traced
	m["fabric.checkpoints_per_cell"] = ratio(float64(len(durations(p.spans, "fabric.checkpoint"))), traced*float64(f.sizes.SweepCells))
	cells := durations(p.spans, "mc.cell")
	m["mc.cell_ms_p50"] = quantile(cells, 0.5) * 1e3
	m["mc.cell_ms_p95"] = quantile(cells, 0.95) * 1e3
	if err := f.stop(); err != nil {
		return err
	}
	return f.walMetrics(m, "fabric")
}

// stop drains the workers and waits for them, then drains the
// coordinator, and reports the workers' errors.
func (f *sweepFabric) stop() error {
	if f.stopped {
		return nil
	}
	f.stopped = true
	for _, w := range f.workers {
		w.Drain()
	}
	f.wg.Wait()
	f.co.Drain()
	close(f.errs)
	var errs []error
	for err := range f.errs {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (f *sweepFabric) close() error {
	return errors.Join(f.stop(), f.shutdown())
}
