package fabric

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samurai"
	"samurai/internal/jobd"
	"samurai/internal/montecarlo"
	"samurai/internal/sram"
)

// testSpec is the canonical fabric test sweep: variation-only (fast)
// with a fixed seed, matching the single-node resume golden tests.
func testSpec(cells, workers int) jobd.Spec {
	withRTN := false
	return jobd.Spec{
		Type:    jobd.TypeArray,
		Seed:    1234,
		Cells:   cells,
		WithRTN: &withRTN,
		Workers: workers,
	}
}

// recordsEqual is the scheduler's bit-wise duplicate check.
func recordsEqual(a, b jobd.CellRecord) bool { return a.Equal(b) }

// baseline runs the spec single-node through RunArrayCtx — the result
// every fabric topology must reproduce bit-for-bit.
func baseline(t *testing.T, spec jobd.Spec) (*montecarlo.ArrayResult, []jobd.CellRecord) {
	t.Helper()
	cfg, err := spec.ArrayConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := montecarlo.RunArrayCtx(context.Background(), cfg, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Outcomes
}

// assertMerged compares the coordinator's merged records and summary
// against the single-node baseline, float64s as raw bits.
func assertMerged(t *testing.T, c *Coordinator, jobID string, res *montecarlo.ArrayResult, want []jobd.CellRecord) {
	t.Helper()
	v, ok := c.Get(jobID)
	if !ok {
		t.Fatalf("job %s vanished", jobID)
	}
	if v.State != jobd.StateDone {
		t.Fatalf("job %s is %s (%s), want done", jobID, v.State, v.Error)
	}
	got, _ := c.CellRecords(jobID)
	if len(got) != len(want) {
		t.Fatalf("merged %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("cell %d not bit-identical to single-node run:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		for k, wv := range want[i].VtShift {
			if math.Float64bits(got[i].VtShift[k]) != math.Float64bits(wv) {
				t.Fatalf("cell %d VtShift[%q] bits differ", i, k)
			}
		}
	}
	if v.Result == nil {
		t.Fatal("done job has no summary")
	}
	if v.Result.NumFailed != res.NumFailed ||
		math.Float64bits(v.Result.ErrorRate) != math.Float64bits(res.ErrorRate) ||
		math.Float64bits(v.Result.MeanTraps) != math.Float64bits(res.MeanTraps) {
		t.Fatalf("summary not bit-identical: got %+v, want {NumFailed:%d ErrorRate:%v MeanTraps:%v}",
			v.Result, res.NumFailed, res.ErrorRate, res.MeanTraps)
	}
}

// newFabric stands up a coordinator plus HTTP server over a fresh
// store in dir.
func newFabric(t *testing.T, dir string, opts Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	store, jobs, seq, err := jobd.Open(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//lint:ignore bareerr double-close races with explicit closes in restart tests are benign here
		store.Close()
	})
	c := New(store, jobs, seq, opts)
	srv := httptest.NewServer(NewHandler(c))
	t.Cleanup(srv.Close)
	return c, srv
}

// TestFabricMergeBitIdentical is the headline tentpole assertion: three
// workers splitting one array job over the lease protocol merge to the
// byte-identical records and summary of a single-node RunArrayCtx.
func TestFabricMergeBitIdentical(t *testing.T) {
	spec := testSpec(24, 2)
	res, want := baseline(t, spec)

	c, srv := newFabric(t, t.TempDir(), Options{LeaseCells: 5, LeaseTTL: time.Minute})
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	const nWorkers = 3
	var wg sync.WaitGroup
	errs := make([]error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorker(WorkerOptions{
				BaseURL:      srv.URL,
				Poll:         10 * time.Millisecond,
				ExitWhenDone: true,
			})
			errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	assertMerged(t, c, v.ID, res, want)

	st := c.Status()
	if st.StealsTotal != 0 {
		t.Fatalf("healthy run recorded %d steals", st.StealsTotal)
	}
	if len(st.Workers) == 0 {
		t.Fatal("status lists no workers")
	}
}

// TestFabricChaosWorkerKill repeatedly hard-kills workers mid-lease
// (context cancellation — checkpoint flushing dies with them) and lets
// fresh workers steal the remains. The merged result must still be
// bit-identical, and at least one steal must be on the books.
func TestFabricChaosWorkerKill(t *testing.T) {
	spec := testSpec(12, 1)
	res, want := baseline(t, spec)

	c, srv := newFabric(t, t.TempDir(), Options{LeaseCells: 6, LeaseTTL: 250 * time.Millisecond})
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic kill schedule: each chaos worker is cancelled after
	// its k-th acknowledged checkpoint, well inside a 6-cell lease.
	for _, k := range []int32{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var acked atomic.Int32
		w := NewWorker(WorkerOptions{
			BaseURL:      srv.URL,
			Poll:         10 * time.Millisecond,
			ExitWhenDone: true,
			OnCheckpoint: func(string, int) {
				if acked.Add(1) == k {
					cancel()
				}
			},
		})
		// The kill races the run loop: either the worker dies mid-lease
		// (ctx error) or it got lucky and finished flushing first. Both
		// are valid chaos outcomes.
		//lint:ignore bareerr chaos worker errors are the point of the test
		w.Run(ctx)
		cancel()
	}
	if done := c.Status().Jobs[0].CellsDone; done >= spec.Cells {
		t.Fatalf("chaos workers completed all %d cells; kill schedule too lax to test stealing", done)
	}

	// A clean finisher drains the pool, stealing whatever the dead
	// workers still nominally hold.
	w := NewWorker(WorkerOptions{
		BaseURL:      srv.URL,
		Poll:         10 * time.Millisecond,
		ExitWhenDone: true,
	})
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("finisher worker: %v", err)
	}

	assertMerged(t, c, v.ID, res, want)
	if st := c.Status(); st.StealsTotal < 1 {
		t.Fatalf("expected at least one steal, status: %+v", st)
	}
}

// TestFabricCoordinatorRestart kills the coordinator mid-job (store
// closed, process state dropped), replays the WAL into a fresh one and
// lets the same worker identity finish. Checkpointed cells must survive
// the restart and the merged result must stay bit-identical.
func TestFabricCoordinatorRestart(t *testing.T) {
	spec := testSpec(12, 1)
	res, want := baseline(t, spec)
	path := filepath.Join(t.TempDir(), "store.jsonl")

	store, jobs, seq, err := jobd.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c := New(store, jobs, seq, Options{LeaseCells: 4, LeaseTTL: time.Minute})
	srv := httptest.NewServer(NewHandler(c))
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var acked atomic.Int32
	w1 := NewWorker(WorkerOptions{
		BaseURL:      srv.URL,
		ID:           "w-alpha",
		Poll:         10 * time.Millisecond,
		ExitWhenDone: true,
		OnCheckpoint: func(string, int) {
			if acked.Add(1) == 3 {
				cancel()
			}
		},
	})
	//lint:ignore bareerr the worker dies with its context by design
	w1.Run(ctx)
	cancel()
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if acked.Load() < 3 {
		t.Fatalf("first worker checkpointed only %d cells before the crash", acked.Load())
	}

	store2, jobs2, seq2, err := jobd.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if len(jobs2) != 1 || jobs2[0].Done() < 3 {
		t.Fatalf("replay lost checkpoints: %d jobs, %d cells", len(jobs2), jobs2[0].Done())
	}
	c2 := New(store2, jobs2, seq2, Options{LeaseCells: 4, LeaseTTL: time.Minute})
	srv2 := httptest.NewServer(NewHandler(c2))
	defer srv2.Close()

	// The same worker identity re-registers transparently on first
	// contact with the new coordinator.
	w2 := NewWorker(WorkerOptions{
		BaseURL:      srv2.URL,
		ID:           "w-alpha",
		Poll:         10 * time.Millisecond,
		ExitWhenDone: true,
	})
	if err := w2.Run(context.Background()); err != nil {
		t.Fatalf("post-restart worker: %v", err)
	}

	assertMerged(t, c2, v.ID, res, want)
	st := c2.Status()
	if len(st.Workers) != 1 || st.Workers[0].ID != "w-alpha" {
		t.Fatalf("worker registration did not replay: %+v", st.Workers)
	}
	if st.Workers[0].Cells == 0 {
		t.Fatal("re-registered worker shows no checkpoints")
	}
}

// TestWorkerRunnerErrorFailsJob: a simulation error must travel the
// fail-loudly path end to end — the worker attaches it to the lease
// release and the coordinator fails the job. Without it the cells
// silently return to the pool and the deterministically failing range
// is re-leased (and re-failed) forever.
func TestWorkerRunnerErrorFailsJob(t *testing.T) {
	c, srv := newFabric(t, t.TempDir(), Options{LeaseCells: 4, LeaseTTL: time.Minute})
	v, err := c.Submit(testSpec(8, 1))
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("solver diverged")
	w := NewWorker(WorkerOptions{
		BaseURL:      srv.URL,
		Poll:         10 * time.Millisecond,
		ExitWhenDone: true,
		Runner: func(context.Context, sram.CellConfig, sram.Pattern, float64, uint64) (int, int, int, error) {
			return 0, 0, 0, boom
		},
	})
	runErr := w.Run(context.Background())
	if runErr == nil || !errors.Is(runErr, boom) {
		t.Fatalf("worker with failing runner returned %v, want the runner error", runErr)
	}

	jv, ok := c.Get(v.ID)
	if !ok {
		t.Fatalf("job %s vanished", v.ID)
	}
	if jv.State != jobd.StateFailed {
		t.Fatalf("job state %s after runner error, want failed", jv.State)
	}
	if !strings.Contains(jv.Error, "solver diverged") {
		t.Fatalf("job error %q does not carry the runner error", jv.Error)
	}
}

// TestWorkerDrainReleasesLease SIGTERM-drains a worker mid-lease: the
// in-flight cell finishes and checkpoints, the unfinished remainder
// returns to the pool immediately (release, not TTL steal), and Run
// returns nil.
func TestWorkerDrainReleasesLease(t *testing.T) {
	spec := testSpec(12, 1)
	c, srv := newFabric(t, t.TempDir(), Options{LeaseCells: 12, LeaseTTL: time.Minute})
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}

	var w *Worker
	var once sync.Once
	w = NewWorker(WorkerOptions{
		BaseURL:      srv.URL,
		Poll:         10 * time.Millisecond,
		ExitWhenDone: true,
		OnCheckpoint: func(string, int) { once.Do(w.Drain) },
	})
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained worker: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drained worker did not return")
	}

	st := c.Status()
	js := st.Jobs[0]
	if js.CellsDone == 0 {
		t.Fatal("drain lost the in-flight checkpoint")
	}
	if js.CellsDone >= spec.Cells {
		t.Skip("sweep finished before the drain landed; nothing to release")
	}
	if js.Leased != 0 || len(js.Leases) != 0 {
		t.Fatalf("drained worker left a lease outstanding: %+v", js)
	}
	if js.Pending != spec.Cells-js.CellsDone {
		t.Fatalf("pending %d after drain, want %d", js.Pending, spec.Cells-js.CellsDone)
	}
	if st.StealsTotal != 0 {
		t.Fatalf("graceful drain recorded a steal: %+v", st)
	}
}
