package fabric

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"samurai/internal/jobd"
	"samurai/internal/montecarlo"
	"samurai/internal/obs"
	"samurai/internal/rng"
	"samurai/internal/sram"
)

// rareTestSpec is the canonical fabric rare sweep: small, tilted, and
// executed by the stub runner below so the test exercises the merge
// protocol rather than the circuit solver.
func rareTestSpec(cells, workers int) jobd.Spec {
	return jobd.Spec{
		Type:    jobd.TypeRareArray,
		Seed:    1234,
		Cells:   cells,
		Workers: workers,
		TiltEV:  -0.1,
	}
}

// stubRareRunner is a pure function of (seed, tiltEV) — the property
// the production samurai.RareArrayRunnerCtx has — cheap enough to shard
// across many workers in a unit test.
func stubRareRunner(_ context.Context, _ sram.CellConfig, _ sram.Pattern, _, tiltEV float64, seed uint64) (int, int, int, float64, float64, error) {
	r := rng.New(seed)
	u := r.Float64()
	errs := 0
	if u > 0.8 {
		errs = 1
	}
	return errs, int(seed % 3), int(seed % 7), tiltEV * (u - 0.5), 1.25 * u, nil
}

// TestFabricRareMergeBitIdentical: two workers splitting one rare_array
// job over the lease protocol merge to records and a weighted summary
// bit-identical to a single-node RunArrayCtx of the same spec — the
// fabric extension of montecarlo's TestRareSweepSubsetMerge.
func TestFabricRareMergeBitIdentical(t *testing.T) {
	spec := rareTestSpec(24, 2)
	cfg, err := spec.ArrayConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := montecarlo.RunArrayCtx(context.Background(), cfg, nil, montecarlo.ArrayOptions{
		RareEvent: &montecarlo.RareEventSpec{TiltEV: spec.TiltEV, Runner: stubRareRunner},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Outcomes

	c, srv := newFabric(t, t.TempDir(), Options{LeaseCells: 5, LeaseTTL: time.Minute})
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	const nWorkers = 2
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
				RareRunner:   stubRareRunner,
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

	got, _ := c.CellRecords(v.ID)
	if len(got) != len(want) {
		t.Fatalf("merged %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("cell %d not bit-identical to single-node run:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	fv, _ := c.Get(v.ID)
	if fv.State != jobd.StateDone {
		t.Fatalf("job is %s (%s), want done", fv.State, fv.Error)
	}
	if fv.Result == nil || fv.Result.Rare == nil {
		t.Fatalf("done rare job has no weighted summary: %+v", fv.Result)
	}
	g, w := fv.Result.Rare, res.Rare
	if g.N != w.N ||
		math.Float64bits(g.TiltEV) != math.Float64bits(w.TiltEV) ||
		math.Float64bits(g.PFail) != math.Float64bits(w.PFail) ||
		math.Float64bits(g.ESS) != math.Float64bits(w.ESS) ||
		math.Float64bits(g.LRVar) != math.Float64bits(w.LRVar) ||
		math.Float64bits(g.CIHalf) != math.Float64bits(w.CIHalf) {
		t.Fatalf("fabric rare summary not bit-identical:\n got %+v\nwant %+v", g, w)
	}
	if fv.Result.NumFailed != res.NumFailed ||
		math.Float64bits(fv.Result.ErrorRate) != math.Float64bits(res.ErrorRate) {
		t.Fatalf("fabric counts differ: %+v vs %d/%g", fv.Result, res.NumFailed, res.ErrorRate)
	}
}

// TestFabricRareDuplicateMismatchCaught: a duplicate checkpoint whose
// log-LR diverges by one ulp is a determinism violation the coordinator
// must fail loudly — the rare fields are part of the bit-comparison.
func TestFabricRareDuplicateMismatchCaught(t *testing.T) {
	spec := rareTestSpec(4, 1)
	c, srv := newFabric(t, t.TempDir(), Options{LeaseCells: 8, LeaseTTL: time.Minute})
	_ = srv
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	grant, code, err := c.Lease(context.Background(), jobd.LeaseRequest{})
	if err != nil || code != 200 || grant.Idle {
		t.Fatalf("lease: %v (code %d, idle %v)", err, code, grant.Idle)
	}
	rec := jobd.CellRecord{Index: 0, LogLR: 0.25, GlitchDepth: 0.5}
	if _, code, err := c.Checkpoint(jobd.CheckpointRequest{Worker: grant.Worker, Job: v.ID, Lease: grant.Lease, Cells: []jobd.CellRecord{rec}}); err != nil || code != 200 {
		t.Fatalf("first checkpoint: %v (code %d)", err, code)
	}
	twisted := rec
	twisted.LogLR = math.Nextafter(rec.LogLR, 1)
	if _, code, _ := c.Checkpoint(jobd.CheckpointRequest{Worker: grant.Worker, Job: v.ID, Lease: grant.Lease, Cells: []jobd.CellRecord{twisted}}); code != 409 {
		t.Fatalf("diverging duplicate log-LR accepted (code %d)", code)
	}
	fv, _ := c.Get(v.ID)
	if fv.State != jobd.StateFailed {
		t.Fatalf("job is %s after a determinism violation, want failed", fv.State)
	}
}

// TestFabricRareSeriesCountEachJobOnce: the samurai_rare_* series are
// published once per job, by the scheduler's summary, never by a lease.
// A plain job adds nothing to the path counter, a rare_array job adds
// exactly its cell count, and the ESS gauge then holds that job's ESS.
func TestFabricRareSeriesCountEachJobOnce(t *testing.T) {
	paths := obs.GetCounter("samurai_rare_paths_total", "")
	ess := obs.GetGauge("samurai_rare_ess", "")
	c, srv := newFabric(t, t.TempDir(), Options{LeaseCells: 5, LeaseTTL: time.Minute})
	plain := func(_ context.Context, _ sram.CellConfig, _ sram.Pattern, _ float64, seed uint64) (int, int, int, error) {
		return int(seed % 2), int(seed % 3), int(seed % 7), nil
	}
	const cells = 24
	for _, spec := range []jobd.Spec{
		{Type: jobd.TypeArray, Seed: 99, Cells: cells, Workers: 1},
		rareTestSpec(cells, 1),
	} {
		before := paths.Value()
		v, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(WorkerOptions{
			BaseURL: srv.URL, Poll: 10 * time.Millisecond, ExitWhenDone: true,
			Runner: plain, RareRunner: stubRareRunner,
		})
		if err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		fv, _ := c.Get(v.ID)
		if fv.State != jobd.StateDone {
			t.Fatalf("%s job is %s (%s), want done", spec.Type, fv.State, fv.Error)
		}
		added := paths.Value() - before
		if spec.Type == jobd.TypeArray {
			if added != 0 {
				t.Fatalf("plain %d-cell job added %d rare-event paths, want 0", cells, added)
			}
			continue
		}
		if added != cells {
			t.Fatalf("rare_array %d-cell job added %d rare-event paths, want %d", cells, added, cells)
		}
		if got, want := ess.Value(), fv.Result.Rare.ESS; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("samurai_rare_ess = %g after the job, want its ESS %g", got, want)
		}
	}
}
