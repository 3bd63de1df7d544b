package jobd

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"samurai"
	"samurai/internal/montecarlo"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// arraySpec is a real-but-cheap sweep: variation-only (no RTN pass), so
// each cell is a single clean transient.
func arraySpec(cells int) Spec {
	withRTN := false
	return Spec{Type: TypeArray, Seed: 1234, Cells: cells, WithRTN: &withRTN, Workers: 2}
}

// directBaseline runs the spec's sweep uninterrupted, without any jobd
// machinery — the golden reference.
func directBaseline(t *testing.T, spec Spec) *montecarlo.ArrayResult {
	t.Helper()
	cfg, err := spec.ArrayConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := montecarlo.RunArrayCtx(context.Background(), cfg, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertCellsMatchBaseline compares a job's checkpointed cells against
// the baseline outcomes bit-for-bit.
func assertCellsMatchBaseline(t *testing.T, cells []CellRecord, baseline *montecarlo.ArrayResult) {
	t.Helper()
	if len(cells) != len(baseline.Outcomes) {
		t.Fatalf("job checkpointed %d cells, baseline has %d", len(cells), len(baseline.Outcomes))
	}
	for i, c := range cells {
		want := baseline.Outcomes[i]
		if c.Index != want.Index || c.TrapCount != want.TrapCount ||
			c.Errors != want.Errors || c.Slow != want.Slow || c.Failed != want.Failed {
			t.Fatalf("cell %d differs from baseline: got %+v want %+v", i, c, want)
		}
		for k, wv := range want.VtShift {
			if math.Float64bits(c.VtShift[k]) != math.Float64bits(wv) {
				t.Fatalf("cell %d VtShift[%q] not bit-identical after store round trip", i, k)
			}
		}
	}
}

// TestSchedulerDrainResumeBitIdentical is the end-to-end resume golden
// test: a sweep is interrupted by a graceful drain (the SIGTERM path),
// the store is reopened in a "new process", the job resumes from its
// checkpoints, and the final per-cell results are bit-identical to an
// uninterrupted run of the same spec.
func TestSchedulerDrainResumeBitIdentical(t *testing.T) {
	spec := arraySpec(8)
	baseline := directBaseline(t, spec)

	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, jobs, seq := mustOpen(t, path)
	s := New(st, jobs, seq, Options{MaxJobs: 1})
	s.Start()
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let some cells checkpoint, then drain mid-sweep.
	waitFor(t, "first checkpoints", func() bool {
		cur, _ := s.Get(v.ID)
		return cur.CellsDone >= 2
	})
	s.Drain()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	mid, _ := s.Get(v.ID)
	if mid.State == StateDone {
		// The sweep beat the drain; determinism is still checked below,
		// but the resume path wasn't exercised — make the race visible.
		t.Log("sweep finished before drain; resume path not hit this run")
	} else if mid.State != StateQueued {
		t.Fatalf("drained job is %s, want queued", mid.State)
	}

	// "Restart": replay the store into a fresh scheduler.
	st2, replayed, seq2 := mustOpen(t, path)
	if len(replayed) != 1 {
		t.Fatalf("replayed %d jobs", len(replayed))
	}
	s2 := New(st2, replayed, seq2, Options{MaxJobs: 1})
	s2.Start()
	defer s2.Drain()

	waitFor(t, "resumed job to finish", func() bool {
		cur, ok := s2.Get(v.ID)
		return ok && cur.State == StateDone
	})
	cur, _ := s2.Get(v.ID)
	if mid.State == StateQueued && cur.Resumes != 1 {
		t.Fatalf("resume count = %d, want 1", cur.Resumes)
	}

	cells, _ := s2.CellRecords(v.ID)
	assertCellsMatchBaseline(t, cells, baseline)
	if cur.Result == nil {
		t.Fatal("finished job has no result")
	}
	if cur.Result.NumFailed != baseline.NumFailed ||
		cur.Result.ErrorRate != baseline.ErrorRate ||
		cur.Result.MeanTraps != baseline.MeanTraps {
		t.Fatalf("aggregates differ from baseline: %+v vs {%d %g %g}",
			cur.Result, baseline.NumFailed, baseline.ErrorRate, baseline.MeanTraps)
	}
}

// TestSchedulerRepeatedKillsStayBitIdentical drains repeatedly — every
// restart interrupts the sweep again at a different depth — and the
// final result must still match the uninterrupted baseline exactly.
func TestSchedulerRepeatedKillsStayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-restart sweep is not short")
	}
	spec := arraySpec(10)
	baseline := directBaseline(t, spec)
	path := filepath.Join(t.TempDir(), "store.jsonl")

	st, jobs, seq := mustOpen(t, path)
	s := New(st, jobs, seq, Options{MaxJobs: 1})
	s.Start()
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := v.ID

	for restart := 0; restart < 4; restart++ {
		cur, ok := s.Get(id)
		if !ok {
			t.Fatalf("restart %d lost job %s", restart, id)
		}
		if cur.State == StateDone {
			break
		}
		// Interrupt once at least one more cell has checkpointed.
		progressed := cur.CellsDone
		waitFor(t, "one more checkpoint or done", func() bool {
			c, _ := s.Get(id)
			return c.State == StateDone || c.CellsDone > progressed
		})
		s.Drain()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, jobs, seq = mustOpen(t, path)
		s = New(st, jobs, seq, Options{MaxJobs: 1})
		s.Start()
	}
	defer s.Drain()
	waitFor(t, "job to finish across restarts", func() bool {
		c, ok := s.Get(id)
		return ok && c.State == StateDone
	})
	cells, _ := s.CellRecords(id)
	assertCellsMatchBaseline(t, cells, baseline)
}

func TestSchedulerCancelQueuedJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, jobs, seq := mustOpen(t, path)
	// No Start: the job stays queued forever, so Cancel hits the queued
	// branch deterministically.
	s := New(st, jobs, seq, Options{})
	v, err := s.Submit(arraySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	cur, _ := s.Get(v.ID)
	if cur.State != StateCanceled {
		t.Fatalf("state %s, want canceled", cur.State)
	}
	if err := s.Cancel(v.ID); err == nil {
		t.Fatal("second cancel accepted")
	}
}

func TestSchedulerRejectsBadSpecs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, jobs, seq := mustOpen(t, path)
	s := New(st, jobs, seq, Options{})
	bad := []Spec{
		{Type: "mystery"},
		{Type: TypeArray, Cells: 0},
		{Type: TypeRun, Cells: 5},
		{Type: TypeArray, Cells: 2, Tech: "7nm"},
		{Type: TypeArray, Cells: 2, Pattern: "01x1"},
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Fatalf("spec %+v accepted", spec)
		}
	}
}

// TestSpecValidateRejectsNonFinite: JSON carries no NaN or Inf, so such
// a float reaches a spec only through the Go API. Validate refuses it,
// before the WAL encoder would fail on it and count a store error.
func TestSpecValidateRejectsNonFinite(t *testing.T) {
	st, jobs, seq := mustOpen(t, filepath.Join(t.TempDir(), "store.jsonl"))
	s := New(st, jobs, seq, Options{MaxJobs: -1})
	before := mStoreErrors.Value()
	for _, spec := range []Spec{
		{Type: TypeArray, Cells: 2, Scale: math.Inf(1)},
		{Type: TypeArray, Cells: 2, Scale: math.NaN()},
		{Type: TypeArray, Cells: 2, VddFrac: math.NaN()},
		{Type: TypeRareArray, Cells: 2, TiltEV: math.NaN()},
	} {
		if err := spec.withDefaults().Validate(); err == nil {
			t.Errorf("Validate accepted %+v", spec)
		}
		if _, err := spec.ArrayConfig(); err == nil {
			t.Errorf("ArrayConfig accepted %+v", spec)
		}
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit accepted %+v", spec)
		}
	}
	if got := mStoreErrors.Value(); got != before {
		t.Fatalf("store errors %d → %d: a non-finite spec reached the WAL encoder", before, got)
	}
}

// TestSpecValidateRefusesOversize: a spec above a size limit is refused
// with an error naming the field, and one at every limit is accepted.
// Validate only: nothing here runs a job of that size.
func TestSpecValidateRefusesOversize(t *testing.T) {
	over := map[string]Spec{
		"cells":                {Type: TypeArray, Cells: MaxCells + 1},
		"workers":              {Type: TypeArray, Cells: 2, Workers: MaxWorkers + 1},
		"pattern":              {Type: TypeArray, Cells: 2, Pattern: strings.Repeat("01", MaxPatternBits/2+1)},
		"retry.max":            {Type: TypeArray, Cells: 2, Retry: RetrySpec{Max: MaxCellRetries + 1}},
		"retry.backoff_ms":     {Type: TypeArray, Cells: 2, Retry: RetrySpec{BackoffMS: MaxRetryBackoffMS + 1}},
		"retry.max_backoff_ms": {Type: TypeRun, Retry: RetrySpec{MaxBackoffMS: MaxRetryBackoffMS + 1}},
	}
	for field, spec := range over {
		err := spec.withDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), field+" ") {
			t.Errorf("%s over its limit: Validate returned %v, want an error naming %s", field, err, field)
		}
	}
	at := Spec{
		Type: TypeRareArray, Cells: MaxCells, Workers: MaxWorkers,
		Pattern: strings.Repeat("1", MaxPatternBits),
		Retry:   RetrySpec{Max: MaxCellRetries, BackoffMS: MaxRetryBackoffMS, MaxBackoffMS: MaxRetryBackoffMS},
	}
	if err := at.withDefaults().Validate(); err != nil {
		t.Fatalf("a spec at every limit refused: %v", err)
	}
}

func TestSchedulerSubmitAfterDrainRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, jobs, seq := mustOpen(t, path)
	s := New(st, jobs, seq, Options{})
	s.Start()
	s.Drain()
	if _, err := s.Submit(arraySpec(2)); err != ErrDraining {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
}
