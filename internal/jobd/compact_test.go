package jobd

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// flapStore builds a WAL whose job cycled through many drain/resume
// transitions — the record shape a long-lived coordinator accumulates —
// plus a second, terminal job with a result.
func flapStore(t *testing.T, path string) {
	t.Helper()
	st, jobs, seq := mustOpen(t, path)
	if len(jobs) != 0 || seq != 0 {
		t.Fatalf("fresh store replayed %d jobs, seq %d", len(jobs), seq)
	}
	j1 := &Job{ID: "job-000001", Seq: 1, Spec: arraySpec(4), State: StateQueued, cells: map[int]CellRecord{}}
	j1.CellsTotal = 4
	if err := st.AppendJob(j1); err != nil {
		t.Fatal(err)
	}
	// Ten drain/resume cycles: 20 state records that compaction folds away.
	for i := 0; i < 10; i++ {
		if err := st.AppendState(j1.ID, StateRunning, ""); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendState(j1.ID, StateQueued, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		rec := CellRecord{Index: i, TrapCount: i, VtShift: map[string]float64{"M1": 0.001 * float64(i+1)}}
		if err := st.AppendCell(j1.ID, rec); err != nil {
			t.Fatal(err)
		}
	}

	j2 := &Job{ID: "job-000002", Seq: 2, Spec: arraySpec(1), State: StateQueued, cells: map[int]CellRecord{}}
	j2.CellsTotal = 1
	if err := st.AppendJob(j2); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCell(j2.ID, CellRecord{Index: 0, VtShift: map[string]float64{"M2": -0.004}}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResult(j2.ID, Summary{NumFailed: 0, ErrorRate: 0, MeanTraps: 2.5}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendState(j2.ID, StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertSameTable compares two replayed job tables field by field, with
// the float64 cell payloads compared as raw bits.
func assertSameTable(t *testing.T, got, want []*Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		gv, wv := g.view(), w.view()
		if gv.ID != wv.ID || gv.State != wv.State || gv.Error != wv.Error ||
			gv.CellsDone != wv.CellsDone || gv.CellsTotal != wv.CellsTotal {
			t.Fatalf("job %d view differs: got %+v want %+v", i, gv, wv)
		}
		if g.Seq != w.Seq {
			t.Fatalf("job %s seq %d, want %d", gv.ID, g.Seq, w.Seq)
		}
		if (g.Result == nil) != (w.Result == nil) {
			t.Fatalf("job %s result presence differs", gv.ID)
		}
		if w.Result != nil && *g.Result != *w.Result {
			t.Fatalf("job %s result %+v, want %+v", gv.ID, *g.Result, *w.Result)
		}
		gc, wc := g.Records(), w.Records()
		if len(gc) != len(wc) {
			t.Fatalf("job %s has %d cells, want %d", gv.ID, len(gc), len(wc))
		}
		for k := range wc {
			if gc[k].Index != wc[k].Index || gc[k].TrapCount != wc[k].TrapCount ||
				gc[k].Errors != wc[k].Errors || gc[k].Slow != wc[k].Slow || gc[k].Failed != wc[k].Failed {
				t.Fatalf("job %s cell %d differs: %+v vs %+v", gv.ID, k, gc[k], wc[k])
			}
			for key, want := range wc[k].VtShift {
				if math.Float64bits(gc[k].VtShift[key]) != math.Float64bits(want) {
					t.Fatalf("job %s cell %d VtShift[%q] not bit-identical", gv.ID, k, key)
				}
			}
		}
	}
}

// TestCompactReplayEquivalent proves the headline compaction property:
// the snapshot replays into exactly the same job table as the full log,
// is strictly smaller for a log with redundant history, and stays
// appendable afterwards.
func TestCompactReplayEquivalent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	flapStore(t, path)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	st, jobs, seq := mustOpen(t, path)
	if err := st.Compact(jobs); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction grew the log: %d -> %d bytes", before.Size(), after.Size())
	}

	// Appends after compaction must land in the compacted file.
	if err := st.AppendState("job-000001", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCell("job-000001", CellRecord{Index: 3, VtShift: map[string]float64{"M1": 0.25}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, jobs2, seq2 := mustOpen(t, path)
	defer st2.Close()
	if seq2 != seq {
		t.Fatalf("max seq %d after compaction, want %d", seq2, seq)
	}
	if len(jobs2) != 2 {
		t.Fatalf("replayed %d jobs after compaction", len(jobs2))
	}
	// job-000001 took the two post-compaction appends: back to queued
	// (running is normalized on replay) with a fourth cell.
	if jobs2[0].Done() != 4 {
		t.Fatalf("job-000001 has %d cells after post-compaction append, want 4", jobs2[0].Done())
	}
	if jobs2[0].State != StateQueued {
		t.Fatalf("job-000001 state %s, want queued", jobs2[0].State)
	}
	if jobs2[1].State != StateDone || jobs2[1].Result == nil {
		t.Fatalf("job-000002 lost its terminal state or result: %+v", jobs2[1].view())
	}
}

// TestCompactThenReplayIdentical compacts and immediately replays,
// asserting the table is identical to the pre-compaction one.
func TestCompactThenReplayIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	flapStore(t, path)

	st, jobs, _ := mustOpen(t, path)
	if err := st.Compact(jobs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, jobs2, _ := mustOpen(t, path)
	defer st2.Close()
	assertSameTable(t, jobs2, jobs)

	// Compaction is idempotent: a second pass replays identically again.
	if err := st2.Compact(jobs2); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, jobs3, _ := mustOpen(t, path)
	defer st3.Close()
	assertSameTable(t, jobs3, jobs)
}

// TestCompactTornTail crashes mid-append after a compaction: the torn
// final line must be truncated on reopen exactly as on a fresh log.
func TestCompactTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	flapStore(t, path)
	st, jobs, _ := mustOpen(t, path)
	if err := st.Compact(jobs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"rec":"cell","id":"job-000001","cell":{"index":3,"vt_shift":{"M1":0.1`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, jobs2, _ := mustOpen(t, path)
	defer st2.Close()
	if jobs2[0].Done() != 3 {
		t.Fatalf("torn cell record survived replay: %d cells", jobs2[0].Done())
	}
	assertSameTable(t, jobs2, jobs)
}

// TestCompactClosedStore rejects compaction after Close.
func TestCompactClosedStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, jobs, _ := mustOpen(t, path)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(jobs); err == nil {
		t.Fatal("compaction of a closed store accepted")
	}
}
