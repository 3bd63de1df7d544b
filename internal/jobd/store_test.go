package jobd

import (
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samurai/internal/montecarlo"
)

func testSpec() Spec {
	withRTN := false
	return Spec{Type: TypeArray, Seed: 7, Cells: 8, WithRTN: &withRTN}.withDefaults()
}

func mustOpen(t *testing.T, path string) (*Store, []*Job, uint64) {
	t.Helper()
	st, jobs, seq, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//lint:ignore bareerr double-close in cleanup is fine; Close is idempotent
		st.Close()
	})
	return st, jobs, seq
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, jobs, seq := mustOpen(t, path)
	if len(jobs) != 0 || seq != 0 {
		t.Fatalf("fresh store replayed %d jobs, seq %d", len(jobs), seq)
	}
	j := &Job{ID: "job-000001", Seq: 1, Spec: testSpec(), State: StateQueued, cells: map[int]CellRecord{}}
	if err := st.AppendJob(j); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendState(j.ID, StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	// Bit-exactness: these floats exercise the shortest-representation
	// round trip (subnormal, negative, many digits).
	rec := CellRecord{
		Index: 3,
		VtShift: map[string]float64{
			"M1": 0.012345678901234567,
			"M2": -1.7976931348623157e+308,
			"M3": 5e-324,
		},
		TrapCount: 4, Errors: 1, Slow: 2, Failed: true,
	}
	if err := st.AppendCell(j.ID, rec); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendState(j.ID, StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResult(j.ID, Summary{NumFailed: 1, ErrorRate: 0.125, MeanTraps: 3.5}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, maxSeq := mustOpen(t, path)
	if len(replayed) != 1 || maxSeq != 1 {
		t.Fatalf("replayed %d jobs, seq %d", len(replayed), maxSeq)
	}
	got := replayed[0]
	if got.State != StateDone || got.ID != j.ID || got.Seq != 1 {
		t.Fatalf("replayed job %+v", got)
	}
	if got.Result == nil || got.Result.NumFailed != 1 || got.Result.ErrorRate != 0.125 {
		t.Fatalf("replayed result %+v", got.Result)
	}
	cells := got.Records()
	if len(cells) != 1 {
		t.Fatalf("replayed %d cells", len(cells))
	}
	for k, want := range rec.VtShift {
		if gotBits, wantBits := math.Float64bits(cells[0].VtShift[k]), math.Float64bits(want); gotBits != wantBits {
			t.Fatalf("VtShift[%q] round-tripped %x, want %x", k, gotBits, wantBits)
		}
	}
}

func TestStoreRunningJobReplaysAsQueued(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, _, _ := mustOpen(t, path)
	j := &Job{ID: "job-000001", Seq: 1, Spec: testSpec(), State: StateQueued, cells: map[int]CellRecord{}}
	if err := st.AppendJob(j); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendState(j.ID, StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCell(j.ID, CellRecord{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, _ := mustOpen(t, path)
	if len(replayed) != 1 {
		t.Fatalf("replayed %d jobs", len(replayed))
	}
	if replayed[0].State != StateQueued {
		t.Fatalf("crashed running job replayed as %s, want queued", replayed[0].State)
	}
	if replayed[0].Done() != 1 {
		t.Fatalf("checkpointed cells lost: %d", replayed[0].Done())
	}
}

// TestReplayedJobWithLostResultFinishes: a crash between the last
// checkpoint's fsync and the result append leaves every cell durable
// and no result record. The scheduler built over that WAL finishes the
// job with the summary its records give, instead of holding it queued
// with nothing left to lease.
func TestReplayedJobWithLostResultFinishes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	wal := walLines(
		`{"rec":"job","id":"job-000001","seq":1,"spec":{"type":"array","seed":7,"cells":2}}`,
		`{"rec":"state","id":"job-000001","state":"running"}`,
		`{"rec":"cell","id":"job-000001","cell":{"index":0,"trap_count":3,"errors":1,"slow":0,"failed":true}}`,
		`{"rec":"cell","id":"job-000001","cell":{"index":1,"trap_count":2,"errors":0,"slow":1,"failed":false}}`,
	)
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	want := Summary{NumFailed: 1, ErrorRate: 0.5, MeanTraps: 2.5}
	st, jobs, seq := mustOpen(t, path)
	s := New(st, jobs, seq, Options{MaxJobs: -1})
	if v, _ := s.Get("job-000001"); v.State != StateDone || v.Result == nil || *v.Result != want {
		t.Fatalf("replayed job: %s with %+v, want done with %+v", v.State, v.Result, want)
	}
	resp, code, err := s.Lease(LeaseRequest{})
	if err != nil || code != http.StatusOK || !resp.Idle || !resp.Done {
		t.Fatalf("lease over the finished table: %+v code %d err %v", resp, code, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The summary is durable: the next replay reads the job back done.
	_, jobs, _ = mustOpen(t, path)
	if jobs[0].State != StateDone || jobs[0].Result == nil || *jobs[0].Result != want {
		t.Fatalf("second replay: %s with %+v, want done with %+v", jobs[0].State, jobs[0].Result, want)
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, _, _ := mustOpen(t, path)
	j := &Job{ID: "job-000001", Seq: 1, Spec: testSpec(), State: StateQueued, cells: map[int]CellRecord{}}
	if err := st.AppendJob(j); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCell(j.ID, CellRecord{Index: 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, newline-less fragment.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"rec":"cell","id":"job-000001","cell":{"index":`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, replayed, _ := mustOpen(t, path)
	if len(replayed) != 1 || replayed[0].Done() != 1 {
		t.Fatalf("torn tail corrupted replay: %d jobs, %d cells", len(replayed), replayed[0].Done())
	}
	// The tail was truncated, so a fresh append starts a clean record.
	if err := st2.AppendCell(j.ID, CellRecord{Index: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, replayed3, _ := mustOpen(t, path)
	if replayed3[0].Done() != 2 {
		t.Fatalf("post-truncation append lost: %d cells", replayed3[0].Done())
	}
}

func TestStoreRejectsCorruptRecords(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"bad json", "{nope}\n"},
		{"unknown kind", `{"rec":"mystery","id":"x"}` + "\n"},
		{"state for unknown job", `{"rec":"state","id":"ghost","state":"done"}` + "\n"},
		{"unknown state", `{"rec":"job","id":"a","seq":1,"spec":{"type":"run"}}` + "\n" + `{"rec":"state","id":"a","state":"limbo"}` + "\n"},
		{"duplicate job", `{"rec":"job","id":"a","seq":1,"spec":{"type":"run"}}` + "\n" + `{"rec":"job","id":"a","seq":2,"spec":{"type":"run"}}` + "\n"},
		{"cell out of range", `{"rec":"job","id":"a","seq":1,"spec":{"type":"array","cells":2,"seed":1}}` + "\n" + `{"rec":"cell","id":"a","cell":{"index":7}}` + "\n"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := os.WriteFile(path, []byte(c.line), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Open(path); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

func TestStoreRejectsNonFiniteShifts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, _, _ := mustOpen(t, path)
	j := &Job{ID: "job-000001", Seq: 1, Spec: testSpec(), State: StateQueued, cells: map[int]CellRecord{}}
	if err := st.AppendJob(j); err != nil {
		t.Fatal(err)
	}
	bad := CellRecord{Index: 0, VtShift: map[string]float64{"M1": math.NaN()}}
	if err := st.AppendCell(j.ID, bad); err == nil || !strings.Contains(err.Error(), "not JSON-representable") {
		t.Fatalf("NaN shift accepted: %v", err)
	}
}

func TestNewCellRecordPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for errored outcome")
		}
	}()
	NewCellRecord(montecarlo.CellOutcome{Index: 0, Err: os.ErrClosed})
}
