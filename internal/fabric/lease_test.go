package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"samurai"
	"samurai/internal/device"
	"samurai/internal/jobd"
	"samurai/internal/sram"
)

// fakeClock drives lease expiry without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// newClockedCoordinator builds a coordinator on a fake clock over a
// fresh store, returning the store for restart tests.
func newClockedCoordinator(t *testing.T, clk *fakeClock, opts Options) (*Coordinator, *jobd.Store) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	store, jobs, seq, err := jobd.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//lint:ignore bareerr restart tests close the store explicitly first; the double close is benign
		store.Close()
	})
	opts.Now = clk.Now
	return New(store, jobs, seq, opts), store
}

// cellRec builds a synthetic checkpoint for protocol-level tests (no
// simulation involved).
func cellRec(i int, v float64) jobd.CellRecord {
	return jobd.CellRecord{
		Index:     i,
		VtShift:   map[string]float64{"M1": v, "M2": -v},
		TrapCount: i % 3,
	}
}

// mustLease acquires a fresh lease and fails the test on anything but
// a grant.
func mustLease(t *testing.T, c *Coordinator, worker string) jobd.LeaseResponse {
	t.Helper()
	resp, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: worker})
	if err != nil || code != http.StatusOK {
		t.Fatalf("lease: code %d, err %v", code, err)
	}
	if resp.Idle {
		t.Fatalf("expected a grant, got idle (done=%v)", resp.Done)
	}
	return resp
}

// TestLeaseRenewAfterExpiry: a renewal arriving after the TTL ran out
// gets 410 — the lease was stolen and the worker must re-acquire.
func TestLeaseRenewAfterExpiry(t *testing.T) {
	clk := newFakeClock()
	c, _ := newClockedCoordinator(t, clk, Options{LeaseCells: 4, LeaseTTL: 10 * time.Second})
	if _, err := c.Submit(testSpec(8, 1)); err != nil {
		t.Fatal(err)
	}

	grant := mustLease(t, c, "")
	if grant.Lo != 0 || grant.Hi != 4 {
		t.Fatalf("first lease [%d,%d), want [0,4)", grant.Lo, grant.Hi)
	}

	// In-TTL renewal works and extends the deadline.
	clk.Advance(8 * time.Second)
	if _, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: grant.Worker, Renew: grant.Lease}); err != nil || code != http.StatusOK {
		t.Fatalf("in-TTL renew: code %d, err %v", code, err)
	}
	clk.Advance(8 * time.Second)
	if _, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: grant.Worker, Renew: grant.Lease}); err != nil || code != http.StatusOK {
		t.Fatalf("renew after extension: code %d, err %v", code, err)
	}

	// Let it lapse: the renewal must be refused.
	clk.Advance(11 * time.Second)
	_, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: grant.Worker, Renew: grant.Lease})
	if code != http.StatusGone || err == nil {
		t.Fatalf("renew after expiry: code %d, err %v, want 410", code, err)
	}

	// The stolen range is immediately re-grantable, and the steal is on
	// the books.
	regrant := mustLease(t, c, "w-other")
	if regrant.Lo != 0 || regrant.Hi != 4 {
		t.Fatalf("re-grant [%d,%d), want the stolen [0,4)", regrant.Lo, regrant.Hi)
	}
	if st := c.Status(); st.StealsTotal != 1 || st.Jobs[0].Steals != 1 {
		t.Fatalf("steal not recorded: %+v", st)
	}
}

// TestCheckpointStolenLeaseFirstWins: a late checkpoint from the
// original holder of a stolen lease is accepted (first durable wins),
// and the thief's overlapping checkpoints become verified duplicates.
func TestCheckpointStolenLeaseFirstWins(t *testing.T) {
	clk := newFakeClock()
	c, _ := newClockedCoordinator(t, clk, Options{LeaseCells: 4, LeaseTTL: 10 * time.Second})
	if _, err := c.Submit(testSpec(4, 1)); err != nil {
		t.Fatal(err)
	}

	g1 := mustLease(t, c, "w-slow")
	clk.Advance(11 * time.Second)
	g2 := mustLease(t, c, "w-thief")
	if g2.Lo != g1.Lo || g2.Hi != g1.Hi {
		t.Fatalf("thief leased [%d,%d), want the stolen [%d,%d)", g2.Lo, g2.Hi, g1.Lo, g1.Hi)
	}

	// The slow worker's results land first — still valid, bit-wise the
	// same computation.
	resp, code, err := c.Checkpoint(jobd.CheckpointRequest{
		Worker: "w-slow", Job: g1.Job, Lease: g1.Lease,
		Cells: []jobd.CellRecord{cellRec(0, 0.25), cellRec(1, 0.5)},
	})
	if err != nil || code != http.StatusOK {
		t.Fatalf("stolen-lease checkpoint: code %d, err %v", code, err)
	}
	if resp.Accepted != 2 || resp.Duplicates != 0 {
		t.Fatalf("stolen-lease checkpoint: %+v", resp)
	}

	// The thief re-simulates the whole range; the overlap must come back
	// as bit-verified duplicates.
	resp, code, err = c.Checkpoint(jobd.CheckpointRequest{
		Worker: "w-thief", Job: g2.Job, Lease: g2.Lease,
		Cells: []jobd.CellRecord{cellRec(0, 0.25), cellRec(1, 0.5), cellRec(2, 0.75), cellRec(3, 1.0)},
	})
	if err != nil || code != http.StatusOK {
		t.Fatalf("thief checkpoint: code %d, err %v", code, err)
	}
	if resp.Accepted != 2 || resp.Duplicates != 2 {
		t.Fatalf("thief checkpoint: %+v", resp)
	}
	if resp.State != jobd.StateDone || resp.Done != 4 {
		t.Fatalf("job not completed by the thief: %+v", resp)
	}
}

// TestDuplicateCheckpointMismatchFailsLoudly: duplicate checkpoints
// whose float bits diverge are a determinism violation — 409 and the
// job fails, rather than silently merging poison.
func TestDuplicateCheckpointMismatchFailsLoudly(t *testing.T) {
	clk := newFakeClock()
	c, _ := newClockedCoordinator(t, clk, Options{LeaseCells: 4, LeaseTTL: 10 * time.Second})
	if _, err := c.Submit(testSpec(4, 1)); err != nil {
		t.Fatal(err)
	}
	g := mustLease(t, c, "w-a")

	if _, code, err := c.Checkpoint(jobd.CheckpointRequest{
		Worker: "w-a", Job: g.Job, Lease: g.Lease,
		Cells: []jobd.CellRecord{cellRec(0, 0.25)},
	}); err != nil || code != http.StatusOK {
		t.Fatalf("first checkpoint: code %d, err %v", code, err)
	}

	// Same cell, last float bit nudged: must be rejected loudly.
	bad := cellRec(0, 0.25)
	bad.VtShift["M1"] = 0.25000000000000006
	_, code, err := c.Checkpoint(jobd.CheckpointRequest{
		Worker: "w-b", Job: g.Job, Cells: []jobd.CellRecord{bad},
	})
	if code != http.StatusConflict || err == nil {
		t.Fatalf("mismatching duplicate: code %d, err %v, want 409", code, err)
	}
	if !strings.Contains(err.Error(), "determinism") {
		t.Fatalf("mismatch error does not name the violation: %v", err)
	}
	v, _ := c.Get(g.Job)
	if v.State != jobd.StateFailed {
		t.Fatalf("job state %s after determinism violation, want failed", v.State)
	}
}

// TestWorkerRegistrationReplayAfterRestart: a worker that outlives a
// coordinator restart keeps its identity — the new coordinator
// re-registers it transparently on first contact and its checkpoints
// replay from the WAL.
func TestWorkerRegistrationReplayAfterRestart(t *testing.T) {
	clk := newFakeClock()
	c, store := newClockedCoordinator(t, clk, Options{LeaseCells: 2, LeaseTTL: 10 * time.Second})
	if _, err := c.Submit(testSpec(4, 1)); err != nil {
		t.Fatal(err)
	}

	g := mustLease(t, c, "w-longlived")
	if g.Worker != "w-longlived" {
		t.Fatalf("presented id not honoured: %q", g.Worker)
	}
	if _, code, err := c.Checkpoint(jobd.CheckpointRequest{
		Worker: "w-longlived", Job: g.Job, Lease: g.Lease,
		Cells: []jobd.CellRecord{cellRec(0, 0.25), cellRec(1, 0.5)},
	}); err != nil || code != http.StatusOK {
		t.Fatalf("pre-restart checkpoint: code %d, err %v", code, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, jobs2, seq2, err := jobd.Open(store.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c2 := New(store2, jobs2, seq2, Options{LeaseCells: 2, LeaseTTL: 10 * time.Second, Now: clk.Now})

	// The worker's next acquire re-registers it under the same id and
	// hands out only the unfinished half.
	g2 := mustLease(t, c2, "w-longlived")
	if g2.Worker != "w-longlived" {
		t.Fatalf("replayed registration changed the id: %q", g2.Worker)
	}
	if g2.Lo != 2 || g2.Hi != 4 {
		t.Fatalf("post-restart lease [%d,%d), want the unfinished [2,4)", g2.Lo, g2.Hi)
	}
	resp, code, err := c2.Checkpoint(jobd.CheckpointRequest{
		Worker: "w-longlived", Job: g2.Job, Lease: g2.Lease,
		Cells: []jobd.CellRecord{cellRec(2, 0.75), cellRec(3, 1.0)},
	})
	if err != nil || code != http.StatusOK {
		t.Fatalf("post-restart checkpoint: code %d, err %v", code, err)
	}
	if resp.State != jobd.StateDone {
		t.Fatalf("job not done after restart completion: %+v", resp)
	}
	st := c2.Status()
	if len(st.Workers) != 1 || st.Workers[0].ID != "w-longlived" || st.Workers[0].Cells != 2 {
		t.Fatalf("worker roster after restart: %+v", st.Workers)
	}
}

// TestLeaseReleaseReturnsCells: an explicit release (graceful worker
// drain) returns the unfinished cells without a steal.
func TestLeaseReleaseReturnsCells(t *testing.T) {
	clk := newFakeClock()
	c, _ := newClockedCoordinator(t, clk, Options{LeaseCells: 4, LeaseTTL: 10 * time.Second})
	if _, err := c.Submit(testSpec(4, 1)); err != nil {
		t.Fatal(err)
	}
	g := mustLease(t, c, "w-a")
	if _, code, err := c.Checkpoint(jobd.CheckpointRequest{
		Worker: "w-a", Job: g.Job, Lease: g.Lease,
		Cells: []jobd.CellRecord{cellRec(0, 0.25)},
	}); err != nil || code != http.StatusOK {
		t.Fatalf("checkpoint: code %d, err %v", code, err)
	}
	if _, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-a", Release: g.Lease}); err != nil || code != http.StatusOK {
		t.Fatalf("release: code %d, err %v", code, err)
	}
	st := c.Status()
	if st.StealsTotal != 0 {
		t.Fatalf("release counted as a steal: %+v", st)
	}
	if st.Jobs[0].Pending != 3 || st.Jobs[0].Leased != 0 {
		t.Fatalf("released cells not back in the pool: %+v", st.Jobs[0])
	}
	// Releasing again is 410: the lease no longer exists.
	if _, code, _ := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-a", Release: g.Lease}); code != http.StatusGone {
		t.Fatalf("double release: code %d, want 410", code)
	}
	// The cells are immediately re-grantable.
	g2 := mustLease(t, c, "w-b")
	if g2.Lo != 1 || g2.Hi != 4 {
		t.Fatalf("re-grant [%d,%d), want [1,4)", g2.Lo, g2.Hi)
	}
}

// TestReleaseWithErrorFailsJob: a release carrying a simulation error
// fails the job — deterministic failures reproduce on every worker, so
// re-leasing forever would be a silent infinite loop.
func TestReleaseWithErrorFailsJob(t *testing.T) {
	clk := newFakeClock()
	c, _ := newClockedCoordinator(t, clk, Options{LeaseCells: 4, LeaseTTL: 10 * time.Second})
	if _, err := c.Submit(testSpec(4, 1)); err != nil {
		t.Fatal(err)
	}
	g := mustLease(t, c, "w-a")
	if _, code, err := c.Lease(context.Background(), jobd.LeaseRequest{
		Worker: "w-a", Release: g.Lease, Error: "cell 2: solver diverged",
	}); err != nil || code != http.StatusOK {
		t.Fatalf("release with error: code %d, err %v", code, err)
	}
	v, _ := c.Get(g.Job)
	if v.State != jobd.StateFailed || !strings.Contains(v.Error, "solver diverged") {
		t.Fatalf("job after failing release: state %s, error %q", v.State, v.Error)
	}
}

// TestReleaseByNonHolderRefused: only the holder may release a lease.
// A stale or confused worker gets 410 and cannot free another worker's
// live range — or, worse, fail the whole job by attaching an Error to a
// lease it never held.
func TestReleaseByNonHolderRefused(t *testing.T) {
	clk := newFakeClock()
	c, _ := newClockedCoordinator(t, clk, Options{LeaseCells: 4, LeaseTTL: 10 * time.Second})
	if _, err := c.Submit(testSpec(4, 1)); err != nil {
		t.Fatal(err)
	}
	g := mustLease(t, c, "w-holder")

	_, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-intruder", Release: g.Lease, Error: "not my lease"})
	if code != http.StatusGone || err == nil {
		t.Fatalf("foreign release: code %d, err %v, want 410", code, err)
	}

	// The lease is still live under its holder and the job unharmed.
	if _, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-holder", Renew: g.Lease}); err != nil || code != http.StatusOK {
		t.Fatalf("holder renew after foreign release: code %d, err %v", code, err)
	}
	v, _ := c.Get(g.Job)
	if v.State != jobd.StateRunning || v.Error != "" {
		t.Fatalf("job after foreign release: state %s, error %q, want running", v.State, v.Error)
	}
	if st := c.Status(); st.Jobs[0].Leased != 4 {
		t.Fatalf("foreign release freed cells: %+v", st.Jobs[0])
	}

	// The rightful holder's release still works.
	if _, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-holder", Release: g.Lease}); err != nil || code != http.StatusOK {
		t.Fatalf("holder release: code %d, err %v", code, err)
	}
}

// TestRunJobLeasesOneCell: a run job is a job of one cell. Its lease is
// [0,1), and the one checkpointed record becomes the run summary.
// Every real nominal cell probed writes cleanly, so a synthetic record
// exercises the error and slowdown mapping.
func TestRunJobLeasesOneCell(t *testing.T) {
	clk := newFakeClock()
	c, _ := newClockedCoordinator(t, clk, Options{})
	v, err := c.Submit(jobd.Spec{Type: jobd.TypeRun, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.CellsTotal != 1 {
		t.Fatalf("run job view: cells_total %d, want 1", v.CellsTotal)
	}
	g := mustLease(t, c, "w-a")
	if g.Job != v.ID || g.Lo != 0 || g.Hi != 1 {
		t.Fatalf("run job lease: job %s [%d,%d), want %s [0,1)", g.Job, g.Lo, g.Hi, v.ID)
	}
	if resp, _, _ := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-b"}); !resp.Idle || resp.Done {
		t.Fatalf("second lease while the one cell is out: %+v", resp)
	}
	cp, code, err := c.Checkpoint(jobd.CheckpointRequest{
		Worker: "w-a", Job: g.Job, Lease: g.Lease,
		Cells: []jobd.CellRecord{{Index: 0, Errors: 2, Slow: 1, TrapCount: 5, Failed: true}},
	})
	if err != nil || code != http.StatusOK || cp.State != jobd.StateDone {
		t.Fatalf("checkpoint: %+v code %d err %v", cp, code, err)
	}
	v, _ = c.Get(v.ID)
	if want := (jobd.Summary{WriteErrors: 2, Slowdowns: 1, Traps: 5}); v.Result == nil || *v.Result != want {
		t.Fatalf("run summary %+v, want %+v", v.Result, want)
	}
}

// TestCancelledRunJobLeaseGone: cancelling a run job that is out on
// lease moves it to canceled at once and voids the lease, so the
// holder's next renewal answers 410.
func TestCancelledRunJobLeaseGone(t *testing.T) {
	clk := newFakeClock()
	c, _ := newClockedCoordinator(t, clk, Options{})
	v, err := c.Submit(jobd.Spec{Type: jobd.TypeRun, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := mustLease(t, c, "w-a")
	if err := c.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get(v.ID); v.State != jobd.StateCanceled {
		t.Fatalf("cancelled run job is %s, want canceled", v.State)
	}
	if _, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-a", Renew: g.Lease}); err == nil || code != http.StatusGone {
		t.Fatalf("renew after cancel: code %d, err %v, want 410", code, err)
	}
}

// runSummary is a run job's summary computed without jobd: samurai.RunCtx
// on the default spec's nominal cell (90 nm at its nominal supply, the
// Fig 8 pattern, scale 1) at the seed.
func runSummary(t *testing.T, seed uint64) jobd.Summary {
	t.Helper()
	tech := device.Node("90nm")
	res, err := samurai.RunCtx(context.Background(), samurai.Config{
		Tech:    tech,
		Cell:    sram.CellConfig{Tech: tech, Vdd: tech.Vdd},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Seed:    seed,
		Scale:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	traps := 0
	for _, p := range res.Profiles {
		traps += len(p.Traps)
	}
	return jobd.Summary{WriteErrors: res.WithRTN.NumError, Slowdowns: res.WithRTN.NumSlow, Traps: traps}
}

// assertRunJobDone runs one HTTP worker until every job is terminal and
// checks the run job's /result: the summary samurai.RunCtx gives at the
// seed, and its one cell record.
func assertRunJobDone(t *testing.T, url, id string, seed uint64) {
	t.Helper()
	w := NewWorker(WorkerOptions{BaseURL: url, Poll: 10 * time.Millisecond, ExitWhenDone: true})
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	resp, err := http.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Summary *jobd.Summary     `json:"summary"`
		Cells   []jobd.CellRecord `json:"cells"`
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, err %v", resp.StatusCode, err)
	}
	want := runSummary(t, seed)
	if res.Summary == nil || *res.Summary != want {
		t.Fatalf("run job summary %+v, want samurai.RunCtx's %+v", res.Summary, want)
	}
	if len(res.Cells) != 1 || res.Cells[0].Index != 0 || res.Cells[0].TrapCount != want.Traps || len(res.Cells[0].VtShift) != 0 {
		t.Fatalf("run job cells %+v, want one nominal cell with %d traps", res.Cells, want.Traps)
	}
}

// TestWorkerRunsSubmittedRunJob: a coordinator accepts a run job, and an
// HTTP worker runs it as a one-cell lease.
func TestWorkerRunsSubmittedRunJob(t *testing.T) {
	c, srv := newFabric(t, t.TempDir(), Options{LeaseTTL: time.Minute})
	v, err := c.Submit(jobd.Spec{Type: jobd.TypeRun, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertRunJobDone(t, srv.URL, v.ID, 3)
}

// TestWorkerRunsReplayedRunJob: a queued run job left in the WAL is
// leased after a coordinator starts over it, not failed.
func TestWorkerRunsReplayedRunJob(t *testing.T) {
	dir := t.TempDir()
	store, _, _, err := jobd.Open(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	j := &jobd.Job{ID: "job-000001", Seq: 1, Spec: jobd.Spec{Type: jobd.TypeRun, Seed: 7}, State: jobd.StateQueued}
	if err := store.AppendJob(j); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	c, srv := newFabric(t, dir, Options{LeaseTTL: time.Minute})
	if v, ok := c.Get("job-000001"); !ok || v.State != jobd.StateQueued {
		t.Fatalf("replayed run job: %+v", v)
	}
	assertRunJobDone(t, srv.URL, "job-000001", 7)
}

// TestDrainStopsLeasingAcceptsCheckpoints: after Drain, no new leases
// go out but outstanding workers still flush their checkpoints.
func TestDrainStopsLeasingAcceptsCheckpoints(t *testing.T) {
	clk := newFakeClock()
	c, _ := newClockedCoordinator(t, clk, Options{LeaseCells: 2, LeaseTTL: 10 * time.Second})
	if _, err := c.Submit(testSpec(4, 1)); err != nil {
		t.Fatal(err)
	}
	g := mustLease(t, c, "w-a")
	c.Drain()

	resp, code, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-b"})
	if err != nil || code != http.StatusOK || !resp.Idle || !resp.Done {
		t.Fatalf("lease while draining: %+v code %d err %v", resp, code, err)
	}
	if _, err := c.Submit(testSpec(4, 1)); err == nil {
		t.Fatal("submission accepted while draining")
	}
	cp, code, err := c.Checkpoint(jobd.CheckpointRequest{
		Worker: "w-a", Job: g.Job, Lease: g.Lease,
		Cells: []jobd.CellRecord{cellRec(0, 0.25), cellRec(1, 0.5)},
	})
	if err != nil || code != http.StatusOK || cp.Accepted != 2 {
		t.Fatalf("checkpoint while draining: %+v code %d err %v", cp, code, err)
	}
}
