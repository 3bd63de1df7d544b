package fabric

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"samurai/internal/jobd"
	"samurai/internal/obs"
)

// eventNames records the name of every obs event emitted while it is
// the process sink.
type eventNames struct {
	mu    sync.Mutex
	names []string
}

func (e *eventNames) Emit(ev obs.Event) {
	e.mu.Lock()
	e.names = append(e.names, ev.Name)
	e.mu.Unlock()
}

func (e *eventNames) count(name string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, got := range e.names {
		if got == name {
			n++
		}
	}
	return n
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
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

// TestCancelStopsLocalAndRemoteExecutors cancels a sweep that an
// in-process executor and an HTTP worker are both leasing. Both abandon
// it without error, the job ends canceled with no checkpoint after the
// canceled record in the WAL, and the HTTP worker goes on to the next
// job.
func TestCancelStopsLocalAndRemoteExecutors(t *testing.T) {
	events := &eventNames{}
	prev := obs.SetSink(events)
	defer obs.SetSink(prev)

	path := filepath.Join(t.TempDir(), "store.jsonl")
	store, jobs, seq, err := jobd.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := jobd.New(store, jobs, seq, jobd.Options{MaxJobs: 1, LeaseCells: 2, LeaseTTL: time.Minute})
	s.Start()
	srv := httptest.NewServer(NewHandler(s))
	defer func() {
		s.Drain()
		srv.Close()
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	}()

	first, err := s.Submit(testSpec(200, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Queued behind the first, so the worker never sees an all-terminal
	// table in between and exits early.
	next, err := s.Submit(testSpec(12, 1))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	remote := map[string]int{}
	w := NewWorker(WorkerOptions{
		BaseURL:      srv.URL,
		ID:           "w-remote",
		Poll:         10 * time.Millisecond,
		ExitWhenDone: true,
		OnCheckpoint: func(job string, _ int) {
			mu.Lock()
			remote[job]++
			mu.Unlock()
		},
	})
	remoteCells := func(job string) int {
		mu.Lock()
		defer mu.Unlock()
		return remote[job]
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	waitUntil(t, "both executors to checkpoint the first job", func() bool {
		for _, ws := range s.Status().Workers {
			if ws.ID == "local-1" && ws.Cells > 0 {
				return remoteCells(first.ID) > 0
			}
		}
		return false
	})
	if err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("remote worker: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("remote worker did not finish the next job")
	}
	if v, _ := s.Get(first.ID); v.State != jobd.StateCanceled || v.CellsDone >= v.CellsTotal {
		t.Fatalf("cancelled job: %+v", v)
	}
	if v, _ := s.Get(next.ID); v.State != jobd.StateDone {
		t.Fatalf("next job is %s (%s), want done", v.State, v.Error)
	}
	if remoteCells(next.ID) == 0 {
		t.Fatal("the remote worker never picked up the next job")
	}
	if n := events.count("jobd.executor"); n != 0 {
		t.Fatalf("the in-process executor reported %d errors", n)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	canceled := false
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec struct {
			Rec   string     `json:"rec"`
			ID    string     `json:"id"`
			State jobd.State `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.ID != first.ID {
			continue
		}
		switch {
		case rec.Rec == "state" && rec.State == jobd.StateCanceled:
			canceled = true
		case rec.Rec == "cell" && canceled:
			t.Fatal("a cell record follows the canceled record in the WAL")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !canceled {
		t.Fatal("the WAL holds no canceled record")
	}
}

// TestLocalExecutorStealsFromDeadRemote: a remote worker leases cells
// and dies without ever renewing. The only other executor runs in
// process and goes idle once its own lease is done; no remote poller is
// left to reap the dead lease, so the executor itself must wake at the
// lease deadline, steal the cells and finish the job.
func TestLocalExecutorStealsFromDeadRemote(t *testing.T) {
	const ttl = 300 * time.Millisecond
	store, jobs, seq, err := jobd.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s := jobd.New(store, jobs, seq, jobd.Options{MaxJobs: 1, LeaseCells: 2, LeaseTTL: ttl})
	srv := httptest.NewServer(NewHandler(s))
	defer func() {
		s.Drain()
		srv.Close()
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	}()
	v, err := s.Submit(testSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}

	// The remote worker takes the first lease before the executor starts.
	resp, err := http.Post(srv.URL+PathLease, "application/json", strings.NewReader(`{"worker":"w-dead"}`))
	if err != nil {
		t.Fatal(err)
	}
	var grant jobd.LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if grant.Lease == 0 || grant.Hi <= grant.Lo {
		t.Fatalf("remote worker got no lease: %+v", grant)
	}
	start := time.Now()
	s.Start()

	for {
		cur, _ := s.Get(v.ID)
		if cur.State == jobd.StateDone {
			break
		}
		if time.Since(start) > ttl+15*time.Second {
			t.Fatalf("job still %s (%d/%d cells) long after the dead lease expired", cur.State, cur.CellsDone, cur.CellsTotal)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.Status(); st.StealsTotal != 1 {
		t.Fatalf("steals = %d, want 1 (the dead worker's lease)", st.StealsTotal)
	}
}

// TestWorkerRoutesRefuseLocalIDs: a remote worker cannot present the id
// of an in-process executor, so it can neither renew nor release that
// executor's leases nor merge into its metrics.
func TestWorkerRoutesRefuseLocalIDs(t *testing.T) {
	_, srv := newFabric(t, t.TempDir(), Options{})
	for path, body := range map[string]string{
		PathLease:      `{"worker":"local-1"}`,
		PathCheckpoint: `{"worker":"local-1","job":"job-000001","cells":[]}`,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s as local-1: %d, want %d", path, resp.StatusCode, http.StatusBadRequest)
		}
	}
}

// TestWorkerRoutesCapBodies: the lease and checkpoint routes share the
// job API's body cap (413) and strict decoding (400 on unknown fields).
func TestWorkerRoutesCapBodies(t *testing.T) {
	_, srv := newFabric(t, t.TempDir(), Options{})
	huge := `{"worker":"` + strings.Repeat("w", jobd.MaxBodyBytes) + `"}`
	for _, path := range []string{PathLease, PathCheckpoint} {
		for body, want := range map[string]int{
			huge:           http.StatusRequestEntityTooLarge,
			`{"bogus":1}`:  http.StatusBadRequest,
			`{"worker":1}`: http.StatusBadRequest,
		} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != want {
				t.Fatalf("POST %s with a %d-byte body: %d, want %d", path, len(body), resp.StatusCode, want)
			}
		}
	}
}
