package fabric

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"samurai/internal/jobd"
	"samurai/internal/sram"
)

// Tests of the held acquire (the lease long poll). The protocol runs
// over real time here: a hold's bound and its steal deadline are
// real-time timers whatever Options.Now says.

// nopRunner simulates nothing: these tests time the lease protocol, not
// cells.
func nopRunner(context.Context, sram.CellConfig, sram.Pattern, float64, uint64) (int, int, int, error) {
	return 0, 0, 0, nil
}

// startWorker runs w in the background and returns the channel Run's
// error arrives on.
func startWorker(w *Worker) <-chan error {
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	return done
}

// registered reports whether the coordinator has seen worker id, which
// it records when the worker's first acquire arrives. With nothing to
// lease, that acquire is then held.
func registered(c *Coordinator, id string) bool {
	for _, w := range c.Status().Workers {
		if w.ID == id {
			return true
		}
	}
	return false
}

// within fails the test unless done delivers before d passes, and
// returns what it delivered.
func within[T any](t *testing.T, what string, d time.Duration, done <-chan T) T {
	t.Helper()
	select {
	case v := <-done:
		return v
	case <-time.After(d):
		t.Fatalf("%s took longer than %v", what, d)
	}
	panic("unreachable")
}

// TestIdleWorkerLeasesNewJobAtOnce: a worker idle on an hour-long Poll
// leases a job submitted meanwhile within 2 s, because the coordinator
// answers its held acquire as soon as the job exists.
func TestIdleWorkerLeasesNewJobAtOnce(t *testing.T) {
	c, srv := newFabric(t, t.TempDir(), Options{LeaseTTL: time.Minute})
	w := NewWorker(WorkerOptions{BaseURL: srv.URL, ID: "w-idle", Poll: time.Hour, Runner: nopRunner})
	done := startWorker(w)
	defer func() {
		w.Drain()
		if err := within(t, "the drain", 5*time.Second, done); err != nil {
			t.Error(err)
		}
	}()
	waitUntil(t, "the worker's first acquire", func() bool { return registered(c, "w-idle") })

	start := time.Now()
	v, err := c.Submit(testSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if got, _ := c.Get(v.ID); got.State == jobd.StateDone {
			break
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("job submitted to an idle worker not done after %v: %+v", time.Since(start), c.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainEndsHeldAcquire: Executor.Drain and Scheduler.Drain each end
// a held acquire within 100 ms, so neither a worker's SIGTERM drain nor
// a coordinator's waits out a hold.
func TestDrainEndsHeldAcquire(t *testing.T) {
	const limit = 100 * time.Millisecond

	t.Run("remote executor", func(t *testing.T) {
		c, srv := newFabric(t, t.TempDir(), Options{})
		w := NewWorker(WorkerOptions{BaseURL: srv.URL, ID: "w-held", Poll: time.Hour})
		done := startWorker(w)
		waitUntil(t, "the held acquire", func() bool { return registered(c, "w-held") })
		w.Drain()
		if err := within(t, "Run's return after Executor.Drain", limit, done); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("remote request", func(t *testing.T) {
		c, _ := newFabric(t, t.TempDir(), Options{})
		answer := make(chan jobd.LeaseResponse, 1)
		go func() {
			resp, _, _ := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-held", WaitMS: time.Hour.Milliseconds()})
			answer <- resp
		}()
		waitUntil(t, "the held acquire", func() bool { return registered(c, "w-held") })
		c.Drain()
		if resp := within(t, "the held acquire's answer after Scheduler.Drain", limit, answer); !resp.Idle || !resp.Done {
			t.Fatalf("held acquire answered %+v after the drain, want idle and done", resp)
		}
	})

	t.Run("in-process executor", func(t *testing.T) {
		store, jobs, seq, err := jobd.Open(filepath.Join(t.TempDir(), "store.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		s := jobd.New(store, jobs, seq, jobd.Options{MaxJobs: 1})
		s.Start()
		waitUntil(t, "the held acquire", func() bool { return registered(s, "local-1") })
		drained := make(chan struct{})
		go func() {
			s.Drain()
			close(drained)
		}()
		within(t, "Scheduler.Drain", limit, drained)
	})
}

// TestHeldAcquireStealsAtDeadline: a held acquire wakes at the earliest
// lease deadline and steals a dead worker's expired lease, with no other
// request arriving to reap it.
func TestHeldAcquireStealsAtDeadline(t *testing.T) {
	const ttl = 300 * time.Millisecond
	c, _ := newFabric(t, t.TempDir(), Options{LeaseCells: 4, LeaseTTL: ttl})
	if _, err := c.Submit(testSpec(4, 1)); err != nil {
		t.Fatal(err)
	}
	dead, _, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-dead"})
	if err != nil || dead.Idle {
		t.Fatalf("first lease: %+v, err %v", dead, err)
	}

	start := time.Now()
	g, _, err := c.Lease(context.Background(), jobd.LeaseRequest{Worker: "w-thief", WaitMS: 10 * ttl.Milliseconds()})
	elapsed := time.Since(start)
	if err != nil || g.Idle || g.Lo != dead.Lo || g.Hi != dead.Hi {
		t.Fatalf("held acquire answered %+v (err %v), want the dead worker's [%d,%d)", g, err, dead.Lo, dead.Hi)
	}
	if elapsed < ttl-50*time.Millisecond || elapsed > ttl+time.Second {
		t.Fatalf("steal after %v, want at the %v deadline", elapsed, ttl)
	}
	if st := c.Status(); st.StealsTotal != 1 {
		t.Fatalf("steals %d, want 1", st.StealsTotal)
	}
}

// TestHungUpClientEndsHeldHandler: a worker that hangs up mid-hold frees
// the coordinator's handler at once, and no goroutine is left behind.
func TestHungUpClientEndsHeldHandler(t *testing.T) {
	c, _ := newFabric(t, t.TempDir(), Options{})
	base := runtime.NumGoroutine()

	h := NewHandler(c)
	returned := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: time.Minute}

	ctx, hangUp := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+PathLease,
		bytes.NewReader([]byte(`{"worker":"w-gone","wait_ms":3600000}`)))
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			err = resp.Body.Close()
		}
		sent <- err
	}()
	waitUntil(t, "the held acquire", func() bool { return registered(c, "w-gone") || len(returned) > 0 })
	select {
	case <-returned:
		t.Fatal("the acquire was answered before its client hung up: it was not held")
	case <-time.After(50 * time.Millisecond):
	}

	hangUp()
	within(t, "the held handler's return after its client hung up", 2*time.Second, returned)
	if err := within(t, "the client's return", 2*time.Second, sent); err == nil {
		t.Fatal("the hung-up request reported success")
	}
	srv.Close()
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the request", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExitWhenDoneWorkersExit: workers run with ExitWhenDone exit once
// every job is terminal, within one Poll of the last job ending, also
// the one whose acquire was held when the other finished the job.
func TestExitWhenDoneWorkersExit(t *testing.T) {
	const poll = 300 * time.Millisecond
	c, srv := newFabric(t, t.TempDir(), Options{LeaseCells: 2, LeaseTTL: time.Minute})
	v, err := c.Submit(testSpec(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	var dones []<-chan error
	for _, id := range []string{"w-a", "w-b"} {
		dones = append(dones, startWorker(NewWorker(WorkerOptions{
			BaseURL: srv.URL, ID: id, Poll: poll, Runner: nopRunner, ExitWhenDone: true,
		})))
	}
	waitUntil(t, "the job", func() bool {
		got, _ := c.Get(v.ID)
		return got.State == jobd.StateDone
	})
	for _, done := range dones {
		if err := within(t, "a worker's exit after the last job ended", poll+time.Second, done); err != nil {
			t.Fatal(err)
		}
	}
}
