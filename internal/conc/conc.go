// Package conc provides small concurrency helpers for the parallel
// fan-outs (samurai.Run's per-transistor workers, montecarlo.RunArrayCtx's
// cell workers). The helpers exist to keep parallel execution exactly
// as reproducible as sequential execution: result writes stay
// index-disjoint in the callers, and error aggregation here is
// mutex-guarded and scheduling-independent.
package conc

import "sync"

// FirstFail aggregates errors from indexed parallel workers under a
// mutex. The failure with the lowest worker index wins, so the error a
// run eventually reports does not depend on goroutine scheduling. The
// zero value is ready to use.
type FirstFail struct {
	mu  sync.Mutex
	idx int
	err error
	set bool
}

// Record stores err for worker index i unless a lower-indexed failure
// is already recorded. A nil err is ignored.
func (f *FirstFail) Record(i int, err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.set || i < f.idx {
		f.idx, f.err, f.set = i, err, true
	}
}

// Failed reports whether any failure has been recorded; workers use it
// to skip doomed work once a sibling has failed.
func (f *FirstFail) Failed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set
}

// Err returns the recorded lowest-index error, or nil. Callers must
// synchronise with worker completion (WaitGroup.Wait) before treating
// the result as final.
func (f *FirstFail) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Index returns the worker index of the recorded failure, -1 if none.
func (f *FirstFail) Index() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.set {
		return -1
	}
	return f.idx
}
