package conc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFirstFailZeroValue(t *testing.T) {
	var f FirstFail
	if f.Failed() {
		t.Fatal("zero value reports failed")
	}
	if f.Err() != nil {
		t.Fatal("zero value has an error")
	}
	if f.Index() != -1 {
		t.Fatalf("zero value index = %d, want -1", f.Index())
	}
}

func TestFirstFailLowestIndexWins(t *testing.T) {
	var f FirstFail
	e3 := errors.New("three")
	e1 := errors.New("one")
	f.Record(3, e3)
	f.Record(5, errors.New("five"))
	f.Record(1, e1)
	f.Record(2, errors.New("two"))
	if got := f.Err(); got != e1 {
		t.Fatalf("Err() = %v, want %v", got, e1)
	}
	if f.Index() != 1 {
		t.Fatalf("Index() = %d, want 1", f.Index())
	}
}

func TestFirstFailIgnoresNil(t *testing.T) {
	var f FirstFail
	f.Record(0, nil)
	if f.Failed() {
		t.Fatal("nil error recorded as failure")
	}
}

// TestFirstFailPanicPropagates pins the pool's panic contract: a worker
// panic must crash the process (propagate) rather than be swallowed or
// leave siblings deadlocked in wg.Wait. The panicking scenario runs in
// a subprocess — a goroutine panic is fatal by design — and the parent
// asserts it dies with the panic message within a bound, so a deadlock
// shows up as a timeout failure, not a hung CI job.
func TestFirstFailPanicPropagates(t *testing.T) {
	if os.Getenv("CONC_TEST_PANIC_WORKER") == "1" {
		// Child: the exact fan-out shape samurai.Run and RunArray use.
		var agg FirstFail
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i == 5 {
					panic("conc test: worker 5 exploded")
				}
				agg.Record(i, fmt.Errorf("worker %d", i))
			}(i)
		}
		wg.Wait()
		// Worker 5's deferred wg.Done runs while its panic unwinds, so
		// Wait can return just before the runtime ends the process.
		// Allow the panic two seconds to end it before reporting
		// survival.
		time.Sleep(2 * time.Second)
		fmt.Println("UNREACHABLE: pool survived a worker panic")
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFirstFailPanicPropagates$", "-test.v")
	cmd.Env = append(os.Environ(), "CONC_TEST_PANIC_WORKER=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("panicking pool deadlocked (subprocess killed after timeout); output:\n%s", out)
	}
	if err == nil {
		t.Fatalf("worker panic did not propagate: subprocess exited 0; output:\n%s", out)
	}
	if !strings.Contains(string(out), "conc test: worker 5 exploded") {
		t.Fatalf("subprocess died without the worker's panic message; output:\n%s", out)
	}
	if strings.Contains(string(out), "UNREACHABLE") {
		t.Fatalf("pool swallowed the panic and kept going; output:\n%s", out)
	}
}

// TestFirstFailRecordDuringPanicUnwind: aggregation must stay usable
// when Record runs from a deferred call during a panic unwind — the
// mutex is released on every path, so a recovered panic cannot wedge
// later Failed/Err calls.
func TestFirstFailRecordDuringPanicUnwind(t *testing.T) {
	var agg FirstFail
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				agg.Record(2, fmt.Errorf("recovered: %v", r))
			}
		}()
		agg.Record(7, errors.New("pre-panic record"))
		panic("conc test: unwind")
	}()
	wg.Wait()
	if !agg.Failed() {
		t.Fatal("no failure recorded across the unwind")
	}
	if agg.Index() != 2 {
		t.Fatalf("Index() = %d, want 2 (deferred record should win over index 7)", agg.Index())
	}
	if got := agg.Err().Error(); !strings.Contains(got, "recovered") {
		t.Fatalf("Err() = %q, want the deferred recovery error", got)
	}
}

// Under concurrent recording the winner must still be the lowest index
// — the property that makes parallel error reporting deterministic.
func TestFirstFailConcurrentDeterminism(t *testing.T) {
	var f FirstFail
	var wg sync.WaitGroup
	const n = 64
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.Record(i, fmt.Errorf("worker %d", i))
		}(i)
	}
	wg.Wait()
	if f.Index() != 0 {
		t.Fatalf("Index() = %d, want 0", f.Index())
	}
	if got := f.Err().Error(); got != "worker 0" {
		t.Fatalf("Err() = %q, want %q", got, "worker 0")
	}
}
