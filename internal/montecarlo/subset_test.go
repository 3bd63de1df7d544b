package montecarlo

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"samurai/internal/obs"
)

// TestRunArrayCtxSubsetBitIdentical shards the sweep into contiguous
// index ranges — the lease shape — runs each through RunRange, merges
// the outcomes, and asserts the merged array is bit-identical to one
// uninterrupted RunArrayCtx. This is the single-process version of the
// fabric's headline invariant.
func TestRunArrayCtxSubsetBitIdentical(t *testing.T) {
	cfg := resumeTestConfig()
	baseline, err := RunArrayCtx(context.Background(), cfg, resumeTestRunner, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	partitions := [][][2]int{
		{{0, 32}}, // one lease covering everything
		{{0, 16}, {16, 32}},
		{{0, 5}, {5, 6}, {6, 20}, {20, 32}},
		{{16, 32}, {0, 16}}, // out of order, as stolen leases are
	}
	for _, parts := range partitions {
		merged := make([]CellOutcome, cfg.Cells)
		for _, r := range parts {
			err := RunRange(context.Background(), cfg, r[0], r[1], AsRare(resumeTestRunner), 0, nil,
				func(o CellOutcome) { merged[o.Index] = o })
			if err != nil {
				t.Fatalf("range %v: %v", r, err)
			}
		}
		assertBitIdentical(t, merged, baseline.Outcomes)
	}
}

// TestRunArrayCtxSubsetOnCellAndAggregates checks a range run hands
// onCell its own cells only, once each, and that Aggregate over them
// divides by the range's size.
func TestRunArrayCtxSubsetOnCellAndAggregates(t *testing.T) {
	cfg := resumeTestConfig()
	lo, hi := 8, 20
	var mu sync.Mutex
	seen := map[int]CellOutcome{}
	err := RunRange(context.Background(), cfg, lo, hi, AsRare(resumeTestRunner), 0, nil, func(o CellOutcome) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[o.Index]; dup {
			t.Errorf("onCell saw cell %d twice", o.Index)
		}
		seen[o.Index] = o
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != hi-lo {
		t.Fatalf("onCell saw %d cells, want %d", len(seen), hi-lo)
	}
	outs := make([]CellOutcome, 0, hi-lo)
	for i := lo; i < hi; i++ {
		o, ok := seen[i]
		if !ok {
			t.Fatalf("onCell never saw cell %d of [%d,%d)", i, lo, hi)
		}
		outs = append(outs, o)
	}
	failed, traps := 0, 0
	for _, o := range outs {
		if o.Failed {
			failed++
		}
		traps += o.TrapCount
	}
	res := Aggregate(outs, nil)
	if res.NumFailed != failed {
		t.Fatalf("NumFailed = %d, want %d (range only)", res.NumFailed, failed)
	}
	if want := float64(traps) / float64(hi-lo); res.MeanTraps != want {
		t.Fatalf("MeanTraps = %g, want %g (range denominator)", res.MeanTraps, want)
	}
	if res.Rare != nil {
		t.Fatal("plain aggregate carries a rare-event block")
	}
}

// TestRunArrayCtxSubsetResume drains a range that is not the whole
// array mid-way and reruns its undone cells — the path an executor's
// lease takes when its own drain fires — and checks the merged range
// matches the baseline slice.
func TestRunArrayCtxSubsetResume(t *testing.T) {
	cfg := resumeTestConfig()
	baseline, err := RunArrayCtx(context.Background(), cfg, resumeTestRunner, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 4, 28
	merged := drainThenRerun(t, cfg, lo, hi, AsRare(resumeTestRunner), 0, 6)
	assertBitIdentical(t, merged, baseline.Outcomes[lo:hi])
}

// TestRunArrayCtxSubsetValidation: RunRange refuses an empty, inverted
// or out-of-array range, a nil runner and an empty array.
func TestRunArrayCtxSubsetValidation(t *testing.T) {
	cfg := resumeTestConfig()
	run := AsRare(resumeTestRunner)
	keep := func(CellOutcome) {}
	for _, r := range [][2]int{{-1, 4}, {0, cfg.Cells + 1}, {5, 5}, {9, 3}} {
		if err := RunRange(context.Background(), cfg, r[0], r[1], run, 0, nil, keep); err == nil {
			t.Fatalf("range [%d,%d) accepted", r[0], r[1])
		}
	}
	if err := RunRange(context.Background(), cfg, 0, 4, nil, 0, nil, keep); err == nil {
		t.Fatal("nil runner accepted")
	}
	empty := cfg
	empty.Cells = 0
	if err := RunRange(context.Background(), empty, 0, 1, run, 0, nil, keep); err == nil {
		t.Fatal("empty array accepted")
	}
}

// TestRunRangeStartsAtMostRangeGoroutines: a range of two cells starts
// two cell goroutines however many workers the config asks for. Every
// cell goroutine resolves its worker's busy-seconds series as it exits,
// so the worker labels in the registry count the goroutines started.
func TestRunRangeStartsAtMostRangeGoroutines(t *testing.T) {
	cfg := resumeTestConfig()
	cfg.Workers = 200
	merged := make([]CellOutcome, cfg.Cells)
	if err := RunRange(context.Background(), cfg, 6, 8, AsRare(resumeTestRunner), 0, nil, func(o CellOutcome) { merged[o.Index] = o }); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if last := fmt.Sprintf(`samurai_mc_worker_busy_seconds_total{worker="%d"}`, cfg.Workers-1); strings.Contains(b.String(), last) {
		t.Fatalf("a 2-cell range on Workers %d started a goroutine for worker %d", cfg.Workers, cfg.Workers-1)
	}
	baseline, err := RunArrayCtx(context.Background(), cfg, resumeTestRunner, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, merged[6:8], baseline.Outcomes[6:8])
}

// leaseRange runs cells [0, 64) of an n-cell sweep with the fake runner
// on two workers: the shape of one jobd lease.
func leaseRange(tb testing.TB, cells int) {
	cfg := resumeTestConfig()
	cfg.Cells, cfg.Workers = cells, 2
	if err := RunRange(context.Background(), cfg, 0, 64, AsRare(resumeTestRunner), 0, nil, func(CellOutcome) {}); err != nil {
		tb.Fatal(err)
	}
}

// TestRunRangeAllocatesPerRangeNotPerArray: a lease's buffers are sized
// to the lease, not to the job. A 64-cell range of a 1 000 000-cell
// sweep must allocate under 1 MB and about as much as the same range of
// a 128-cell sweep. The fewest bytes of a few runs are compared, so
// allocations of goroutines outside the range cannot fail the test.
func TestRunRangeAllocatesPerRangeNotPerArray(t *testing.T) {
	bytesOf := func(cells int) uint64 {
		best := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for k := 0; k < 5; k++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			leaseRange(t, cells)
			runtime.ReadMemStats(&ms)
			best = min(best, ms.TotalAlloc-before)
		}
		return best
	}
	small, huge := bytesOf(128), bytesOf(1_000_000)
	t.Logf("64-cell range: %d B of a 128-cell sweep, %d B of a 1 000 000-cell sweep", small, huge)
	if huge >= 1<<20 {
		t.Fatalf("64-cell range of a 1 000 000-cell sweep allocated %d B, want under 1 MB", huge)
	}
	if huge > 2*small+16<<10 {
		t.Fatalf("64-cell range allocated %d B of a 1 000 000-cell sweep against %d B of a 128-cell one", huge, small)
	}
}

// BenchmarkLeaseRange measures one 64-cell lease of a small and a huge
// sweep; B/op must not grow with the sweep.
func BenchmarkLeaseRange(b *testing.B) {
	for _, cells := range []int{128, 1_000_000} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				leaseRange(b, cells)
			}
		})
	}
}
