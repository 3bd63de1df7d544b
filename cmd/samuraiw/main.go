// Command samuraiw is the SAMURAI fabric worker: it runs the jobd lease
// loop — the one samuraid's in-process executors run — against a
// samuraid over HTTP: it acquires cell-range leases, simulates the
// leased cells with the standard cell runners (a run job is one lease
// of its one nominal cell), and streams the per-cell results back as
// checkpoints. Workers can join any samuraid; one started with
// -coordinator leaves every job to them.
//
// Usage:
//
//	samuraiw -coordinator http://127.0.0.1:8437
//
// Workers are stateless: kill one at any moment and samuraid re-leases
// its unfinished cells after the lease TTL, with no effect on the final
// result (cell outcomes are pure functions of the job seed and cell
// index). A cancelled job voids its leases; the worker drops the range
// and moves on.
//
// SIGTERM/SIGINT drains gracefully: in-flight cells finish and
// checkpoint, the unfinished remainder of the current lease returns to
// the coordinator's pool immediately, and the process exits 0. A second
// signal hard-exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"samurai/internal/fabric"
	"samurai/internal/obs"
)

func main() {
	coordinator := flag.String("coordinator", "http://127.0.0.1:8437", "coordinator base URL")
	id := flag.String("id", "", "worker identity (empty = coordinator assigns one; the local- prefix is reserved)")
	threads := flag.Int("threads", 0, "cell parallelism per lease (0 = the job spec's setting)")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle re-poll interval when no lease is available")
	once := flag.Bool("once", false, "exit when the coordinator reports all jobs done")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and pprof on this address (empty = off)")
	progress := flag.Bool("progress", false, "log progress events to stderr as JSONL")
	chaosExitAfter := flag.Int("chaos-exit-after-cells", 0,
		"crash-test hook: hard-exit (code 3) after this many acknowledged checkpoints")
	flag.Parse()

	if err := run(*coordinator, *id, *threads, *poll, *once, *metricsAddr, *progress, *chaosExitAfter); err != nil {
		fmt.Fprintln(os.Stderr, "samuraiw:", err)
		os.Exit(1)
	}
}

func run(coordinator, id string, threads int, poll time.Duration, once bool, metricsAddr string, progress bool, chaosExitAfter int) error {
	if progress {
		obs.SetSink(obs.NewJSONLSink(os.Stderr))
	}
	if metricsAddr != "" {
		ms, err := obs.ServeMetrics(metricsAddr)
		if err != nil {
			return err
		}
		//lint:ignore bareerr best-effort metrics-listener teardown on exit
		defer ms.Close()
		fmt.Fprintln(os.Stderr, "samuraiw: metrics on", ms.Addr())
	}

	opts := fabric.WorkerOptions{
		BaseURL:      coordinator,
		ID:           id,
		Threads:      threads,
		Poll:         poll,
		ExitWhenDone: once,
	}
	if chaosExitAfter > 0 {
		// The chaos hook dies the hard way on purpose: no drain, no
		// release — the coordinator must recover the lease by stealing.
		var acked atomic.Int64
		opts.OnCheckpoint = func(job string, index int) {
			if acked.Add(1) == int64(chaosExitAfter) {
				fmt.Fprintln(os.Stderr, "samuraiw: chaos exit after", chaosExitAfter, "checkpoints")
				os.Exit(3)
			}
		}
	}
	w := fabric.NewWorker(opts)

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigCh
		fmt.Fprintln(os.Stderr, "samuraiw: received", sig, "- draining")
		w.Drain()
		s := <-sigCh
		fmt.Fprintln(os.Stderr, "samuraiw: received second", s, "- hard exit")
		os.Exit(1)
	}()

	fmt.Fprintln(os.Stderr, "samuraiw: working for", coordinator)
	if err := w.Run(context.Background()); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "samuraiw: drained cleanly")
	return nil
}
