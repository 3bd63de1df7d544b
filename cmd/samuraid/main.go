// Command samuraid is the durable SAMURAI job service: it accepts
// methodology runs and Monte-Carlo array sweeps over a REST API,
// checkpoints them cell-by-cell into an append-only JSONL store, and
// resumes interrupted sweeps bit-identically after a restart.
//
// Usage:
//
//	samuraid -addr :8437 -store samuraid.jsonl
//
// Every job runs through the jobd lease protocol; a methodology run is
// a job of one cell. -max-jobs in-process executors lease cells
// directly from the job table, and samuraiw workers may lease from the
// same table over /fabric/lease, /fabric/checkpoint and /fabric/status
// (see internal/fabric). With -coordinator, samuraid starts no
// in-process executors: every cell, a run job's included, goes to
// samuraiw workers.
//
// SIGTERM/SIGINT drains gracefully: in-flight cells finish and
// checkpoint, interrupted sweeps return to the queue (resumed on next
// start), and the process exits 0. A second signal hard-exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"samurai/internal/fabric"
	"samurai/internal/jobd"
	"samurai/internal/obs"
)

// config carries the parsed flags.
type config struct {
	addr         string
	storePath    string
	addrFile     string
	maxJobs      int
	workers      int
	flightSize   int
	progress     bool
	drainTimeout time.Duration
	compact      bool
	coordinator  bool
	leaseCells   int
	leaseTTL     time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8437", "HTTP listen address (host:port; :0 picks a free port)")
	flag.StringVar(&cfg.storePath, "store", "samuraid.jsonl", "append-only job store path")
	flag.IntVar(&cfg.maxJobs, "max-jobs", 1, "in-process executors (each runs one lease of any job at a time)")
	flag.IntVar(&cfg.workers, "workers", 0, "default per-job cell workers (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.flightSize, "flight-size", 0, "per-job flight-recorder ring capacity (0 = default: 4096, none with -coordinator; negative disables)")
	flag.StringVar(&cfg.addrFile, "addr-file", "", "write the bound address to this file once listening")
	flag.BoolVar(&cfg.progress, "progress", false, "log progress events to stderr as JSONL")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "max time for the HTTP server to drain on shutdown")
	flag.BoolVar(&cfg.compact, "compact", true, "compact the job store on startup (snapshot + truncate)")
	flag.BoolVar(&cfg.coordinator, "coordinator", false, "start no in-process executors (lease every job's cells to samuraiw workers)")
	flag.IntVar(&cfg.leaseCells, "lease-cells", 0, "max cells per remote lease; in-process leases take this many per cell worker (0 = default 32)")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", 0, "lease renewal deadline (0 = default 10s)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "samuraid:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.progress {
		obs.SetSink(obs.NewJSONLSink(os.Stderr))
	}

	store, replayed, maxSeq, err := jobd.Open(cfg.storePath)
	if err != nil {
		return err
	}
	if cfg.compact {
		// Snapshot + truncate folds the replayed history (state flaps,
		// superseded records) into a minimal replay-equivalent log before
		// this process starts appending to it.
		if err := store.Compact(replayed); err != nil {
			//lint:ignore bareerr best-effort cleanup on an already-failed startup path
			store.Close()
			return fmt.Errorf("compacting %s: %w", cfg.storePath, err)
		}
	}

	maxJobs := cfg.maxJobs
	if cfg.coordinator {
		maxJobs = -1
	}
	sched := jobd.New(store, replayed, maxSeq, jobd.Options{
		MaxJobs:    maxJobs,
		Workers:    cfg.workers,
		FlightSize: cfg.flightSize,
		LeaseCells: cfg.leaseCells,
		LeaseTTL:   cfg.leaseTTL,
	})
	sched.Start()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.addrFile != "" {
		if werr := os.WriteFile(cfg.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
			return fmt.Errorf("writing addr file: %w", werr)
		}
	}
	srv := &http.Server{
		Handler:           fabric.NewHandler(sched),
		ReadHeaderTimeout: 5 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	mode := "scheduler"
	if cfg.coordinator {
		mode = "coordinator"
	}
	fmt.Fprintln(os.Stderr, "samuraid: listening on", ln.Addr(), "as", mode)

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintln(os.Stderr, "samuraid: received", sig, "- draining")
		go func() {
			s := <-sigCh
			fmt.Fprintln(os.Stderr, "samuraid: received second", s, "- hard exit")
			os.Exit(1)
		}()
	case err := <-serveErr:
		//lint:ignore bareerr best-effort cleanup on an already-failed serve path
		store.Close()
		return fmt.Errorf("serve: %w", err)
	}

	// Drain order matters: stop the job layer first (in-process
	// executors finish and checkpoint in-flight cells; no new leases are
	// granted, but remote workers' checkpoint flushes keep landing until
	// the HTTP server drains), then the HTTP server, then the store.
	sched.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		//lint:ignore bareerr the Shutdown error is the one worth reporting; Close severs stragglers
		srv.Close()
		fmt.Fprintln(os.Stderr, "samuraid: forced connection close after drain timeout:", err)
	}
	if err := store.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "samuraid: drained cleanly")
	return nil
}
