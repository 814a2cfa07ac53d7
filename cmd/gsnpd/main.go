// Command gsnpd is the long-running multi-genome calling service: the
// gsnp -genome-dir batch mode grown into a server. It accepts
// genome-calling jobs over HTTP/JSON, decomposes each into
// per-chromosome tasks, shards all active jobs' tasks across one shared
// worker pool with round-robin fairness across jobs (a 24-chromosome
// whole genome cannot starve a single-chromosome request), and streams
// per-chromosome results back as they complete.
//
// Completed results are held in a content-addressed cache: resubmitting
// a job whose input bytes and output-shaping options are identical
// replays the recorded stream without touching the scheduler, and
// identical jobs submitted while one is still running share that single
// execution (single-flight dedup). The cache is bounded by -cache-bytes
// and disabled entirely (dedup included) by -cache-off.
//
// With -journal-dir the server is crash-durable: every accepted job is
// recorded in a write-ahead journal (fsync'd before the 202), uploaded
// inputs spool under the journal directory, and each cleanly completed
// chromosome is checkpointed durably before its stream record is
// published. A restarted gsnpd pointed at the same directory re-enqueues
// every interrupted job — completed chromosomes replay from their
// checkpoints (digest-verified) instead of re-executing, output bytes
// stay identical to an uninterrupted run, and recovered jobs carry a
// "recovered" marker in GET /jobs (a recovered job that duplicates another
// pending one is served by it and ends "cached", like a fresh duplicate).
// -max-queued bounds admission: beyond that many unfinished executing
// jobs, submissions get 429 + Retry-After.
//
// Usage:
//
//	gsnpd [-addr 127.0.0.1:8844] [-workers N] [-retries N]
//	      [-retry-backoff D] [-task-timeout D] [-spool DIR]
//	      [-drain-timeout D] [-cache-bytes N] [-cache-off]
//	      [-journal-dir DIR] [-max-queued N]
//
// API:
//
//	POST   /jobs              submit a job; body: {"genome_dir": "/data"}
//	                          or {"inputs": [{"name","ref","aln"}, ...]},
//	                          plus engine options (engine, format, window,
//	                          compress, quarantine, output_format, ...).
//	                          "format": "fastq" submits raw reads — each
//	                          chromosome is aligned in-process before
//	                          calling (align_max_mismatch, align_seed_len)
//	                          — and "output_format": "vcf" streams
//	                          VCFv4.2 records instead of the result table
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         job status with per-chromosome outcomes
//	GET    /jobs/{id}/stream  NDJSON stream of per-chromosome results
//	DELETE /jobs/{id}         cancel a job (others are unaffected)
//	GET    /healthz           liveness, drain state, cache occupancy
//	GET    /statz             cache hit/miss/eviction counters, byte
//	                          occupancy, single-flight join count
//
// On SIGTERM/SIGINT the server drains gracefully: new submissions get
// 503, running jobs finish (bounded by -drain-timeout), streams deliver
// their final records, then the process exits 0. A second signal forces
// immediate cancellation of every job.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gsnp/internal/service"
)

// The listener's timeouts. A client gets readHeaderTimeout to send its
// request header and an idle keep-alive connection is closed after
// idleTimeout, so half-open connections cannot pile up. There is no body
// read timeout — an upload may be 256 MiB — and no whole-response write
// timeout — a stream lasts as long as its job; internal/service bounds each
// stream write instead.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gsnpd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8844", "listen address (host:port; port 0 picks a free port)")
		workers  = flag.Int("workers", 0, "shared worker pool size (0 = GOMAXPROCS)")
		retries  = flag.Int("retries", 0, "re-run a failed chromosome up to N times (exponential backoff)")
		backoff  = flag.Duration("retry-backoff", 100*time.Millisecond, "base delay between retries of a failed chromosome")
		taskTO   = flag.Duration("task-timeout", 0, "per-chromosome deadline (0 = none)")
		spool    = flag.String("spool", "", "directory for uploaded job inputs (default: a temp dir)")
		drainTO  = flag.Duration("drain-timeout", 10*time.Minute, "how long graceful shutdown waits for running jobs")
		cacheB   = flag.Int64("cache-bytes", 256<<20, "result cache byte budget (completed job streams, LRU-evicted)")
		cacheOff = flag.Bool("cache-off", false, "disable the result cache and single-flight dedup")
		journal  = flag.String("journal-dir", "", "write-ahead job journal directory: accepted jobs survive crashes and resume on restart (overrides -spool)")
		maxQ     = flag.Int("max-queued", 0, "reject submissions with 429 once N admitted jobs are unfinished (0 = unlimited)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "gsnpd: ", log.LstdFlags)
	srv, err := service.New(service.Config{
		Workers:      *workers,
		Retries:      *retries,
		RetryBackoff: *backoff,
		TaskTimeout:  *taskTO,
		SpoolDir:     *spool,
		CacheBytes:   *cacheB,
		CacheOff:     *cacheOff,
		JournalDir:   *journal,
		MaxQueued:    *maxQ,
		Logf:         logger.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The listening line goes to stdout so scripts (and the integration
	// test) can discover the bound port under -addr :0.
	fmt.Printf("gsnpd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case s := <-sig:
		logger.Printf("received %v, draining (new jobs rejected; %v deadline)", s, *drainTO)
	}

	// A second signal forces shutdown: every job is cancelled and the
	// drain below completes promptly.
	//gsnplint:ignore goroutinejoin process-lifetime watcher: it dies with main, and joining it would block the forced shutdown it exists to deliver
	go func() {
		s := <-sig
		logger.Printf("received second %v, forcing shutdown", s)
		srv.Close()
	}()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	drainErr := srv.Drain(drainCtx)

	// Let attached streams read their final records before the listener
	// goes away.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	logger.Printf("drained cleanly")
	return nil
}
