package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gsnp/internal/reads"
)

// PrefetchStats reports what window prefetch achieved during a run, so the
// I/O/compute overlap is observable instead of asserted.
type PrefetchStats struct {
	// Windows is the number of windows delivered.
	Windows int
	// Fetch is the total producer-side read_site time — work that
	// overlapped the consumer's likelihood/posterior/output instead of
	// serialising with it.
	Fetch time.Duration
	// Wait is the total time the consumer blocked waiting for a window:
	// the residual read_site cost left on the critical path.
	Wait time.Duration
}

func (s PrefetchStats) String() string {
	return fmt.Sprintf("windows=%d fetch=%v wait=%v",
		s.Windows, s.Fetch.Round(time.Microsecond), s.Wait.Round(time.Microsecond))
}

// PrefetchedWindow is one window's reads, produced ahead of consumption.
type PrefetchedWindow struct {
	// Start and End delimit the window [Start, End).
	Start, End int
	// Reads holds every read overlapping the window, exactly as the
	// underlying Windower would have returned them.
	Reads []reads.AlignedRead
	// Err is a read error encountered while fetching this window; the
	// prefetcher stops after delivering it.
	Err error
}

// WindowPrefetcher overlaps read_site I/O with computation: a producer
// goroutine walks the windows of [0, total) in order, fetching window i+1
// while the consumer processes window i (double buffering). Because the
// producer is the only goroutine touching the Windower and windows are
// delivered strictly in order, the reads seen by the consumer are
// byte-for-byte the ones a serial loop would see — the Section IV-G
// byte-identity guarantee holds with prefetch enabled.
type WindowPrefetcher struct {
	ch    chan PrefetchedWindow
	stop  chan struct{}
	once  sync.Once
	fetch atomic.Int64 // producer-side fetch time, nanoseconds

	windows int
	wait    time.Duration
}

// NewWindowPrefetcher starts prefetching windows of size window over
// [0, total) from win, one window ahead of the consumer (double
// buffering). The Windower must not be used by anyone else while the
// prefetcher is live. The producer stops after delivering the first failed
// window — unless resilient is set (quarantine mode) and the failure is
// record-level (see RecordError): the Windower remains usable past a parse
// failure, the bad record is simply absent, so the producer keeps going
// with the next window. Non-record errors (I/O failures) always stop it.
func NewWindowPrefetcher(win *Windower, total, window int, resilient bool) *WindowPrefetcher {
	p := &WindowPrefetcher{
		ch:   make(chan PrefetchedWindow, 1),
		stop: make(chan struct{}),
	}
	go func() {
		defer close(p.ch)
		for start := 0; start < total; start += window {
			end := start + window
			if end > total {
				end = total
			}
			t0 := time.Now()
			rs, err := win.Reads(start, end)
			p.fetch.Add(int64(time.Since(t0)))
			select {
			case p.ch <- PrefetchedWindow{Start: start, End: end, Reads: rs, Err: err}:
			case <-p.stop:
				return
			}
			if err != nil {
				var re RecordError
				if !resilient || !errors.As(err, &re) {
					return
				}
			}
		}
	}()
	return p
}

// Next blocks until the next window is available. ok is false once every
// window has been delivered (or the prefetcher was stopped). The blocking
// time is accumulated into Stats().Wait.
func (p *WindowPrefetcher) Next() (pw PrefetchedWindow, ok bool) {
	t0 := time.Now()
	pw, ok = <-p.ch
	p.wait += time.Since(t0)
	if ok {
		p.windows++
	}
	return pw, ok
}

// Stop terminates the producer early (e.g. when the consumer fails
// mid-run). It is safe to call multiple times and after exhaustion.
func (p *WindowPrefetcher) Stop() {
	p.once.Do(func() { close(p.stop) })
	for range p.ch { // release a producer blocked on send
	}
}

// Stats reports the prefetch counters. Call it only after the consumer
// loop has finished (it reads producer-shared state).
func (p *WindowPrefetcher) Stats() PrefetchStats {
	return PrefetchStats{
		Windows: p.windows,
		Fetch:   time.Duration(p.fetch.Load()),
		Wait:    p.wait,
	}
}
