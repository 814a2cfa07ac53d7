// Package faults injects deterministic failures into a run — parse
// corruption, transient I/O errors, worker panics, artificial stalls — so
// the fault-tolerance machinery (window quarantine, task retry, deadlines,
// checkpoint/resume) can be exercised end to end without doctored input
// files. Everything fires on a fixed schedule derived from the spec; there
// is no global randomness, so two runs with the same spec and inputs fail
// identically.
//
// A spec is a comma-separated key=value list:
//
//	seed=1,corrupt-every=40,transient-every=25,transient-fails=2,panic-window=1,stall-window=3,stall=50ms
//
//	seed=N            offsets the record schedules (default 0)
//	corrupt-every=K   every Kth record of each stream becomes a parse
//	                  error (a pipeline.RecordError: skippable, permanent)
//	transient-every=K every Kth record raises a transient I/O error —
//	                  NOT record-scoped, so it aborts the task and the
//	                  scheduler's retry policy must recover it
//	transient-fails=N total transient errors per stream across reopens
//	                  and retries (default 1), so retries eventually pass
//	panic-window=W    window W panics (once per stream, so a retried
//	                  task passes)
//	stall-window=W    window W sleeps for the stall duration (once per
//	                  stream), tripping per-task deadlines
//	stall=D           the stall duration (default 1s)
//	stall-times=N     stalls per stream (default 1)
//
// Disk faults are not a spec key: gsnpd's durable writes all go through
// one seam (internal/checkpoint.FS), and its tests substitute an FS that
// fails or stops at a chosen operation.
//
// One Injector serves a whole run; each chromosome (or input file) gets
// its own named Stream whose schedules are independent but identical.
package faults

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
)

// Config is the parsed spec.
type Config struct {
	Seed           uint64
	CorruptEvery   int
	TransientEvery int
	TransientFails int
	PanicWindow    int
	StallWindow    int
	Stall          time.Duration
	StallTimes     int
}

// Parse parses a spec string. An empty spec yields a zero-valued injector
// that injects nothing.
func Parse(spec string) (*Injector, error) {
	cfg := Config{PanicWindow: -1, StallWindow: -1, TransientFails: 1,
		Stall: time.Second, StallTimes: 1}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q: want key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(v, 10, 64)
		case "corrupt-every":
			cfg.CorruptEvery, err = strconv.Atoi(v)
		case "transient-every":
			cfg.TransientEvery, err = strconv.Atoi(v)
		case "transient-fails":
			cfg.TransientFails, err = strconv.Atoi(v)
		case "panic-window":
			cfg.PanicWindow, err = strconv.Atoi(v)
		case "stall-window":
			cfg.StallWindow, err = strconv.Atoi(v)
		case "stall":
			cfg.Stall, err = time.ParseDuration(v)
		case "stall-times":
			cfg.StallTimes, err = strconv.Atoi(v)
		default:
			return nil, fmt.Errorf("faults: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: %s: %w", k, err)
		}
	}
	return New(cfg), nil
}

// New builds an injector from an explicit config.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, streams: make(map[string]*Stream)}
}

// Injector is the process-wide fault source. It is safe for concurrent use
// from the scheduler's worker pool.
type Injector struct {
	cfg Config

	mu      sync.Mutex
	streams map[string]*Stream
}

// Config returns the injector's parsed configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// Stream returns the named stream's fault state, creating it on first use.
// Stream state — the transient-error, panic and stall budgets — persists
// across iterator reopens and task retries; the record schedules restart
// with each iterator, so corruption hits the same records on every pass.
func (inj *Injector) Stream(name string) *Stream {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	s, ok := inj.streams[name]
	if !ok {
		s = &Stream{inj: inj, name: name,
			transientLeft: int64(inj.cfg.TransientFails),
			panicsLeft:    1,
			stallsLeft:    int64(inj.cfg.StallTimes)}
		inj.streams[name] = s
	}
	return s
}

// Stream is one input stream's fault state.
type Stream struct {
	inj  *Injector
	name string

	transientLeft int64
	panicsLeft    int64
	stallsLeft    int64
}

// takeBudget atomically decrements *n if positive, reporting whether a
// unit was taken.
func takeBudget(n *int64) bool {
	for {
		v := atomic.LoadInt64(n)
		if v <= 0 {
			return false
		}
		if atomic.CompareAndSwapInt64(n, v, v-1) {
			return true
		}
	}
}

// WrapIter injects record faults into one iterator pass. The schedule is
// positional: with corrupt-every=K and seed s, records K+s%K, 2K+s%K, ...
// (1-based) come back as CorruptError; likewise for transient-every,
// subject to the stream's remaining transient budget.
func (s *Stream) WrapIter(it pipeline.ReadIter) pipeline.ReadIter {
	return &faultIter{it: it, s: s}
}

// WrapSource wraps every iterator src opens with WrapIter.
func (s *Stream) WrapSource(src pipeline.Source) pipeline.Source {
	return pipeline.FuncSource(func() (pipeline.ReadIter, error) {
		it, err := src.Open()
		if err != nil {
			return nil, err
		}
		return s.WrapIter(it), nil
	})
}

// WindowHook is the engine-side injection point (Config.WindowHook on
// either engine): it stalls at stall-window and panics at panic-window.
func (s *Stream) WindowHook(ctx context.Context, window, start, end int) error {
	cfg := s.inj.cfg
	if window == cfg.StallWindow && takeBudget(&s.stallsLeft) {
		select {
		case <-time.After(cfg.Stall):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if window == cfg.PanicWindow && takeBudget(&s.panicsLeft) {
		panic(fmt.Sprintf("faults: injected panic at %s window %d [%d,%d)",
			s.name, window, start, end))
	}
	return nil
}

// scheduled reports whether 1-based record n fires an every-K schedule
// offset by seed.
func scheduled(n int64, every int, seed uint64) bool {
	if every <= 0 {
		return false
	}
	k := int64(every)
	off := int64(seed) % k
	return n%k == off && n > off
}

// CorruptError is an injected parse error. It implements
// pipeline.RecordError, so quarantine-mode runs skip the record (and
// quarantine the window it lands in during the windowed pass) while
// strict runs abort.
type CorruptError struct {
	Stream string
	Line   int
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("faults: injected corrupt record at %s line %d", e.Stream, e.Line)
}

// Record implements pipeline.RecordError.
func (e *CorruptError) Record() (line int, offset int64) { return e.Line, -1 }

// TransientError is an injected transient I/O failure. It is deliberately
// NOT record-scoped: quarantine cannot contain it, so it aborts the task
// and only the scheduler's retry policy recovers it.
type TransientError struct {
	Stream string
	Line   int
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("faults: injected transient I/O error at %s line %d", e.Stream, e.Line)
}

// faultIter applies the record schedules to one iterator pass.
type faultIter struct {
	it pipeline.ReadIter
	s  *Stream
	n  int64
}

func (f *faultIter) Next() (reads.AlignedRead, error) {
	r, err := f.it.Next()
	if err != nil {
		return r, err
	}
	f.n++
	cfg := f.s.inj.cfg
	if scheduled(f.n, cfg.TransientEvery, cfg.Seed) && takeBudget(&f.s.transientLeft) {
		return reads.AlignedRead{}, &TransientError{Stream: f.s.name, Line: int(f.n)}
	}
	if scheduled(f.n, cfg.CorruptEvery, cfg.Seed) {
		return reads.AlignedRead{}, &CorruptError{Stream: f.s.name, Line: int(f.n)}
	}
	return r, nil
}
