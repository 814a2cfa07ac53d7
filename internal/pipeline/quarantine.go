package pipeline

import (
	"context"
	"errors"
	"fmt"

	"gsnp/internal/par"
	"gsnp/internal/reads"
)

// Fault containment for long whole-genome runs: instead of one malformed
// record or one panicking window killing the process and discarding every
// completed chromosome, engines running with quarantine enabled convert the
// failure into a Quarantine record — window-scoped, machine-readable, with
// the input position when known — and keep going. The success path is
// untouched: a clean run produces byte-identical output with or without
// quarantine enabled.

// RecordError is an error scoped to a single input record: the stream
// remains readable past it, so a fault-tolerant consumer may skip the
// record. snpio.ParseError implements it; fault injectors
// (internal/faults) implement it for synthetic corruption.
type RecordError interface {
	error
	// Record reports the 1-based input line of the record and the byte
	// offset of that line's start (-1 when untracked).
	Record() (line int, offset int64)
}

// Quarantine describes one contained failure: a window whose computation
// was abandoned, or a record skipped during the calibration pass
// (Window == -1). It is the unit of the machine-readable failure report.
type Quarantine struct {
	// Chr names the chromosome.
	Chr string `json:"chr"`
	// Window is the zero-based window index, or -1 for a calibration-pass
	// record skip that precedes windowing.
	Window int `json:"window"`
	// Start and End delimit the affected site range [Start, End); both are
	// -1 for calibration-pass skips.
	Start int `json:"start"`
	End   int `json:"end"`
	// Line and Offset locate the offending input record when the cause was
	// a record-level error (0 and -1 otherwise).
	Line   int   `json:"line,omitempty"`
	Offset int64 `json:"offset"`
	// Cause is the failure description.
	Cause string `json:"cause"`
	// Panicked marks failures recovered from a panic rather than returned
	// as an error.
	Panicked bool `json:"panicked,omitempty"`
}

func (q Quarantine) String() string {
	where := fmt.Sprintf("window %d [%d,%d)", q.Window, q.Start, q.End)
	if q.Window < 0 {
		where = "calibration pass"
	}
	if q.Line > 0 {
		where += fmt.Sprintf(", input line %d", q.Line)
	}
	return fmt.Sprintf("%s %s: %s", q.Chr, where, q.Cause)
}

// NewQuarantine builds a window quarantine record from its cause,
// extracting the input position when the cause is record-level and
// flagging recovered panics.
func NewQuarantine(chr string, window, start, end int, cause error) Quarantine {
	q := Quarantine{Chr: chr, Window: window, Start: start, End: end,
		Offset: -1, Cause: cause.Error()}
	var re RecordError
	if errors.As(cause, &re) {
		q.Line, q.Offset = re.Record()
	}
	var pe *par.PanicError
	if errors.As(cause, &pe) {
		q.Panicked = true
	}
	return q
}

// Containable reports whether a window failure is scoped to the window:
// record-level input errors and recovered panics are; everything else
// (I/O, output sink, cancellation) poisons the whole run so the task-level
// retry policy (internal/sched) can handle it.
func Containable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *par.PanicError
	var re RecordError
	return errors.As(err, &pe) || errors.As(err, &re)
}

// SourceWithContext wraps every iterator a source opens with ctx
// cancellation checks, so a deadline interrupts a pass mid-stream. A
// context that can never be cancelled returns src unchanged.
func SourceWithContext(ctx context.Context, src Source) Source {
	if ctx.Done() == nil {
		return src
	}
	return FuncSource(func() (ReadIter, error) {
		it, err := src.Open()
		if err != nil {
			return nil, err
		}
		return &ctxIter{it: it, ctx: ctx}, nil
	})
}

// ctxIter aborts a read stream with its context's error when the context
// ends — what makes per-task deadlines effective inside a long calibration
// or window pass — checking every 1024 records so cancellation latency
// stays bounded without measurable per-record overhead.
type ctxIter struct {
	it  ReadIter
	ctx context.Context
	n   int
}

func (c *ctxIter) Next() (reads.AlignedRead, error) {
	if c.n++; c.n&1023 == 0 {
		if err := c.ctx.Err(); err != nil {
			return reads.AlignedRead{}, err
		}
	}
	return c.it.Next()
}

// TolerantIter wraps a ReadIter, skipping record-level errors instead of
// surfacing them — the calibration-pass behaviour of quarantine mode,
// where a corrupt record must not abort the whole-input scan. Non-record
// errors (I/O failures, truncated streams) still propagate. Each skip is
// reported through onSkip.
type TolerantIter struct {
	it     ReadIter
	onSkip func(err RecordError)
}

// maxRecordSkips bounds consecutive record skips so a pathological input
// (or a reader that keeps returning the same record error without
// consuming input) cannot spin forever.
const maxRecordSkips = 1 << 20

// NewTolerantIter wraps it; onSkip observes every skipped record error.
func NewTolerantIter(it ReadIter, onSkip func(err RecordError)) *TolerantIter {
	return &TolerantIter{it: it, onSkip: onSkip}
}

// Next returns the next parseable record, skipping records whose errors
// are record-scoped.
func (t *TolerantIter) Next() (reads.AlignedRead, error) {
	for skips := 0; ; skips++ {
		r, err := t.it.Next()
		if err == nil {
			return r, nil
		}
		var re RecordError
		if !errors.As(err, &re) || skips >= maxRecordSkips {
			return r, err
		}
		t.onSkip(re)
	}
}
