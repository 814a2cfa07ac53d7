package pipeline

import (
	"fmt"
	"io"
	"math"

	"gsnp/internal/reads"
)

// Windower feeds position-sorted reads to the windowed per-site pass: the
// read_site component loads a fixed number of sites (a window) at a time,
// and reads spanning a window boundary must be visible to both windows.
type Windower struct {
	it    ReadIter
	carry []reads.AlignedRead
	// next is a read pulled for a previous window that starts beyond it,
	// held by value (with hasNext) so that pulling a read never moves it
	// to the heap.
	next    reads.AlignedRead
	hasNext bool
	done    bool
	// last is the position of the latest read pulled from it; no later
	// read may start before it.
	last int
}

// NewWindower wraps a position-sorted read iterator.
func NewWindower(it ReadIter) *Windower { return &Windower{it: it, last: math.MinInt} }

// AppendReads appends every read overlapping [start, end) to out and
// returns the extended slice, letting a caller recycle one buffer across
// windows. Windows must be requested in increasing, non-overlapping order.
// A read that starts before the one pulled ahead of it is an *OrderError:
// the windows it belongs to may already be done, and the engines count a
// window's reads in the order they come.
func (w *Windower) AppendReads(out []reads.AlignedRead, start, end int) ([]reads.AlignedRead, error) {
	// Reads carried over from earlier windows.
	keep := w.carry[:0]
	for i := range w.carry {
		r := w.carry[i]
		if r.Pos+len(r.Bases) > start && r.Pos < end {
			out = append(out, r)
		}
		if r.Pos+len(r.Bases) > end {
			keep = append(keep, r)
		}
	}
	w.carry = keep

	// A read pulled for a previous window that starts beyond it.
	if w.hasNext && w.next.Pos < end {
		r := w.next
		w.next, w.hasNext = reads.AlignedRead{}, false
		if r.Pos+len(r.Bases) > start {
			out = append(out, r)
		}
		if r.Pos+len(r.Bases) > end {
			w.carry = append(w.carry, r)
		}
	}

	for !w.done && !w.hasNext {
		r, err := w.it.Next()
		if err == io.EOF {
			w.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		if r.Pos < w.last {
			return nil, &OrderError{ID: r.ID, Pos: r.Pos, Prev: w.last}
		}
		w.last = r.Pos
		if r.Pos >= end {
			w.next, w.hasNext = r, true
			break
		}
		if r.Pos+len(r.Bases) > start {
			out = append(out, r)
		}
		if r.Pos+len(r.Bases) > end {
			w.carry = append(w.carry, r)
		}
	}
	return out, nil
}

// OrderError reports a pass-two read that starts before the read preceding
// it in the input. It is a RecordError: the stream stays readable past it,
// and the read is dropped.
type OrderError struct {
	// ID and Pos identify the read; Prev is the preceding read's position.
	ID        int64
	Pos, Prev int
}

func (e *OrderError) Error() string {
	return fmt.Sprintf("read %d at %d follows a read at %d: the alignments are not sorted by position", e.ID, e.Pos, e.Prev)
}

// Record implements RecordError; the input position is not tracked here.
func (e *OrderError) Record() (line int, offset int64) { return 0, -1 }
