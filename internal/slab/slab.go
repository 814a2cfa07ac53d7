// Package slab hands out many small slices from a few large backing
// arrays, so a parser or the aligner that produces one short sequence per
// read pays one allocation per chunk instead of one per read.
//
// Every piece is capacity-capped (a three-index slice): appending to one
// reallocates instead of writing over the neighbour carved after it, so
// pieces behave like slices of their own except that they keep their
// whole chunk alive.
package slab

// Chunk sizes in elements: the first chunk is small so a short input
// stays small, and each next one doubles up to maxChunk.
const (
	minChunk = 1 << 10
	maxChunk = 1 << 16
)

// Slab carves zeroed, disjoint pieces out of chunked backing arrays. The
// zero value is ready to use. A Slab is not safe for concurrent use; give
// each goroutine its own.
type Slab[T any] struct {
	buf []T
}

// Carve returns a zeroed, non-nil piece of n elements whose capacity is n.
func (s *Slab[T]) Carve(n int) []T {
	if s.buf == nil || cap(s.buf)-len(s.buf) < n {
		c := min(max(2*cap(s.buf), minChunk), maxChunk)
		s.buf = make([]T, 0, max(c, n))
	}
	l := len(s.buf)
	s.buf = s.buf[:l+n]
	return s.buf[l : l+n : l+n]
}
