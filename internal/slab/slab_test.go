package slab

import "testing"

func TestCarveDisjointAndCapped(t *testing.T) {
	var s Slab[byte]
	var pieces [][]byte
	for i := 0; i < 5000; i++ {
		n := i % 300
		p := s.Carve(n)
		if p == nil || len(p) != n || cap(p) != n {
			t.Fatalf("Carve(%d): nil=%v len=%d cap=%d", n, p == nil, len(p), cap(p))
		}
		for j := range p {
			if p[j] != 0 {
				t.Fatalf("Carve(%d): byte %d not zeroed", n, j)
			}
			p[j] = byte(i)
		}
		pieces = append(pieces, p)
	}
	// Appending to a piece must not write into the next one.
	pieces[10] = append(pieces[10], 0xff)
	for i, p := range pieces {
		for j, b := range p {
			if i == 10 && j == len(p)-1 {
				continue
			}
			if b != byte(i) {
				t.Fatalf("piece %d byte %d = %d, overwritten", i, j, b)
			}
		}
	}
}

func TestCarveAllocatesPerChunk(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		var s Slab[uint16]
		for i := 0; i < 100_000; i++ {
			s.Carve(100)
		}
	})
	// 10 M elements: chunks of 1 Ki doubling to 64 Ki, then about 150 of
	// 64 Ki; one allocation per piece would be 100 000.
	if allocs > 200 {
		t.Errorf("%v allocations for 100000 pieces, want one per chunk (< 200)", allocs)
	}
}
