package analysis

import "testing"

// TestDurabilityFixture proves the analyzer flags every kind of mutating
// os call in a non-main package whatever its path is named, and stays
// silent on reads, on calls through the seam, inside the seam's own
// package and in a main package.
func TestDurabilityFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{Durability}, "./durablefix/...")
}
