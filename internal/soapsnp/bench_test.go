package soapsnp

import (
	"sync"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
)

// BenchmarkDenseLikelihoodSparseSite measures Algorithm 1 on a site with a
// realistic ~11 observations. The one 128 KB site stays in L2: this is the
// cost of the code, not of memory (see BenchmarkDenseLikelihoodWindow).
func BenchmarkDenseLikelihoodSparseSite(b *testing.B) {
	tables := bayes.BuildTables(bayes.NewPMatrixFromPhred())
	baseOcc := benchSite()
	scratch := NewLikeliScratch(100)
	var tl [bayes.TypeLikelySize]float64
	b.SetBytes(bayes.BaseOccSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DenseLikelihood(baseOcc, tables, &scratch, &tl)
	}
}

// BenchmarkDenseLikelihoodEmptySite is the pure matrix-sweep floor, again
// out of L2.
func BenchmarkDenseLikelihoodEmptySite(b *testing.B) {
	tables := bayes.BuildTables(bayes.NewPMatrixFromPhred())
	baseOcc := make([]uint8, bayes.BaseOccSize)
	scratch := NewLikeliScratch(100)
	var tl [bayes.TypeLikelySize]float64
	b.SetBytes(bayes.BaseOccSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DenseLikelihood(baseOcc, tables, &scratch, &tl)
	}
}

// benchWindowSites is the window of the two out-of-cache benchmarks: 256 MB
// of base_occ, far beyond any cache, so they read what the engine's 4,000-
// site (512 MB) window reads — DRAM, the regime Formula 1 describes.
const benchWindowSites = 2048

var benchWindow = sync.OnceValue(func() []uint8 {
	buf := make([]uint8, benchWindowSites*bayes.BaseOccSize)
	// Write every page once: an untouched page reads as the kernel's shared
	// zero page, out of cache.
	for i := range buf {
		buf[i] = 1
	}
	clear(buf)
	return buf
})

// BenchmarkDenseLikelihoodWindow runs Algorithm 1 over a window of sites
// with ~10 observations each: component 4 of a steady-state window.
func BenchmarkDenseLikelihoodWindow(b *testing.B) {
	tables := bayes.BuildTables(bayes.NewPMatrixFromPhred())
	buf := benchWindow()
	for site := 0; site < benchWindowSites; site++ {
		for k := 0; k < 10; k++ {
			h := site*31 + k*17
			buf[site*bayes.BaseOccSize+bayes.BaseOccIndex(dna.Base(h&3), dna.Quality(10+h%50), (h*7)%100, k&1)] = 1
		}
	}
	defer clear(buf)
	scratch := NewLikeliScratch(100)
	var tl [bayes.TypeLikelySize]float64
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for site := 0; site < benchWindowSites; site++ {
			DenseLikelihood(buf[site*bayes.BaseOccSize:(site+1)*bayes.BaseOccSize], tables, &scratch, &tl)
		}
	}
}

// BenchmarkRecycle measures the dense representation's window re-zeroing,
// Table I's second-most expensive component, over the same window.
func BenchmarkRecycle(b *testing.B) {
	buf := benchWindow()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(buf)
	}
}
