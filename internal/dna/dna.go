// Package dna provides the elementary genomic types shared by every other
// package in the repository: two-bit nucleotide bases, diploid genotypes,
// Phred quality scores and packed sequences.
//
// The encodings follow the conventions used by SOAPsnp and GSNP (Lu et al.,
// ICPP 2011): bases are A=0, C=1, G=2, T=3 so that a base complements to
// 3-base, and the ten unordered diploid genotypes are enumerated in the
// canonical order produced by the allele1 <= allele2 double loop of the
// likelihood algorithm.
package dna

import (
	"fmt"
	"math"
	"strings"
)

// Base is a nucleotide encoded in two bits: A=0, C=1, G=2, T=3.
type Base uint8

// The four nucleotide bases.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// NBases is the size of the nucleotide alphabet.
const NBases = 4

// baseLetters maps the two-bit encoding to its letter.
var baseLetters = [NBases]byte{'A', 'C', 'G', 'T'}

// Byte returns the upper-case ASCII letter for b.
func (b Base) Byte() byte { return baseLetters[b&3] }

// String returns the single-letter representation of b.
func (b Base) String() string { return string(baseLetters[b&3]) }

// Complement returns the Watson-Crick complement of b (A<->T, C<->G).
// With the 2-bit encoding this is simply 3-b.
func (b Base) Complement() Base { return 3 - (b & 3) }

// IsTransition reports whether substituting b with o is a transition
// (purine<->purine or pyrimidine<->pyrimidine: A<->G or C<->T).
// All other substitutions are transversions.
func (b Base) IsTransition(o Base) bool {
	if b == o {
		return false
	}
	// A(0)<->G(2) differ by 2; C(1)<->T(3) differ by 2.
	return (b^o)&3 == 2
}

// ParseBase converts an ASCII nucleotide letter to a Base. It accepts upper
// and lower case. ok is false for any non-ACGT character (including N),
// which decodes as A.
func ParseBase(c byte) (b Base, ok bool) {
	v := baseCode[c]
	return Base(v & 3), v != noBase
}

// noBase marks a byte outside ACGT in baseCode.
const noBase = 4

// baseCode is the one base-decode table: the base code of every byte, or
// noBase. Every text parser (FASTA, FASTQ, SOAP, SAM) decodes through it by
// way of ParseBase, which inlines to one load.
var baseCode = func() (t [256]uint8) {
	for c := range t {
		t[c] = noBase
	}
	for b, c := range baseLetters {
		t[c], t[c|0x20] = uint8(b), uint8(b)
	}
	return t
}()

// Genotype is one of the ten unordered diploid genotypes (pairs of alleles).
// The encoding matches the type_likely indexing of SOAPsnp's likelihood
// algorithm: allele1<<2 | allele2 with allele1 <= allele2, giving the sparse
// set {0,1,2,3,5,6,7,10,11,15} inside a 16-slot table.
type Genotype uint8

// NGenotypes is the number of unordered diploid genotypes.
const NGenotypes = 10

// MakeGenotype builds the genotype for the unordered allele pair {a1, a2}.
func MakeGenotype(a1, a2 Base) Genotype {
	if a1 > a2 {
		a1, a2 = a2, a1
	}
	return Genotype(a1<<2 | a2)
}

// HomozygousGenotype returns the genotype with both alleles equal to b.
func HomozygousGenotype(b Base) Genotype { return MakeGenotype(b, b) }

// Alleles returns the two alleles of g with Allele1 <= Allele2.
func (g Genotype) Alleles() (a1, a2 Base) {
	return Base(g>>2) & 3, Base(g) & 3
}

// IsHomozygous reports whether both alleles of g are identical.
func (g Genotype) IsHomozygous() bool {
	a1, a2 := g.Alleles()
	return a1 == a2
}

// Contains reports whether b is one of g's alleles.
func (g Genotype) Contains(b Base) bool {
	a1, a2 := g.Alleles()
	return a1 == b || a2 == b
}

// String renders the genotype as its two allele letters, e.g. "AG".
func (g Genotype) String() string {
	a1, a2 := g.Alleles()
	return string([]byte{a1.Byte(), a2.Byte()})
}

// IUPAC returns the IUPAC ambiguity code for the genotype, as used in the
// consensus column of the SOAPsnp result table (e.g. A/G -> 'R', A/A -> 'A').
func (g Genotype) IUPAC() byte {
	a1, a2 := g.Alleles()
	if a1 == a2 {
		return a1.Byte()
	}
	switch [2]Base{a1, a2} {
	case [2]Base{A, C}:
		return 'M'
	case [2]Base{A, G}:
		return 'R'
	case [2]Base{A, T}:
		return 'W'
	case [2]Base{C, G}:
		return 'S'
	case [2]Base{C, T}:
		return 'Y'
	case [2]Base{G, T}:
		return 'K'
	}
	return 'N' // unreachable for valid genotypes
}

// genotypeOrder lists the ten genotypes in the canonical double-loop order
// allele1 in 0..3, allele2 in allele1..3 used throughout the likelihood code.
var genotypeOrder = func() [NGenotypes]Genotype {
	var gs [NGenotypes]Genotype
	n := 0
	for a1 := Base(0); a1 < NBases; a1++ {
		for a2 := a1; a2 < NBases; a2++ {
			gs[n] = MakeGenotype(a1, a2)
			n++
		}
	}
	return gs
}()

// genotypeRank maps the 16-slot encoding to the dense rank 0..9 (or -1).
var genotypeRank = func() [16]int8 {
	var r [16]int8
	for i := range r {
		r[i] = -1
	}
	for i, g := range genotypeOrder {
		r[g] = int8(i)
	}
	return r
}()

// Genotypes returns the ten genotypes in canonical order. The returned array
// is a copy; callers may modify it freely.
func Genotypes() [NGenotypes]Genotype { return genotypeOrder }

// Rank returns the dense index 0..9 of g in canonical order, or -1 if g is
// not a valid unordered genotype encoding.
func (g Genotype) Rank() int {
	if g >= 16 {
		return -1
	}
	return int(genotypeRank[g])
}

// GenotypeByRank returns the genotype with the given canonical rank 0..9.
// It panics if rank is out of range.
func GenotypeByRank(rank int) Genotype {
	if rank < 0 || rank >= NGenotypes {
		panic(fmt.Sprintf("dna: genotype rank %d out of range", rank))
	}
	return genotypeOrder[rank]
}

// Quality is a Phred-scaled sequencing quality score. GSNP constrains
// scores to [0, QMax) so that log tables over the integer quality domain
// stay small enough for constant memory.
type Quality uint8

// QMax is the exclusive upper bound on quality scores (scores are 0..63),
// matching the 64-entry score dimension of base_occ and log_table.
const QMax = 64

// ClampQuality truncates q into the representable range [0, QMax-1].
func ClampQuality(q int) Quality {
	if q < 0 {
		return 0
	}
	if q >= QMax {
		return QMax - 1
	}
	return Quality(q)
}

// ErrorProbability returns the error probability 10^(-q/10) encoded by the
// Phred score.
func (q Quality) ErrorProbability() float64 {
	return phredErrTable[q&(QMax-1)]
}

// phredErrTable caches 10^(-q/10) for the 64 representable scores.
var phredErrTable = func() [QMax]float64 {
	var t [QMax]float64
	for q := range t {
		t[q] = math.Pow(10, -float64(q)/10)
	}
	return t
}()

// Sequence is an unpacked nucleotide sequence (one Base per element).
type Sequence []Base

// ParseSequence decodes an ASCII string of ACGT letters. Characters outside
// the alphabet (e.g. N) are reported in err and mapped to A so callers that
// tolerate Ns can ignore the error.
func ParseSequence(s string) (Sequence, error) {
	seq := make(Sequence, len(s))
	var bad int
	for i := 0; i < len(s); i++ {
		b, ok := ParseBase(s[i])
		if !ok {
			bad++
		}
		seq[i] = b
	}
	if bad > 0 {
		return seq, fmt.Errorf("dna: %d non-ACGT characters in sequence of length %d", bad, len(s))
	}
	return seq, nil
}

// String renders the sequence as ASCII letters.
func (s Sequence) String() string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, b := range s {
		sb.WriteByte(b.Byte())
	}
	return sb.String()
}

// ReverseComplement returns the reverse complement of s as a new sequence.
func (s Sequence) ReverseComplement() Sequence {
	rc := make(Sequence, len(s))
	for i, b := range s {
		rc[len(s)-1-i] = b.Complement()
	}
	return rc
}

// GCContent returns the fraction of G/C bases in s, or 0 for an empty
// sequence.
func (s Sequence) GCContent() float64 {
	if len(s) == 0 {
		return 0
	}
	n := 0
	for _, b := range s {
		if b == C || b == G {
			n++
		}
	}
	return float64(n) / float64(len(s))
}
