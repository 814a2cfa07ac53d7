package dna

import (
	"math"
	"testing"
)

func TestBaseLetters(t *testing.T) {
	cases := []struct {
		b Base
		c byte
	}{{A, 'A'}, {C, 'C'}, {G, 'G'}, {T, 'T'}}
	for _, tc := range cases {
		if tc.b.Byte() != tc.c {
			t.Errorf("Base(%d).Byte() = %c, want %c", tc.b, tc.b.Byte(), tc.c)
		}
		got, ok := ParseBase(tc.c)
		if !ok || got != tc.b {
			t.Errorf("ParseBase(%c) = %v, %v; want %v, true", tc.c, got, ok, tc.b)
		}
		lower := tc.c + 'a' - 'A'
		got, ok = ParseBase(lower)
		if !ok || got != tc.b {
			t.Errorf("ParseBase(%c) = %v, %v; want %v, true", lower, got, ok, tc.b)
		}
	}
	if _, ok := ParseBase('N'); ok {
		t.Error("ParseBase('N') reported ok")
	}
	if _, ok := ParseBase('x'); ok {
		t.Error("ParseBase('x') reported ok")
	}
}

// parseBaseSwitch is ParseBase as it was before the decode table, kept as
// the table's oracle.
func parseBaseSwitch(c byte) (b Base, ok bool) {
	switch c {
	case 'A', 'a':
		return A, true
	case 'C', 'c':
		return C, true
	case 'G', 'g':
		return G, true
	case 'T', 't':
		return T, true
	}
	return 0, false
}

// TestParseBaseTable checks every byte: ACGT in either case decodes with
// ok, anything else decodes as A with !ok, exactly as the switch did.
func TestParseBaseTable(t *testing.T) {
	for c := 0; c < 256; c++ {
		got, ok := ParseBase(byte(c))
		want, wantOK := parseBaseSwitch(byte(c))
		if got != want || ok != wantOK {
			t.Errorf("ParseBase(%#x) = %v, %v; want %v, %v", c, got, ok, want, wantOK)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, C: G, G: C, T: A}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("%v.Complement() = %v, want %v", b, got, want)
		}
		if got := b.Complement().Complement(); got != b {
			t.Errorf("double complement of %v = %v", b, got)
		}
	}
}

func TestTransitions(t *testing.T) {
	transitions := [][2]Base{{A, G}, {G, A}, {C, T}, {T, C}}
	for _, p := range transitions {
		if !p[0].IsTransition(p[1]) {
			t.Errorf("%v->%v should be a transition", p[0], p[1])
		}
	}
	transversions := [][2]Base{{A, C}, {A, T}, {C, G}, {G, T}, {C, A}, {T, G}}
	for _, p := range transversions {
		if p[0].IsTransition(p[1]) {
			t.Errorf("%v->%v should be a transversion", p[0], p[1])
		}
	}
	for b := Base(0); b < NBases; b++ {
		if b.IsTransition(b) {
			t.Errorf("%v->%v (identity) reported as transition", b, b)
		}
	}
}

func TestGenotypeEnumeration(t *testing.T) {
	gs := Genotypes()
	if len(gs) != NGenotypes {
		t.Fatalf("Genotypes() returned %d entries", len(gs))
	}
	seen := map[Genotype]bool{}
	for i, g := range gs {
		if seen[g] {
			t.Errorf("duplicate genotype %v at rank %d", g, i)
		}
		seen[g] = true
		if g.Rank() != i {
			t.Errorf("genotype %v rank = %d, want %d", g, g.Rank(), i)
		}
		if GenotypeByRank(i) != g {
			t.Errorf("GenotypeByRank(%d) = %v, want %v", i, GenotypeByRank(i), g)
		}
		a1, a2 := g.Alleles()
		if a1 > a2 {
			t.Errorf("genotype %v alleles out of order: %v > %v", g, a1, a2)
		}
	}
	// The canonical order starts AA, AC, AG, AT, CC, ...
	if gs[0] != MakeGenotype(A, A) || gs[1] != MakeGenotype(A, C) || gs[4] != MakeGenotype(C, C) {
		t.Errorf("unexpected canonical order: %v", gs)
	}
}

func TestMakeGenotypeUnordered(t *testing.T) {
	if MakeGenotype(G, A) != MakeGenotype(A, G) {
		t.Error("MakeGenotype is order sensitive")
	}
	g := MakeGenotype(T, C)
	a1, a2 := g.Alleles()
	if a1 != C || a2 != T {
		t.Errorf("alleles of CT genotype = %v,%v", a1, a2)
	}
	if !g.Contains(C) || !g.Contains(T) || g.Contains(A) {
		t.Error("Contains misreports alleles")
	}
	if g.IsHomozygous() {
		t.Error("CT reported homozygous")
	}
	if !HomozygousGenotype(G).IsHomozygous() {
		t.Error("GG reported heterozygous")
	}
}

func TestGenotypeRankInvalid(t *testing.T) {
	// Encodings with allele1 > allele2 are not canonical genotypes.
	if Genotype(G<<2|A).Rank() != -1 {
		t.Error("non-canonical encoding has a rank")
	}
	if Genotype(200).Rank() != -1 {
		t.Error("out-of-range encoding has a rank")
	}
}

func TestGenotypeByRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GenotypeByRank(10) did not panic")
		}
	}()
	GenotypeByRank(NGenotypes)
}

func TestIUPAC(t *testing.T) {
	cases := map[Genotype]byte{
		MakeGenotype(A, A): 'A',
		MakeGenotype(C, C): 'C',
		MakeGenotype(G, G): 'G',
		MakeGenotype(T, T): 'T',
		MakeGenotype(A, C): 'M',
		MakeGenotype(A, G): 'R',
		MakeGenotype(A, T): 'W',
		MakeGenotype(C, G): 'S',
		MakeGenotype(C, T): 'Y',
		MakeGenotype(G, T): 'K',
	}
	if len(cases) != NGenotypes {
		t.Fatal("test table incomplete")
	}
	for g, want := range cases {
		if got := g.IUPAC(); got != want {
			t.Errorf("%v.IUPAC() = %c, want %c", g, got, want)
		}
	}
}

func TestClampQuality(t *testing.T) {
	if ClampQuality(-5) != 0 {
		t.Error("negative quality not clamped to 0")
	}
	if ClampQuality(1000) != QMax-1 {
		t.Error("large quality not clamped to QMax-1")
	}
	if ClampQuality(40) != 40 {
		t.Error("in-range quality altered")
	}
}

func TestErrorProbability(t *testing.T) {
	if got := Quality(0).ErrorProbability(); got != 1 {
		t.Errorf("Q0 error probability = %v, want 1", got)
	}
	if got := Quality(10).ErrorProbability(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Q10 error probability = %v, want 0.1", got)
	}
	if got := Quality(30).ErrorProbability(); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("Q30 error probability = %v, want 0.001", got)
	}
	// Monotone decreasing.
	for q := 1; q < QMax; q++ {
		if Quality(q).ErrorProbability() >= Quality(q-1).ErrorProbability() {
			t.Fatalf("error probability not decreasing at q=%d", q)
		}
	}
}

func TestParseSequence(t *testing.T) {
	s, err := ParseSequence("ACGTacgt")
	if err != nil {
		t.Fatalf("ParseSequence: %v", err)
	}
	want := Sequence{A, C, G, T, A, C, G, T}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("position %d = %v, want %v", i, s[i], want[i])
		}
	}
	if s.String() != "ACGTACGT" {
		t.Errorf("String() = %q", s.String())
	}

	s, err = ParseSequence("ANT")
	if err == nil {
		t.Error("ParseSequence accepted N silently")
	}
	if len(s) != 3 || s[1] != A {
		t.Errorf("N not mapped to A: %v", s)
	}
}

func TestReverseComplement(t *testing.T) {
	s, _ := ParseSequence("AACGT")
	rc := s.ReverseComplement()
	if rc.String() != "ACGTT" {
		t.Errorf("ReverseComplement = %q, want ACGTT", rc.String())
	}
	back := rc.ReverseComplement()
	if back.String() != s.String() {
		t.Errorf("double reverse complement = %q", back.String())
	}
}

func TestGCContent(t *testing.T) {
	s, _ := ParseSequence("GGCC")
	if s.GCContent() != 1 {
		t.Error("GGCC GC content != 1")
	}
	s, _ = ParseSequence("AATT")
	if s.GCContent() != 0 {
		t.Error("AATT GC content != 0")
	}
	s, _ = ParseSequence("ACGT")
	if s.GCContent() != 0.5 {
		t.Error("ACGT GC content != 0.5")
	}
	if (Sequence{}).GCContent() != 0 {
		t.Error("empty GC content != 0")
	}
}
