package snpio

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/reads"
)

// makeRows builds a realistic window of result rows: mostly hom-ref with
// occasional SNPs, run-structured quality columns.
func makeRows(chr string, start int64, n int, seed int64) []Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	letters := []byte{'A', 'C', 'G', 'T'}
	depth := uint16(9)
	qual := uint8(40)
	for i := range rows {
		if i%13 == 0 {
			depth = uint16(5 + rng.Intn(10))
		}
		if i%17 == 0 {
			qual = uint8(20 + rng.Intn(40))
		}
		ref := letters[rng.Intn(4)]
		r := Row{
			Chr: chr, Pos: start + int64(i), Ref: ref, Genotype: ref,
			Quality: qual, BestBase: ref, AvgQualBest: qual - 5,
			CountBest: depth, CountUniqBest: depth - 1,
			SecondBase: 'N', Depth: depth, RankSumP: 1, CopyNum: 1.001,
		}
		if rng.Float64() < 0.002 {
			// A het SNP row exercising the sparse columns.
			r.Genotype = 'R'
			r.SecondBase = 'G'
			r.AvgQualSecond = 30
			r.CountSecond = depth / 2
			r.CountUniqSecond = depth / 2
			r.RankSumP = 0.4321
			r.IsDbSNP = 1
		}
		QuantizeRow(&r)
		rows[i] = r
	}
	return rows
}

func TestBlockRoundTrip(t *testing.T) {
	rows := makeRows("chr21", 1, 5000, 3)
	var buf bytes.Buffer
	w := NewBlockWriter(&buf)
	if err := w.WriteBlock(rows[:2500]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(rows[2500:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Blocks() != 2 {
		t.Errorf("Blocks = %d", w.Blocks())
	}
	got, err := ReadAllBlocks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d corrupted:\n got %+v\nwant %+v", i, got[i], rows[i])
		}
	}
}

func TestBlockCompressionRatio(t *testing.T) {
	rows := makeRows("chr1", 1, 20000, 5)
	var bin bytes.Buffer
	w := NewBlockWriter(&bin)
	if err := w.WriteBlock(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	rw := NewResultWriter(&text)
	for i := range rows {
		if err := rw.Write(&rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(text.Len()) / float64(bin.Len())
	// The paper reports plain output 14-16x larger than GSNP's.
	if ratio < 8 {
		t.Errorf("compression ratio = %.1f, want >= 8 (paper: 14-16)", ratio)
	}
	t.Logf("text %d B, compressed %d B, ratio %.1fx", text.Len(), bin.Len(), ratio)
}

func TestBlockWriterGPUByteIdentical(t *testing.T) {
	rows := makeRows("chr21", 100, 4000, 9)
	var cpu, dev bytes.Buffer
	w := NewBlockWriter(&cpu)
	if err := w.WriteBlock(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	g := NewBlockWriterGPU(&dev, gpu.NewDevice(gpu.M2050()))
	if err := g.WriteBlock(rows); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cpu.Bytes(), dev.Bytes()) {
		t.Error("GPU-compressed container differs from CPU-compressed container")
	}
}

// writeBlocks runs windows through w and returns the container bytes.
func writeBlocks(t *testing.T, w *BlockWriter, buf *bytes.Buffer, windows [][]Row) []byte {
	t.Helper()
	for _, rows := range windows {
		if err := w.WriteBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBlockWriterGPUConcurrentColumns: with a device the six RLE-DICT
// columns are encoded on up to GOMAXPROCS goroutines. At every setting the
// container equals the CPU writer's byte for byte, and the device has run
// the same program as a serial encode: equal integer counters, equal launch
// counts per kernel. The windows shrink and grow again, so the writer's
// grow-only column staging is reused with stale contents behind it (the
// genotype column is written only where it differs from the reference).
func TestBlockWriterGPUConcurrentColumns(t *testing.T) {
	windows := [][]Row{
		makeRows("chr7", 1, 3000, 21),
		makeRows("chr7", 3001, 700, 22),
		makeRows("chr7", 3701, 5200, 23),
	}
	for i := range windows[0] { // a SNP-dense first window: stale genotypes for the next two
		if i%3 == 0 {
			windows[0][i].Genotype = 'Y'
		}
	}
	var cpu bytes.Buffer
	want := writeBlocks(t, NewBlockWriter(&cpu), &cpu, windows)
	decoded, err := ReadAllBlocks(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if all := slices.Concat(windows...); !slices.Equal(decoded, all) {
		t.Fatal("container written through reused column staging does not decode to its rows")
	}

	type deviceProgram struct {
		counters gpu.Stats
		launches map[string]int
	}
	encode := func(procs int) deviceProgram {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d := gpu.NewDevice(gpu.M2050())
		var buf bytes.Buffer
		if got := writeBlocks(t, NewBlockWriterGPU(&buf, d), &buf, windows); !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: GPU-compressed container differs from the CPU-compressed one", procs)
		}
		p := deviceProgram{counters: d.Stats(), launches: map[string]int{}}
		// Simulated seconds are a float sum over the launches, and the
		// order of the summands follows the host schedule.
		p.counters.SimSeconds = 0
		for _, ls := range d.Launches() {
			p.launches[ls.Name]++
		}
		return p
	}
	serial := encode(1)
	if serial.counters.Kernels == 0 || serial.launches["rle_flag"] == 0 {
		t.Fatalf("serial encode ran nothing on the device: %+v", serial)
	}
	// The quality and count columns build their dictionaries from a
	// presence table; the copy-number column is one run of 1001 and is
	// sorted. Both builds must hold under concurrent columns.
	if serial.launches["dict_mark"] == 0 || serial.launches["unique_flag"] == 0 {
		t.Fatalf("windows do not reach both dictionary builds: %v", serial.launches)
	}
	for _, procs := range []int{2, 4} {
		if got := encode(procs); !reflect.DeepEqual(got, serial) {
			t.Errorf("GOMAXPROCS=%d: device program differs from the serial encode:\n got %+v\nwant %+v", procs, got, serial)
		}
	}
}

// TestBlockWriterGPUPanicReachesCaller: a device failure inside a column
// goroutine must surface in WriteBlock's caller, where the engine's window
// quarantine can contain it.
func TestBlockWriterGPUPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// Too little device memory for the codec's buffers: Alloc panics.
	d := gpu.NewDevice(gpu.Config{GlobalMemBytes: 1 << 10})
	var buf bytes.Buffer
	w := NewBlockWriterGPU(&buf, d)
	defer func() {
		if r := recover(); r == nil {
			t.Error("WriteBlock returned normally on a device that cannot hold a column")
		}
	}()
	w.WriteBlock(makeRows("chr7", 1, 2000, 5))
}

func TestBlockWriterValidation(t *testing.T) {
	w := NewBlockWriter(&bytes.Buffer{})
	rows := makeRows("a", 1, 10, 1)
	rows[5].Chr = "b"
	if err := w.WriteBlock(rows); err == nil {
		t.Error("mixed-chromosome block accepted")
	}
	rows = makeRows("a", 1, 10, 1)
	rows[5].Pos = 999
	if err := w.WriteBlock(rows); err == nil {
		t.Error("non-consecutive block accepted")
	}
	if err := w.WriteBlock(nil); err != nil {
		t.Errorf("empty block rejected: %v", err)
	}
}

func TestBlockReaderErrors(t *testing.T) {
	if _, err := ReadAllBlocks(bytes.NewReader([]byte("WRONGMAG"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated block body.
	rows := makeRows("c", 1, 100, 2)
	var buf bytes.Buffer
	w := NewBlockWriter(&buf)
	if err := w.WriteBlock(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadAllBlocks(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated container accepted")
	}
}

func TestQuantizeRow(t *testing.T) {
	r := Row{RankSumP: 0.123456789, CopyNum: 1.23456}
	QuantizeRow(&r)
	if r.RankSumP != 0.12346 {
		t.Errorf("RankSumP = %v", r.RankSumP)
	}
	if r.CopyNum != 1.235 {
		t.Errorf("CopyNum = %v", r.CopyNum)
	}
}

func TestTempInputRoundTrip(t *testing.T) {
	rs := makeReads(t)
	var buf bytes.Buffer
	tw := NewTempWriter(&buf, "chrT")
	for i := range rs {
		if err := tw.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Count() != int64(len(rs)) {
		t.Errorf("Count = %d", tw.Count())
	}

	tr := NewTempReader(&buf)
	for i := range rs {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := &rs[i]
		if got.ID != want.ID || got.Pos != want.Pos || got.Strand != want.Strand || got.Hits != want.Hits {
			t.Fatalf("read %d metadata corrupted", i)
		}
		if got.Bases.String() != want.Bases.String() {
			t.Fatalf("read %d bases corrupted", i)
		}
		for j := range want.Quals {
			if got.Quals[j] != want.Quals[j] {
				t.Fatalf("read %d quals corrupted at %d", i, j)
			}
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
	if tr.Chromosome() != "chrT" {
		t.Errorf("chromosome = %q", tr.Chromosome())
	}
}

// tempRoundTrip writes rs through the temporary-input codec and reads the
// stream back to its end.
func tempRoundTrip(rs []reads.AlignedRead) ([]reads.AlignedRead, error) {
	var buf bytes.Buffer
	tw := NewTempWriter(&buf, "chrT")
	for i := range rs {
		if err := tw.Write(&rs[i]); err != nil {
			return nil, err
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	got := make([]reads.AlignedRead, 0, len(rs))
	tr := NewTempReader(&buf)
	for {
		r, err := tr.Next()
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return nil, err
		}
		got = append(got, r)
	}
}

// TestTempHitsRoundTrip pins the strand/hits field at every width it can
// take: Hits is a full byte, and the caller treats Hits == 1 as "uniquely
// aligned", so a hit count that loses its top bit (129 read back as 1)
// silently promotes a repeat read.
func TestTempHitsRoundTrip(t *testing.T) {
	rs := []reads.AlignedRead{}
	for _, hits := range []uint8{1, 63, 64, 127, 128, 129, 255} {
		for strand := uint8(0); strand < 2; strand++ {
			rs = append(rs, reads.AlignedRead{
				ID: int64(len(rs)), Pos: 3 * len(rs), Strand: strand, Hits: hits,
				Bases: dna.Sequence{dna.A, dna.C, dna.G, dna.T}, Quals: []dna.Quality{40, 30, 20, 10},
			})
		}
	}
	got, err := tempRoundTrip(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("%d reads back, wrote %d", len(got), len(rs))
	}
	for i := range rs {
		if !reflect.DeepEqual(got[i], rs[i]) {
			t.Errorf("read %d: wrote strand %d hits %d, read back strand %d hits %d (%+v)",
				i, rs[i].Strand, rs[i].Hits, got[i].Strand, got[i].Hits, got[i])
		}
	}
}

func TestTempInputSmallerThanText(t *testing.T) {
	rs := makeReads(t)
	var text, bin bytes.Buffer
	if err := WriteSOAP(&text, "chrT", rs); err != nil {
		t.Fatal(err)
	}
	tw := NewTempWriter(&bin, "chrT")
	for i := range rs {
		if err := tw.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(bin.Len()) / float64(text.Len())
	// Figure 10(b): compressed input around one third of the original.
	if ratio > 0.45 {
		t.Errorf("temp input is %.0f%% of text size, want <= 45%% (paper ~33%%)", 100*ratio)
	}
	t.Logf("text %d B, temp %d B (%.0f%%)", text.Len(), bin.Len(), 100*ratio)
}

func TestTempReaderBadMagic(t *testing.T) {
	tr := NewTempReader(bytes.NewReader([]byte("NOTMAGIC")))
	if _, err := tr.Next(); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBlockReaderStreamsBlockByBlock(t *testing.T) {
	var buf bytes.Buffer
	w := NewBlockWriter(&buf)
	for blk := 0; blk < 4; blk++ {
		rows := makeRows("chrS", int64(1+1000*blk), 1000, int64(blk))
		if err := w.WriteBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	br := NewBlockReader(&buf)
	blocks := 0
	for {
		blk, err := br.NextBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(blk) != 1000 {
			t.Fatalf("block %d has %d rows", blocks, len(blk))
		}
		if blk[0].Pos != int64(1+1000*blocks) {
			t.Fatalf("block %d starts at %d", blocks, blk[0].Pos)
		}
		blocks++
	}
	if blocks != 4 {
		t.Errorf("streamed %d blocks, want 4", blocks)
	}
}

func TestTempWriterEmptyFlush(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTempWriter(&buf, "c")
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty temp writer produced %d bytes", buf.Len())
	}
}
