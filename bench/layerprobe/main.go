// Command layerprobe is the benchmark's layer tier: it calls the public
// functions of the program's leaf packages over the inputs of one run,
// with a span around every call, and prints per-layer metrics as JSON. It
// is the only part of the benchmark that imports gsnp/internal/..., and a
// module of its own, so a refactor that changes one of these APIs stops
// this program from building and nothing else.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gsnp/internal/align"
	"gsnp/internal/bayes"
	"gsnp/internal/checkpoint"
	"gsnp/internal/compress"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/journal"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/resultcache"
	"gsnp/internal/snpio"
	"gsnp/internal/sortnet"
)

// span matches the parent benchmark's span: Unix nanoseconds, Parent 0
// for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Unit   string `json:"unit,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type report struct {
	Metrics map[string]float64            `json:"metrics"`
	Spans   []span                        `json:"spans"`
	Units   map[string]map[string]float64 `json:"units,omitempty"`
}

// prober holds one run's inputs, loaded on first use, and what the probes
// have measured so far.
type prober struct {
	stem, work string
	seed       int64
	rep        report

	ref     dna.Sequence
	aligned []reads.AlignedRead
	raws    []align.RawRead
	rows    []snpio.Row
}

// minSeconds is how long a probe repeats its call: the inputs are one
// chromosome, so one call is milliseconds and a single timing would be
// mostly noise. maxCalls bounds the spans a fast call leaves in the trace.
const (
	minSeconds = 0.25
	maxCalls   = 200
)

// timed calls f repeatedly for minSeconds (three times at least, maxCalls
// at most), each call in a span of its layer, and returns the median
// seconds of a call.
func (p *prober) timed(name string, f func()) float64 {
	layer, _, _ := strings.Cut(name, ".")
	var secs []float64
	for begin := time.Now(); len(secs) < 3 || (time.Since(begin).Seconds() < minSeconds && len(secs) < maxCalls); {
		start := time.Now()
		f()
		end := time.Now()
		secs = append(secs, p.span(name, layer, start, end))
	}
	sort.Float64s(secs)
	return secs[len(secs)/2]
}

// span records one call and returns its seconds.
func (p *prober) span(name, layer string, start, end time.Time) float64 {
	p.rep.Spans = append(p.rep.Spans, span{ID: len(p.rep.Spans) + 1, Name: name, Layer: layer,
		Start: start.UnixNano(), End: end.UnixNano()})
	return end.Sub(start).Seconds()
}

func (p *prober) set(name string, v float64) { p.rep.Metrics[name] = v }

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerprobe:", err)
		os.Exit(1)
	}
}

func readFile(path string) []byte {
	data, err := os.ReadFile(path)
	check(err)
	return data
}

func (p *prober) loadRef() dna.Sequence {
	if p.ref == nil {
		p.ref = readRef(p.stem + ".fa")
	}
	return p.ref
}

func readRef(path string) dna.Sequence {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	recs, err := snpio.ReadFASTA(f)
	check(err)
	if len(recs) != 1 {
		check(fmt.Errorf("%s: %d FASTA records, want 1", path, len(recs)))
	}
	return recs[0].Seq
}

func (p *prober) loadAligned() []reads.AlignedRead {
	if p.aligned == nil {
		var err error
		p.aligned, _, err = snpio.ReadSOAP(strings.NewReader(string(readFile(p.stem + ".soap"))))
		check(err)
	}
	return p.aligned
}

func (p *prober) loadRaws() []align.RawRead {
	if p.raws == nil {
		var err error
		p.raws, err = snpio.ReadFASTQ(strings.NewReader(string(readFile(p.stem + ".fq"))))
		check(err)
	}
	return p.raws
}

func (p *prober) loadRows() []snpio.Row {
	if p.rows == nil {
		var err error
		p.rows, err = snpio.ReadResults(strings.NewReader(string(readFile(p.stem + ".result"))))
		check(err)
	}
	return p.rows
}

// countingWriter is the sink of the output probes: it keeps the byte
// count and drops the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// probes maps a probe's name to its code. The benchmark picks, per
// workload, the probes of the layers that workload enters.
var probes = map[string]func(*prober){
	"snpio.soap":        (*prober).snpioSOAP,
	"snpio.fastq":       (*prober).snpioFASTQ,
	"snpio.rows":        (*prober).snpioRows,
	"snpio.vcf":         (*prober).snpioVCF,
	"snpio.block":       (*prober).snpioBlock,
	"align":             (*prober).align,
	"pipeline":          (*prober).pipeline,
	"bayes":             (*prober).bayes,
	"sortnet.quicksort": (*prober).quicksort,
	"gpu":               (*prober).gpuSort,
	"compress":          (*prober).compress,
	"journal":           (*prober).journal,
	"checkpoint":        (*prober).checkpoint,
	"resultcache":       (*prober).resultcache,
}

func (p *prober) snpioSOAP() {
	data := readFile(p.stem + ".soap")
	s := p.timed("snpio.soap_parse", func() {
		sr := snpio.NewSOAPReader(strings.NewReader(string(data)))
		for {
			if _, err := sr.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					check(err)
				}
				return
			}
		}
	})
	p.set("snpio.soap_parse_mb_s", float64(len(data))/1e6/s)
}

func (p *prober) snpioFASTQ() {
	data := readFile(p.stem + ".fq")
	s := p.timed("snpio.fastq_parse", func() {
		_, err := snpio.ReadFASTQ(strings.NewReader(string(data)))
		check(err)
	})
	p.set("snpio.fastq_parse_mb_s", float64(len(data))/1e6/s)
}

// replay pushes the workload's rows through a row codec into a counting
// writer and returns the bytes written.
func replay(rows []snpio.Row, w snpio.RowWriter) {
	for i := range rows {
		check(w.Write(&rows[i]))
	}
	check(w.Flush())
}

func (p *prober) snpioRows() {
	rows := p.loadRows()
	var out countingWriter
	s := p.timed("snpio.rows_write", func() {
		out.n = 0
		replay(rows, snpio.NewResultWriter(&out))
	})
	p.set("snpio.rows_write_mb_s", float64(out.n)/1e6/s)
}

func (p *prober) snpioVCF() {
	rows := p.loadRows()
	var out countingWriter
	s := p.timed("snpio.vcf_write", func() { replay(rows, snpio.NewVCFWriter(&out)) })
	p.set("snpio.vcf_write_rows_s", float64(len(rows))/s)
}

// blockRows is the engines' default window: the packed container holds
// one block per window.
const blockRows = 256000

func writeBlocks(rows []snpio.Row, bw *snpio.BlockWriter) {
	for len(rows) > 0 {
		n := min(len(rows), blockRows)
		check(bw.WriteBlock(rows[:n]))
		rows = rows[n:]
	}
	check(bw.Flush())
}

func (p *prober) snpioBlock() {
	rows := p.loadRows()
	var text, packed countingWriter
	replay(rows, snpio.NewResultWriter(&text))
	s := p.timed("snpio.block_write", func() {
		packed.n = 0
		writeBlocks(rows, snpio.NewBlockWriter(&packed))
	})
	p.set("snpio.block_write_mb_s", float64(text.n)/1e6/s)
	p.set("snpio.block_ratio", float64(text.n)/float64(packed.n))
	s = p.timed("snpio.block_write_gpu", func() {
		writeBlocks(rows, snpio.NewBlockWriterGPU(&packed, gpu.NewDevice(gpu.M2050())))
	})
	p.set("snpio.block_write_gpu_mb_s", float64(text.n)/1e6/s)
}

// memDelta runs f and returns the heap objects and bytes it allocated.
func memDelta(f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

func (p *prober) align() {
	ref, raws := p.loadRef(), p.loadRaws()
	var ix *align.Index
	s := p.timed("align.index", func() {
		var err error
		ix, err = align.BuildIndex(ref, align.DefaultK)
		check(err)
	})
	p.set("align.index_sites_per_s", float64(len(ref))/s)
	workers := runtime.GOMAXPROCS(0)
	placed := 0
	par := p.timed("align.reads", func() {
		placed = len(align.AlignReadsParallel(ix, raws, align.DefaultMaxMismatch, workers))
	})
	serial := p.timed("align.reads_serial", func() { align.AlignReadsParallel(ix, raws, align.DefaultMaxMismatch, 1) })
	n := float64(len(raws))
	p.set("align.reads_per_s", n/par)
	p.set("align.reads_per_s_serial", n/serial)
	p.set("align.scaling_eff", serial/(float64(workers)*par))
	p.set("align.placed_share", float64(placed)/n)
	allocs, bytes := memDelta(func() { align.AlignReadsParallel(ix, raws, align.DefaultMaxMismatch, 1) })
	p.set("align.allocs_per_read", allocs/n)
	p.set("align.bytes_per_read", bytes/n)
}

func (p *prober) pipeline() {
	ref, aligned := p.loadRef(), p.loadAligned()
	src := pipeline.MemSource(aligned)
	s := p.timed("pipeline.cal_p", func() {
		_, _, err := pipeline.CalibrationPass(src, ref, nil)
		check(err)
	})
	p.set("pipeline.cal_p_reads_per_s", float64(len(aligned))/s)
	var buf []reads.AlignedRead
	s = p.timed("pipeline.window", func() {
		it, err := src.Open()
		check(err)
		win := pipeline.NewWindower(it)
		for start := 0; start < len(ref); start += blockRows {
			buf, err = win.AppendReads(buf[:0], start, min(start+blockRows, len(ref)))
			check(err)
		}
	})
	p.set("pipeline.window_reads_per_s", float64(len(aligned))/s)
}

func (p *prober) bayes() {
	s := p.timed("bayes.build_tables", func() { bayes.BuildTables(bayes.NewPMatrixFromPhred()) })
	p.set("bayes.build_tables_ms", s*1e3)
	rng := rand.New(rand.NewSource(p.seed))
	var likely [bayes.TypeLikelySize]float64
	var priors [dna.NGenotypes]float64
	for i := range likely {
		likely[i] = -10 * rng.Float64()
	}
	for i := range priors {
		priors[i] = -5 * rng.Float64()
	}
	const calls = 200000
	var sink bayes.Call
	s = p.timed("bayes.posterior", func() {
		for i := 0; i < calls; i++ {
			sink = bayes.Posterior(&likely, &priors)
		}
	})
	_ = sink
	p.set("bayes.posterior_ns", s*1e9/calls)
}

// batches builds the per-site arrays of the workload's chromosome: array i
// has one element per read covering site i (the depth-11 size
// distribution of the real counting stage) and seeded random words, since
// packing observations into words is the engine's business.
func (p *prober) batches() *sortnet.Batches {
	ref, aligned := p.loadRef(), p.loadAligned()
	b := &sortnet.Batches{Bounds: make([]int32, len(ref)+1)}
	for i := range aligned {
		r := &aligned[i]
		for pos := r.Pos; pos < r.Pos+len(r.Bases) && pos < len(ref); pos++ {
			b.Bounds[pos+1]++
		}
	}
	for i := 1; i <= len(ref); i++ {
		b.Bounds[i] += b.Bounds[i-1]
	}
	rng := rand.New(rand.NewSource(p.seed))
	b.Data = make([]uint32, b.Bounds[len(ref)])
	for i := range b.Data {
		b.Data[i] = rng.Uint32()
	}
	return b
}

func (p *prober) quicksort() {
	orig := p.batches()
	b := &sortnet.Batches{Data: make([]uint32, len(orig.Data)), Bounds: orig.Bounds}
	workers := runtime.GOMAXPROCS(0)
	s := p.timed("sortnet.quicksort", func() {
		copy(b.Data, orig.Data)
		sortnet.ParallelQuicksort(b, workers)
	})
	p.set("sortnet.quicksort_melem_s", float64(len(orig.Data))/1e6/s)
}

// gpuSort runs the batch bitonic sort on a fresh simulated device and
// reads both layers' numbers from it: the sort's throughput and padding,
// and the simulator's host cost per launch and hardware counters. The
// counters are counts of the simulated program, so they repeat exactly.
func (p *prober) gpuSort() {
	orig := p.batches()
	b := &sortnet.Batches{Data: make([]uint32, len(orig.Data)), Bounds: orig.Bounds}
	var dev *gpu.Device
	var st sortnet.Stats
	s := p.timed("sortnet.multipass", func() {
		copy(b.Data, orig.Data)
		dev = gpu.NewDevice(gpu.M2050())
		st = sortnet.MultipassBitonic(dev, b)
	})
	elems := float64(len(orig.Data))
	p.set("sortnet.multipass_melem_s", elems/1e6/s)
	p.set("sortnet.padding_ratio", float64(st.ElementsSorted)/elems)
	hw := dev.Stats()
	p.set("gpu.host_us_per_launch", s*1e6/float64(max(hw.Kernels, 1)))
	p.set("gpu.sim_s_per_melem", hw.SimSeconds/(elems/1e6))
	p.set("gpu.instr_per_elem", float64(hw.Instructions)/elems)
	p.set("gpu.tx_per_access", float64(hw.GlobalTransactions)/float64(max(hw.GlobalLoads+hw.GlobalStores, 1)))
}

// compress runs each codec over the column of the workload's rows it
// packs in the container: a low-cardinality column for RLE-DICT, a mostly
// default column for the sparse codec, the bases for 2-bit packing.
func (p *prober) compress() {
	rows := p.loadRows()
	quality, second := make([]uint32, len(rows)), make([]uint32, len(rows))
	bases := make([]uint8, len(rows))
	for i := range rows {
		quality[i] = uint32(rows[i].Quality)
		second[i] = uint32(rows[i].CountSecond)
		bases[i] = uint8(strings.IndexByte("ACGT", rows[i].Ref)) & 3
	}
	mb := float64(4*len(rows)) / 1e6
	p.set("compress.rledict_mb_s", mb/p.timed("compress.rledict", func() { compress.RLEDictEncode(quality) }))
	p.set("compress.sparse_mb_s", mb/p.timed("compress.sparse", func() { compress.SparseEncode(second, 0) }))
	p.set("compress.pack2bit_mb_s", mb/4/p.timed("compress.pack2bit", func() { compress.Pack2Bit(bases) }))
	p.set("compress.rledict_gpu_mb_s", mb/p.timed("compress.rledict_gpu", func() {
		compress.RLEDictEncodeGPU(gpu.NewDevice(gpu.M2050()), quality)
	}))
}

func percentile(sorted []float64, q float64) float64 { return sorted[int(q*float64(len(sorted)-1))] }

func (p *prober) journal() {
	const jobs, replayed = 200, 2000
	accept := func(j *journal.Journal, seq int) {
		id := fmt.Sprintf("job-%06d", seq)
		check(j.Accept(journal.Entry{Seq: seq, Job: id, Spec: json.RawMessage(`{"genome_dir":"/x","engine":"gsnp-cpu"}`),
			Fingerprint: "probe", Digests: []string{"a", "b", "c"}, Created: time.Unix(0, 0)}))
		check(j.Final(seq, id, "done"))
	}
	j, err := journal.Open(journal.Config{Dir: filepath.Join(p.work, "journal")})
	check(err)
	var ms []float64
	for seq := 1; seq <= jobs; seq++ {
		start := time.Now()
		accept(j, seq)
		ms = append(ms, p.span("journal.accept_final", "journal", start, time.Now())*1e3)
	}
	check(j.Close())
	sort.Float64s(ms)
	p.set("journal.accept_ms_p50", percentile(ms, 0.50))
	p.set("journal.accept_ms_p95", percentile(ms, 0.95)) // 200 samples: ten lie beyond p95

	// A WAL of 2000 accepted jobs, half of them still pending: only the
	// replay is timed.
	dir := filepath.Join(p.work, "journal-replay")
	j, err = journal.Open(journal.Config{Dir: dir, RotateBytes: 1 << 30})
	check(err)
	for seq := 1; seq <= replayed; seq++ {
		id := fmt.Sprintf("job-%06d", seq)
		check(j.Accept(journal.Entry{Seq: seq, Job: id, Spec: json.RawMessage(`{"genome_dir":"/x"}`), Created: time.Unix(0, 0)}))
		if seq%2 == 0 {
			check(j.Final(seq, id, "done"))
		}
	}
	check(j.Close())
	s := p.timed("journal.open_replay", func() {
		j, err := journal.Open(journal.Config{Dir: dir, RotateBytes: 1 << 30})
		check(err)
		check(j.Close())
	})
	p.set("journal.open_replay_ms", s*1e3)
}

func (p *prober) checkpoint() {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(p.seed)).Read(data)
	path := filepath.Join(p.work, "atomic.bin")
	check(os.MkdirAll(p.work, 0o755))
	var ms []float64
	for i := 0; i < 100; i++ {
		start := time.Now()
		check(checkpoint.AtomicWrite(path, data))
		ms = append(ms, p.span("checkpoint.atomic_write", "checkpoint", start, time.Now())*1e3)
	}
	sort.Float64s(ms)
	p.set("checkpoint.atomic_write_ms_p50", percentile(ms, 0.50))
	soap := p.stem + ".soap"
	info, err := os.Stat(soap)
	check(err)
	s := p.timed("checkpoint.file_digest", func() {
		_, err := checkpoint.FileDigest(soap)
		check(err)
	})
	p.set("checkpoint.file_digest_mb_s", float64(info.Size())/1e6/s)
}

func (p *prober) resultcache() {
	const n, size, rounds = 32, 4 << 20, 100
	c := resultcache.New[[]byte](int64(n * size))
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = make([]byte, size)
	}
	key := func(i int) string { return fmt.Sprintf("key-%02d", i) }
	keys := make([]string, n)
	for i := range keys {
		keys[i] = key(i)
	}
	s := p.timed("resultcache.put", func() {
		for r := 0; r < rounds; r++ {
			for i, v := range vals {
				c.Put(keys[i], v, size)
			}
		}
	})
	p.set("resultcache.put_us", s*1e6/(n*rounds))
	s = p.timed("resultcache.get", func() {
		for r := 0; r < rounds; r++ {
			for i := range vals {
				if _, ok := c.Get(keys[i]); !ok {
					check(fmt.Errorf("resultcache: %s missing after Put", keys[i]))
				}
			}
		}
	})
	p.set("resultcache.get_us", s*1e6/(n*rounds))
}

// alignUnits replays the alignment stage of every unit of a FASTQ genome
// directory serially, as the program's genomejob layer runs it, and
// records the seconds each unit spends in its three steps; `gsnp -stats`
// prints the engine's stages but not these.
func (p *prober) alignUnits(dir string) {
	fqs, err := filepath.Glob(filepath.Join(dir, "*.fq"))
	check(err)
	sort.Strings(fqs)
	p.rep.Units = make(map[string]map[string]float64)
	for _, fq := range fqs {
		stem := strings.TrimSuffix(fq, ".fq")
		ref := readRef(stem + ".fa")
		t0 := time.Now()
		f, err := os.Open(fq)
		check(err)
		raws, err := snpio.ReadFASTQ(f)
		f.Close()
		check(err)
		t1 := time.Now()
		ix, err := align.BuildIndex(ref, align.DefaultK)
		check(err)
		t2 := time.Now()
		align.AlignReadsParallel(ix, raws, align.DefaultMaxMismatch, 1)
		t3 := time.Now()
		p.rep.Units[filepath.Base(stem)+".fa"] = map[string]float64{
			"fastq_parse": t1.Sub(t0).Seconds(), "index": t2.Sub(t1).Seconds(), "align": t3.Sub(t2).Seconds()}
	}
}

func main() {
	stem := flag.String("stem", "", "path prefix of one chromosome's files: <stem>.fa .soap .fq .result")
	work := flag.String("work", "", "scratch directory for the journal and checkpoint probes")
	seed := flag.Int64("seed", 1, "seed of the synthetic probe inputs")
	names := flag.String("probes", "", "comma-separated probes to run")
	alignDir := flag.String("align-dir", "", "FASTQ genome directory whose alignment stage to replay per unit")
	flag.Parse()
	p := &prober{stem: *stem, work: *work, seed: *seed, rep: report{Metrics: make(map[string]float64)}}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		f, ok := probes[name]
		if !ok {
			check(fmt.Errorf("no probe %q", name))
		}
		f(p)
	}
	if *alignDir != "" {
		p.alignUnits(*alignDir)
	}
	check(json.NewEncoder(os.Stdout).Encode(&p.rep))
}
