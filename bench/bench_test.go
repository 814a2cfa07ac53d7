package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The reporting rule: the highest percentile with at least ten samples
// beyond it, never below the median.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, gets float64
	}{
		{40, 75, 75},   // ten of 40 lie beyond p75
		{200, 95, 95},  // ten of 200 lie beyond p95
		{100, 95, 90},  // p95 of 100 has only five beyond it
		{20, 75, 50},   // ten beyond means the median
		{3, 95, 50},    // too few for any tail
		{1000, 95, 95}, // never above what was asked for
	} {
		if got := tailPercentile(c.n, c.want); !near(got, c.gets) {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.gets)
		}
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs, 95); !near(got, percentile(xs, 75)) {
		t.Errorf("tail of 40 samples at 95 = %v, want their p75 %v", got, percentile(xs, 75))
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which is
// what the PR driver computes a spread from.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := iqr(xs); !near(got, 5.5) {
		t.Errorf("iqr = %v, want 8.25-2.75", got)
	}
	if got := undisturbed(xs); !near(got, q1) {
		t.Errorf("undisturbed = %v, want the first quartile %v", got, q1)
	}
	if got := undisturbed([]float64{3, 1, 2}); !near(got, 1) {
		t.Errorf("undisturbed of three = %v, want 1", got)
	}
}

// Lines captured from `gsnp -stats` on the three engines and in genome
// mode.
const capturedStats = `gsnp-cpu: 18800 sites, 12 SNPs, mean depth 9.6X, 1032381 output bytes
cal_p=21.868ms read=3.341ms count=9.812ms likeli=5.63ms(sort=2.091ms,comp=3.54ms) post=918µs output=7.228ms recycle=0s total=48.797ms
gsnp: chr21.fa -> chr21.result (worker 0, 187ms, 0.53 Msites/s)
gsnp-gpu: 18800 sites, 12 SNPs, mean depth 9.6X, 1032381 output bytes
cal_p=32.117ms read=3.813ms count=10.492ms likeli=3.773ms(sort=148µs,comp=3.625ms) post=2.082ms output=2.817ms recycle=1µs total=55.095ms
simulated device profile (Tesla M2050 (simulated)):
kernel                           launches     sim time         inst       g_load      g_store coalesce
batch_bitonic                           3    0.000148s     6.19e+07     2.53e+05     2.53e+05     1.0x
soapsnp: 18800 sites, 12 SNPs, mean depth 9.6X
cal_p=15ms read=3ms count=94ms likeli=984ms post=5ms output=9ms recycle=609ms total=1.719s
gsnp: scheduler: 2 workers ran 24 chromosomes in 1.1s (task time 2.1s, speedup 1.91x, longest chr1.fa 208ms)
`

func TestParseStats(t *testing.T) {
	stages, units, err := parseStats(capturedStats)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 || len(units) != 1 {
		t.Fatalf("parsed %d timing lines and %d unit lines, want 3 and 1", len(stages), len(units))
	}
	cpu, gpu, dense := stages[0], stages[1], stages[2]
	if cpu.Engine != "gsnp-cpu" || gpu.Engine != "gsnp-gpu" || dense.Engine != "soapsnp" {
		t.Errorf("engines = %q %q %q", cpu.Engine, gpu.Engine, dense.Engine)
	}
	if !near(cpu.Stage["post"], 918e-6) || !near(cpu.Stage["likeli_sort"], 2.091e-3) || !near(cpu.Stage["likeli_comp"], 3.54e-3) {
		t.Errorf("gsnp-cpu stages = %v", cpu.Stage)
	}
	if !near(cpu.Total, 48.797e-3) {
		t.Errorf("gsnp-cpu total = %v", cpu.Total)
	}
	// likeli already contains its sort and comp halves.
	wantSum := (21.868 + 3.341 + 9.812 + 5.63 + 0.918 + 7.228) / 1e3
	if !near(cpu.sum(), wantSum) {
		t.Errorf("gsnp-cpu stage sum = %v, want %v", cpu.sum(), wantSum)
	}
	if !near(gpu.Stage["recycle"], 1e-6) || !near(gpu.Stage["likeli_sort"], 148e-6) {
		t.Errorf("gsnp-gpu stages = %v", gpu.Stage)
	}
	if _, has := dense.Stage["likeli_sort"]; has || !near(dense.Stage["likeli"], 0.984) || !near(dense.Stage["recycle"], 0.609) || !near(dense.Total, 1.719) {
		t.Errorf("soapsnp stages = %v total %v", dense.Stage, dense.Total)
	}
	if units[0].Name != "chr21.fa" || !near(units[0].Wall, 0.187) {
		t.Errorf("unit line = %+v", units[0])
	}
	if _, _, err := parseStats("cal_p=fast read=3ms\n"); err == nil {
		t.Error("a malformed timing line parsed without error")
	}
}

// A layer's self time is its spans minus what their children cover;
// overlapping children count once and a child is clipped to its parent.
func TestSelfSeconds(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(100, 0).Add(time.Duration(ms) * time.Millisecond) }
	var tr tracer
	root := tr.add(0, "unit", "genomejob", "chr1", at(0), at(1000))
	tr.add(root, "parse", "snpio", "chr1", at(100), at(300))
	likeli := tr.add(root, "likeli", "gsnp", "chr1", at(300), at(700))
	tr.add(likeli, "sort", "sortnet", "chr1", at(300), at(400))
	tr.add(likeli, "sort2", "sortnet", "chr1", at(350), at(500)) // overlaps the first sort
	tr.add(root, "late", "snpio", "chr1", at(900), at(1200))     // runs past its parent
	self := selfSeconds(tr.spans)
	for layer, want := range map[string]float64{
		"genomejob": 1.0 - 0.2 - 0.4 - 0.1, // children cover 100-300, 300-700, 900-1000
		"snpio":     0.2 + 0.3,
		"gsnp":      0.4 - 0.2, // the two sorts cover 300-500 once
		"sortnet":   0.1 + 0.15,
	} {
		if !near(self[layer], want) {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], want)
		}
	}

	// Spans merged from the layerprobe child keep their tree.
	var parent tracer
	host := parent.add(0, "layerprobe", "bench", "", at(0), at(500))
	parent.merge(host, []span{{ID: 1, Name: "a", Layer: "align", Start: 1, End: 2}, {ID: 2, Parent: 1, Name: "b", Layer: "align", Start: 1, End: 2}})
	if got := parent.spans[1].Parent; got != host {
		t.Errorf("merged root hangs under %d, want %d", got, host)
	}
	if got := parent.spans[2].Parent; got != parent.spans[1].ID {
		t.Errorf("merged child hangs under %d, want %d", got, parent.spans[1].ID)
	}
}

const sampleVCF = `##fileformat=VCFv4.2
##source=gsnp
#CHROM	POS	ID	REF	ALT	QUAL	FILTER	INFO	FORMAT	SAMPLE
chrY	3374	.	A	G	32	PASS	DP=12;RSP=1.00000;CN=1.429	GT:GQ	1/1:32
chrY	5596	.	A	G,T	20	PASS	DP=6;RSP=0.06408;CN=0.715	GT:GQ	1/2:20
chrY	5848	.	A	T	95	PASS	DP=12;RSP=0.22160;CN=1.429;DB	GT:GQ	0/1:95
`

const sampleTruth = "chrY\t361\tC\tT\t1\nchrY\t3374\tA\tG\t0\nchrY\t3380\tG\tK\t1\nchrY\t5848\tA\tW\t1\n"

func TestVCFScoring(t *testing.T) {
	called, err := parseVCF(strings.NewReader(sampleVCF))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := parseTruth(strings.NewReader(sampleTruth))
	if err != nil {
		t.Fatal(err)
	}
	if len(called) != 3 || len(truth) != 4 {
		t.Fatalf("parsed %d calls and %d true variants, want 3 and 4", len(called), len(truth))
	}
	sens, prec := score(called, truth)
	if !near(sens, 2.0/4) || !near(prec, 2.0/3) {
		t.Errorf("sensitivity %v precision %v, want 0.5 and 0.667", sens, prec)
	}
	for name, bad := range map[string]string{
		"no header":        "chrY\t1\t.\tA\tG\t9\tPASS\tDP=1\tGT:GQ\t1/1:9\n",
		"short record":     "#CHROM\tPOS\nchrY\t1\t.\tA\tG\n",
		"ALT equals REF":   "#CHROM\tPOS\nchrY\t1\t.\tA\tA\t9\tPASS\tDP=1\tGT:GQ\t1/1:9\n",
		"POS not a number": "#CHROM\tPOS\nchrY\tx\t.\tA\tG\t9\tPASS\tDP=1\tGT:GQ\t1/1:9\n",
	} {
		if _, err := parseVCF(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"same", wall, tight, tight, "within"},
		{"5% slower is inside a 10% bound", wall, tight, scaled(tight, 1.05), "within"},
		{"15% slower", wall, tight, scaled(tight, 1.15), "worse"},
		{"15% faster", wall, tight, scaled(tight, 0.85), "better"},
		{"higher is better: 15% lower is worse", rate, tight, scaled(tight, 0.85), "worse"},
		{"spread wider than the bound", wall, noisy, scaled(noisy, 1.05), "unresolved"},
		{"wide spread, but every new run beats every old one", wall, noisy, scaled(noisy, 0.5), "better"},
		{"wide spread, every new run slower than every old one", wall, noisy, scaled(noisy, 2), "worse"},
		{"setup_s is judged by its medians whatever its spread", metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}, noisy, scaled(noisy, 1.05), "within"},
	} {
		if got, _, _ := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// Metrics that repeat exactly for a seed are paired by seed, so that their
// variation across seeds is not mistaken for noise.
func TestSameSeedVerdict(t *testing.T) {
	sens := metricDef{Name: "sensitivity", Better: "higher", Bound: 0.005, Abs: true}
	failed := metricDef{Name: "failed_share", Better: "lower", Bound: 0, Abs: true}
	old := map[int64]float64{1: 0.70, 2: 0.80, 3: 0.90}
	for _, c := range []struct {
		name string
		d    metricDef
		new  map[int64]float64
		want string
	}{
		{"identical", sens, map[int64]float64{1: 0.70, 2: 0.80, 3: 0.90}, "within"},
		{"one seed dropped by 0.01", sens, map[int64]float64{1: 0.70, 2: 0.79, 3: 0.95}, "worse"},
		{"a drop inside the bound", sens, map[int64]float64{1: 0.697, 2: 0.80, 3: 0.90}, "within"},
		{"every seed gained", sens, map[int64]float64{1: 0.71, 2: 0.81, 3: 0.91}, "better"},
		{"no seed in common", sens, map[int64]float64{7: 0.70}, "unresolved"},
	} {
		if got, _, _ := sameSeedVerdict(c.d, old, c.new); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	none := map[int64]float64{1: 0, 2: 0}
	if got, _, _ := sameSeedVerdict(failed, none, map[int64]float64{1: 0, 2: 0.01}); got != "worse" {
		t.Errorf("a new failure: verdict = %s, want worse", got)
	}
	if got, _, _ := sameSeedVerdict(failed, none, none); got != "within" {
		t.Errorf("no failures on either side: verdict = %s, want within", got)
	}
}

// compare reads only what the results files hold; a worse row is counted.
func TestCompareCountsWorseRows(t *testing.T) {
	file := func(wall float64) *resultsFile {
		f := &resultsFile{}
		for i := 0; i < 4; i++ {
			f.Runs = append(f.Runs, &runRecord{Workload: "genome-soap-rows", Metrics: map[string]metricValue{
				"wall_s": {Value: wall + float64(i)*0.001, Unit: "s"}, "failed_share": {Unit: "share"}}})
		}
		return f
	}
	c := loadTestContract(t)
	var out bytes.Buffer
	if worse, unresolved := compare(&out, c, file(1), file(1.02)); worse != 0 || unresolved != 0 {
		t.Errorf("2%% slower: %d worse, %d unresolved, want none\n%s", worse, unresolved, out.String())
	}
	if worse, _ := compare(&out, c, file(1), file(1.5)); worse != 1 {
		t.Errorf("50%% slower: %d worse rows, want 1\n%s", worse, out.String())
	}
}

// A flipped byte in an output is a failed unit.
func TestCorruptedOutputCountsAsFailure(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for _, name := range []string{"chr1.result", "chr2.result"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("chr\t1\tA\tA\t99\n"+name), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	want, _, failures := checkOutputs(files, nil)
	if len(failures) != 0 || len(want) != 2 {
		t.Fatalf("reference digests: %v, failures %v", want, failures)
	}
	var clean tally
	_, _, failures = checkOutputs(files, want)
	clean.add(len(want), failures)
	if clean.failed != 0 || clean.attempted != 2 {
		t.Errorf("unchanged outputs: %d of %d failed", clean.failed, clean.attempted)
	}

	data, _ := os.ReadFile(files[0])
	data[3] ^= 1
	os.WriteFile(files[0], data, 0o644)
	var hit tally
	_, _, failures = checkOutputs(files, want)
	hit.add(len(want), failures)
	if hit.failed != 1 || hit.attempted != 2 {
		t.Errorf("one flipped byte: %d of %d failed, want 1 of 2 (%v)", hit.failed, hit.attempted, failures)
	}
	os.Remove(files[1])
	_, _, failures = checkOutputs(files[:1], want)
	if len(failures) != 2 {
		t.Errorf("one corrupt and one missing output: failures %v, want 2", failures)
	}
}

// The stream scanner must find the envelope fields and hash the payload
// text without decoding it.
func TestScanRecord(t *testing.T) {
	payload := []byte("chr20\t1\tA\tA\t99\n")
	line, _ := json.Marshal(map[string]any{"job": "job-000001", "index": 0, "name": "chr20.fa", "state": "ok",
		"output_b64": payload, "recovered": true})
	name, final, rec := scanRecord(line)
	if name != "chr20.fa" || final || rec.state != "ok" || !rec.recovered {
		t.Errorf("record = %q final %v %+v", name, final, rec)
	}
	if rec.sum != payloadSum(payload) {
		t.Error("payload digest differs from the digest of the same bytes' base64 text")
	}
	if rec.sum == payloadSum(append(payload, 'x')) {
		t.Error("different bytes, same payload digest")
	}
	_, final, rec = scanRecord([]byte(`{"job":"job-000001","index":3,"state":"cached","final":true}`))
	if !final || rec.state != "cached" {
		t.Errorf("final record: final %v state %q", final, rec.state)
	}
}

// The end-to-end tier drives the programs from outside: none of its files
// may import a package of the program.
func TestEndToEndTierImportsNoProgramPackage(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "gsnp" || strings.HasPrefix(path, "gsnp/") {
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}

func loadTestContract(t *testing.T) *contract {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json must stay inside the limits the PR driver refuses a file
// for, and name each metric once.
func TestBenchmarkJSONWithinTheDriversLimits(t *testing.T) {
	c := loadTestContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	for _, w := range c.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why has %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range c.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, allowed: above 0, at most 0.25", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	seen := make(map[string]bool)
	for _, d := range c.all() {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range c.PerLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
}

// The workload and metric names the issue that defined the benchmark
// lists. A later change that claims a gain names one of each, so none may
// go missing: a name that is absent here is a metric nobody can cite.
func TestEveryNameOfTheIssueIsDefined(t *testing.T) {
	c := loadTestContract(t)
	want := "genome-soap-rows genome-fastq-vcf chr1-soap-packed-gpu chr21-soap-rows-dense serve-mixed"
	if got := strings.Join(c.workloadNames(), " "); got != want {
		t.Errorf("workloads = %s, want %s", got, want)
	}
	gated := strings.Fields(`setup_s wall_s cpu_s peak_rss_mb output_mb job_cold_p50_ms job_cold_p75_ms
		job_cached_p50_ms job_cached_p95_ms job_joined_p50_ms job_recovered_p50_ms`)
	layers := strings.Fields(`failed_share sensitivity precision
		snpio.soap_parse_mb_s snpio.fastq_parse_mb_s snpio.rows_write_mb_s snpio.vcf_write_rows_s
		snpio.block_write_mb_s snpio.block_write_gpu_mb_s snpio.block_ratio
		align.index_sites_per_s align.reads_per_s align.reads_per_s_serial align.scaling_eff
		align.allocs_per_read align.bytes_per_read align.placed_share
		pipeline.cal_p_reads_per_s pipeline.window_reads_per_s
		gsnp.cal_p_s gsnp.read_s gsnp.count_s gsnp.likeli_sort_s gsnp.likeli_comp_s gsnp.post_s
		gsnp.output_s gsnp.recycle_s gsnp.stage_sum_s gsnp.stage_sum_over_wall
		soapsnp.cal_p_s soapsnp.read_s soapsnp.count_s soapsnp.likeli_s soapsnp.post_s
		soapsnp.output_s soapsnp.recycle_s soapsnp.stage_sum_s soapsnp.stage_sum_over_wall
		gpu.host_us_per_launch gpu.sim_s_per_melem gpu.instr_per_elem gpu.tx_per_access
		sortnet.multipass_melem_s sortnet.padding_ratio sortnet.quicksort_melem_s
		bayes.build_tables_ms bayes.posterior_ns
		compress.rledict_mb_s compress.sparse_mb_s compress.pack2bit_mb_s compress.rledict_gpu_mb_s
		sched.serial_wall_s sched.scaling_eff genomejob.self_s
		service.submit_ack_ms_p50 service.submit_ack_cached_ms_p50 service.first_record_ms_p50
		service.stream_mb_s service.cache_hit_share service.singleflight_joins
		service.restart_ready_ms service.recovered_chrom_share service.rejected_share
		journal.accept_ms_p50 journal.accept_ms_p95 journal.open_replay_ms
		checkpoint.atomic_write_ms_p50 checkpoint.file_digest_mb_s
		resultcache.get_us resultcache.put_us bench.trace_overhead_share`)
	for _, name := range gated {
		if d, ok := c.find(name); !ok || d.Bound == 0 {
			t.Errorf("%s is not a bounded end-to-end metric of BENCHMARK.json", name)
		}
	}
	for _, name := range layers {
		if _, ok := c.find(name); !ok {
			t.Errorf("%s is not defined", name)
		}
	}
	// Every -stats column of either engine lands on one of those names.
	for _, prefix := range []string{"gsnp", "soapsnp"} {
		for _, st := range stageNames {
			if _, ok := c.find(prefix + "." + st + "_s"); ok != stageReported(prefix, st) {
				t.Errorf("%s.%s_s: defined %v, reported %v", prefix, st, ok, stageReported(prefix, st))
			}
		}
	}
}

// A batch workload has no gsnpd lifecycle to time: its record holds no
// job_* latency, and only the line for the PR driver, which takes one flat
// list, carries wall_s in their place.
func TestJobLatenciesAreServeMixedOnly(t *testing.T) {
	c := loadTestContract(t)
	res := newRunResult()
	res.add(1, nil)
	for _, name := range []string{"wall_s", "cpu_s", "peak_rss_mb", "output_mb", "setup_s"} {
		res.set(name, 1.5, 1)
	}
	rec, err := newRunRecord(c, "genome-soap-rows", 1, 12, false, res)
	if err != nil {
		t.Fatalf("a batch run without job_* metrics: %v", err)
	}
	if _, err := newRunRecord(c, serveMixed, 1, 12, false, res); err == nil {
		t.Error("a serve-mixed run without job_* metrics was accepted")
	}
	if _, has := rec.Metrics["job_cached_p95_ms"]; has {
		t.Error("the batch record holds job_cached_p95_ms")
	}
	line, _ := json.Marshal(rec.driverLine(c))
	var doc struct {
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(line, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) != len(c.EndToEnd) {
		t.Errorf("the driver's line has %d metrics, want all %d", len(doc.Metrics), len(c.EndToEnd))
	}
	if got := doc.Metrics["job_cached_p95_ms"].Value; !near(got, 1500) {
		t.Errorf("driver's job_cached_p95_ms on a batch workload = %v, want wall_s in ms", got)
	}
	res.set("gsnp.likeli_s", 1, 1)
	if _, err := newRunRecord(c, "genome-soap-rows", 1, 12, true, res); err == nil {
		t.Error("a metric BENCHMARK.json does not define was accepted")
	}
}
