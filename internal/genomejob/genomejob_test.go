package genomejob

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"gsnp/internal/align"
	"gsnp/internal/gsnp"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
	"gsnp/internal/soapsnp"
)

// TestEngineConfigsShareNoFieldWithDriver guards the one configuration
// surface: a setting every engine shares lives in pipeline.Config and
// nowhere else, so the engine configs — kernel knobs only — must not grow a
// field the driver's already has. Call hands the two to pipeline.Run side by
// side; a name in both would be two places to set one thing, with a copy
// step to forget.
func TestEngineConfigsShareNoFieldWithDriver(t *testing.T) {
	shared := map[string]bool{}
	driver := reflect.TypeOf(pipeline.Config{})
	for i := 0; i < driver.NumField(); i++ {
		shared[driver.Field(i).Name] = true
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(gsnp.Config{}), reflect.TypeOf(soapsnp.Config{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && shared[f.Name] {
				t.Errorf("%v.%s duplicates pipeline.Config.%s: a shared setting belongs to the driver's config only", typ, f.Name, f.Name)
			}
		}
	}
}

// TestFingerprintEnumeratesOptionsFields is the aliasing guard for the
// checkpoint/result-cache key: every Options field must be classified as
// either fingerprinted (it can change output bytes) or exempt (byte
// identity across it is guaranteed by tests, or it never shapes result
// bytes). A new field added to Options fails this test until it is
// classified — and if it shapes output, until Fingerprint carries it.
func TestFingerprintEnumeratesOptionsFields(t *testing.T) {
	// Fields that flow into Options.Fingerprint (via checkpoint.Fingerprint).
	fingerprinted := map[string]bool{
		"Engine":           true,
		"Format":           true,
		"Window":           true,
		"Compress":         true,
		"Quarantine":       true,
		"OutputFormat":     true,
		"AlignMaxMismatch": true,
		"AlignSeedLen":     true,
	}
	// Fields exempt from the fingerprint, each with the reason it is safe.
	exempt := map[string]string{
		"ComputeWorkers": "byte-identity pinned at every compute-worker count (PR 2/6 tests)",
		"Prefetch":       "byte-identity pinned with prefetch on and off (PR 1 tests)",
		"Stats":          "writes diagnostics to the diag writer, never to result bytes",
		"Injector":       "test-only fault injection; never set by production front-ends",
		"AlignWorkers":   "byte-identity pinned at every align-worker count (TestAlignReadsParallelMatchesSerial)",
	}
	// Every field also decides whether gsnpd accepts it: a JSON name puts it
	// in the job spec, "-" keeps it the CLI's. Only these are "-".
	cliOnly := map[string]bool{"Stats": true, "Injector": true, "AlignWorkers": true}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch {
		case fingerprinted[name] && exempt[name] != "":
			t.Errorf("Options.%s is both fingerprinted and exempt", name)
		case !fingerprinted[name] && exempt[name] == "":
			t.Errorf("Options.%s is unclassified: add it to Fingerprint or document an exemption", name)
		}
		tag, ok := typ.Field(i).Tag.Lookup("json")
		switch {
		case !ok || tag == "":
			t.Errorf("Options.%s has no json tag: give it a wire name or \"-\"", name)
		case (tag == "-") != cliOnly[name]:
			t.Errorf("Options.%s has json tag %q: only %v are kept off the wire", name, tag, cliOnly)
		}
	}
	for name := range fingerprinted {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("fingerprinted field %s no longer exists on Options", name)
		}
	}
	for name := range exempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exempt field %s no longer exists on Options", name)
		}
	}
}

// TestFingerprintDistinguishesEveryInput: varying any fingerprinted field
// must change the fingerprint string, so no two byte-different
// configurations can alias one cache/checkpoint key.
func TestFingerprintDistinguishesEveryInput(t *testing.T) {
	base := Options{Engine: "gsnp-cpu", Format: "soap", Window: 1024}
	variants := map[string]Options{
		"Engine":       {Engine: "soapsnp", Format: "soap", Window: 1024},
		"Format":       {Engine: "gsnp-cpu", Format: "sam", Window: 1024},
		"Window":       {Engine: "gsnp-cpu", Format: "soap", Window: 2048},
		"Compress":     {Engine: "gsnp-cpu", Format: "soap", Window: 1024, Compress: true},
		"Quarantine":   {Engine: "gsnp-cpu", Format: "soap", Window: 1024, Quarantine: true},
		"OutputFormat": {Engine: "gsnp-cpu", Format: "soap", Window: 1024, OutputFormat: "vcf"},
	}
	fp := base.Fingerprint()
	for field, o := range variants {
		if o.Fingerprint() == fp {
			t.Errorf("changing %s does not change the fingerprint %q", field, fp)
		}
	}
	// The aligner parameters distinguish fastq configurations.
	fq := Options{Engine: "gsnp-cpu", Format: "fastq", Window: 1024}
	fqVariants := map[string]Options{
		"AlignMaxMismatch": {Engine: "gsnp-cpu", Format: "fastq", Window: 1024, AlignMaxMismatch: 3},
		"AlignSeedLen":     {Engine: "gsnp-cpu", Format: "fastq", Window: 1024, AlignSeedLen: 12},
	}
	for field, o := range fqVariants {
		if o.Fingerprint() == fq.Fingerprint() {
			t.Errorf("changing %s does not change the fingerprint %q", field, fq.Fingerprint())
		}
	}
	// Zero aligner params and their explicit defaults are the same
	// configuration, so they must share one cache/checkpoint key.
	fqDefault := fq
	fqDefault.AlignMaxMismatch = align.DefaultMaxMismatch
	fqDefault.AlignSeedLen = align.DefaultK
	if fqDefault.Fingerprint() != fq.Fingerprint() {
		t.Errorf("explicit default aligner params changed the fingerprint: %q vs %q",
			fqDefault.Fingerprint(), fq.Fingerprint())
	}
	// And the exempt concurrency knobs must NOT change it: a cached result
	// recorded at one worker count serves any other.
	same := base
	same.ComputeWorkers = 7
	same.Prefetch = true
	same.Stats = true
	if same.Fingerprint() != fp {
		t.Errorf("exempt fields changed the fingerprint: %q vs %q", same.Fingerprint(), fp)
	}
	fqSame := fq
	fqSame.AlignWorkers = 5
	if fqSame.Fingerprint() != fq.Fingerprint() {
		t.Errorf("AlignWorkers changed the fingerprint: %q vs %q", fqSame.Fingerprint(), fq.Fingerprint())
	}
}

// TestFingerprintBackwardCompatible pins the literal fingerprint of
// configurations that existed before the FASTQ/VCF options: their keys
// must never change, or every cached result and checkpoint written by an
// older build silently invalidates (and WAL recovery refuses to resume
// journaled jobs). The rows-vs-empty OutputFormat spelling is part of the
// contract: both mean the legacy codec and must alias the legacy key.
func TestFingerprintBackwardCompatible(t *testing.T) {
	legacy := Options{Engine: "gsnp-cpu", Format: "soap", Window: 1024}
	const want = "v1 engine=gsnp-cpu format=soap window=1024 compress=false quarantine=false"
	if got := legacy.Fingerprint(); got != want {
		t.Fatalf("legacy fingerprint changed:\n got %q\nwant %q", got, want)
	}
	rows := legacy
	rows.OutputFormat = "rows"
	if got := rows.Fingerprint(); got != want {
		t.Errorf("OutputFormat \"rows\" must alias the legacy key, got %q", got)
	}
	comp := Options{Engine: "gsnp-gpu", Format: "sam", Window: 4000, Compress: true, Quarantine: true}
	const wantComp = "v1 engine=gsnp-gpu format=sam window=4000 compress=true quarantine=true"
	if got := comp.Fingerprint(); got != wantComp {
		t.Fatalf("legacy compressed fingerprint changed:\n got %q\nwant %q", got, wantComp)
	}
	// New-option keys are extensions of the legacy grammar, stable in
	// their own right once shipped.
	vcf := Options{Engine: "gsnp-cpu", Format: "fastq", Window: 1024, OutputFormat: "vcf"}
	const wantVCF = "v1 engine=gsnp-cpu format=fastq window=1024 compress=false quarantine=false output=vcf align-mm=2 align-k=16"
	if got := vcf.Fingerprint(); got != wantVCF {
		t.Fatalf("fastq/vcf fingerprint changed:\n got %q\nwant %q", got, wantVCF)
	}
}

// TestContentDigest pins the content-addressing properties the result
// cache relies on: same bytes => same digest regardless of path; any
// input file's bytes changing => different digest; priors presence is
// part of the identity.
func TestContentDigest(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	u := Unit{
		Name: "chr1.fa",
		Ref:  write("chr1.fa", ">chr1\nACGT\n"),
		Aln:  write("chr1.soap", "r1\tACGT\t...\n"),
	}
	d1, err := u.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}

	// Same contents under different paths: identical digest.
	u2 := Unit{
		Name: "chr1.fa",
		Ref:  write("copy.fa", ">chr1\nACGT\n"),
		Aln:  write("copy.soap", "r1\tACGT\t...\n"),
	}
	d2, err := u2.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("identical contents at different paths digest differently")
	}

	// Changed alignment bytes: different digest.
	u3 := u
	u3.Aln = write("other.soap", "r1\tACGA\t...\n")
	d3, err := u3.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Errorf("changed alignment bytes kept the digest")
	}

	// Adding a priors file changes the identity.
	u4 := u
	u4.SNP = write("chr1.snp", "chr1\t2\tA\t0.5\n")
	d4, err := u4.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d4 == d1 {
		t.Errorf("adding a priors file kept the digest")
	}

	// A different unit name is a different identity (unit sets with the
	// same bytes under different chromosome names must not alias).
	u5 := u
	u5.Name = "chr2.fa"
	d5, err := u5.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d5 == d1 {
		t.Errorf("renamed unit kept the digest")
	}

	// Unreadable input: error, never a silent key.
	u6 := u
	u6.Ref = filepath.Join(dir, "missing.fa")
	if _, err := u6.ContentDigest(); err == nil {
		t.Errorf("digest of a missing input did not error")
	}
}

// writeSOAPUnit materializes one simulated chromosome as a genome
// directory's aligned inputs (<name>.fa + <name>.soap, no priors) and
// returns the Unit describing them.
func writeSOAPUnit(t *testing.T, dir string, spec seqsim.ChromosomeSpec) Unit {
	t.Helper()
	ds := seqsim.BuildDataset(spec)
	var fa, soap bytes.Buffer
	if err := snpio.WriteFASTA(&fa, snpio.FASTARecord{Name: spec.Name, Seq: ds.Ref.Seq}); err != nil {
		t.Fatal(err)
	}
	if err := snpio.WriteSOAP(&soap, spec.Name, ds.Reads); err != nil {
		t.Fatal(err)
	}
	u := Unit{Name: spec.Name + ".fa", Ref: filepath.Join(dir, spec.Name+".fa"), Aln: filepath.Join(dir, spec.Name+".soap")}
	if err := os.WriteFile(u.Ref, fa.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(u.Aln, soap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return u
}

// refusingWriter fails every write, as a full disk or a closed connection
// does.
type refusingWriter struct{}

func (refusingWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestWorkerRunsUnitsLikeFreshWorkers: one Worker carries its storage
// through a sequence of units that switches engine, window size and output
// codec, and through a dense unit whose output fails mid-window — the
// output buffer fills, and so first writes, after 1 MB of rows — as a retry
// on the same pool worker would see it. Every unit that succeeds writes the
// bytes a fresh Worker writes, and the dense unit after the failure, which
// finds the kept kernel sized for its window, allocates well under the
// 131 MB of one 1000-site dense window.
func TestWorkerRunsUnitsLikeFreshWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("one unit at a time, and 1 MB of rows is minutes of dense scans under the race detector")
	}
	dir := t.TempDir()
	small := writeSOAPUnit(t, dir, seqsim.ChromosomeSpec{Name: "chrA", Length: 8000, Depth: 8, MaskFraction: 0.1, Seed: 5})
	large := writeSOAPUnit(t, dir, seqsim.ChromosomeSpec{Name: "chrB", Length: 30000, Depth: 8, MaskFraction: 0.1, Seed: 24})
	dense := Options{Engine: "soapsnp", Format: "soap", Window: 1000}
	ctx := context.Background()
	var wk Worker
	for _, step := range []struct {
		name        string
		o           Options
		u           Unit
		fails, warm bool
	}{
		{name: "soapsnp", o: dense, u: small},
		{name: "gsnp-cpu", o: Options{Engine: "gsnp-cpu", Format: "soap"}, u: small},
		{name: "soapsnp at another window", o: Options{Engine: "soapsnp", Format: "soap", Window: 600}, u: small},
		{name: "gsnp-gpu compressed", o: Options{Engine: "gsnp-gpu", Format: "soap", Compress: true}, u: small},
		{name: "soapsnp whose output fails", o: dense, u: large, fails: true},
		{name: "soapsnp after the failure", o: dense, u: small, warm: true},
	} {
		if step.fails {
			if _, err := wk.Call(ctx, step.o, step.u, refusingWriter{}, io.Discard); err == nil {
				t.Fatalf("%s: the unit succeeded", step.name)
			}
			continue
		}
		var want, got bytes.Buffer
		if _, err := new(Worker).Call(ctx, step.o, step.u, &want, io.Discard); err != nil {
			t.Fatalf("%s on a fresh worker: %v", step.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := wk.Call(ctx, step.o, step.u, &got, io.Discard)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if want.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: the kept worker's bytes differ from a fresh worker's", step.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; step.warm && alloc >= 64<<20 {
			t.Errorf("%s: a dense unit on a warm worker allocated %d MB, want < 64 MB", step.name, alloc>>20)
		}
	}
}
