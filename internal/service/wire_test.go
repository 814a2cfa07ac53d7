package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gsnp/internal/checkpoint"
	"gsnp/internal/genomejob"
	"gsnp/internal/journal"
	"gsnp/internal/pipeline"
	"gsnp/internal/sched"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire from the current encoders")

// wireCreated is the fixed admission time of every golden document.
var wireCreated = time.Date(2011, 9, 13, 8, 30, 15, 0, time.UTC)

// wireSpec is a JobSpec with every wire field set.
func wireSpec() JobSpec {
	return JobSpec{
		GenomeDir: "/data/genome",
		Inputs:    []InputSpec{{Name: "chr1", Ref: ">chr1\nACGT\n", Aln: "r1\tACGT\n", SNP: "chr1\t2\tA\n"}},
		Options: genomejob.Options{
			Engine: "gsnp-gpu", Format: "fastq", Window: 4096, ComputeWorkers: 3,
			Compress: true, Quarantine: true,
			OutputFormat: "vcf", AlignMaxMismatch: 3, AlignSeedLen: 20,
		},
	}
}

// wireGolden compares doc with testdata/wire/<name> byte for byte (rewriting
// the file under -update-golden) and returns the golden bytes.
func wireGolden(t *testing.T, name string, doc []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "wire", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, golden) {
		t.Errorf("%s changed:\n got %s\nwant %s", name, doc, golden)
	}
	return golden
}

// decodesTo checks that a golden document decodes to the value it was
// written from.
func decodesTo[T any](t *testing.T, name string, golden []byte, want T) {
	t.Helper()
	var got T
	if err := json.Unmarshal(golden, &got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s decodes to\n%+v\nwant\n%+v", name, got, want)
	}
}

// TestWireDocumentsPinned pins the bytes of every JSON document the two
// front-ends write — gsnpd's job status, stream lines, job spec and WAL
// records, and the CLI's failure report and checkpoint manifest — each
// written by the code that writes it in production, from fully populated,
// clock-free values.
func TestWireDocumentsPinned(t *testing.T) {
	// A finished chromosome's stream record with every field set.
	chrom := StreamRecord{Job: "j7", Index: 2, Outcome: genomejob.Outcome{
		Name: "chr3.fa", State: StatePartial, Sites: 4321,
		Quarantined: 2, CalSkipped: 5, Attempts: 3, WallMS: 87,
		Error: "window 4: <bad> & \"quoted\"",
	}, OutputB64: []byte("chr3\t1\tA\tA\t40\n"), Recovered: true}
	final := StreamRecord{Job: "j7", Index: -1, Outcome: genomejob.Outcome{State: StatePartial}, Final: true, Recovered: true}

	t.Run("stream", func(t *testing.T) {
		srv := &Server{store: testStore(t)}
		for name, rec := range map[string]StreamRecord{"stream_chrom.ndjson": chrom, "stream_final.ndjson": final} {
			var buf bytes.Buffer
			out, err := srv.store.put(srv.encodeOutput(rec.OutputB64))
			if err != nil {
				t.Fatal(err)
			}
			kept := logRecord{StreamRecord: rec, out: out}
			kept.OutputB64 = nil
			if err := newLineWriter(&buf, srv.store).write(&kept); err != nil {
				t.Fatal(err)
			}
			decodesTo(t, name, wireGolden(t, name, buf.Bytes()), rec)
		}
	})

	t.Run("job status", func(t *testing.T) {
		st := JobStatus{
			ID: "j7", State: StateRunning, Created: wireCreated, Engine: "gsnp-gpu",
			Total: 2, Completed: 1, Recovered: true, Chromosomes: []ChromStatus{
				{Outcome: chrom.Outcome, Recovered: true},
				{Outcome: genomejob.Outcome{Name: "chr4.fa", State: StatePending}},
			},
		}
		w := httptest.NewRecorder()
		writeJSON(w, 200, st)
		decodesTo(t, "job_status.json", wireGolden(t, "job_status.json", w.Body.Bytes()), st)
	})

	t.Run("job spec", func(t *testing.T) {
		spec := wireSpec()
		doc, err := json.Marshal(&spec)
		if err != nil {
			t.Fatal(err)
		}
		decodesTo(t, "job_spec.json", wireGolden(t, "job_spec.json", doc), spec)
	})

	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		jn, err := journal.Open(journal.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer jn.Close()
		spec := wireSpec()
		spec.Inputs = nil // submit drops the upload bodies once they are spooled
		js := newJob("j7", wireCreated)
		js.spec = &spec
		if err := (&Server{journal: jn}).journalAccept(js, 7, []string{"d1", "d2"}); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte("rows\n"))
		c := journal.Chrom{File: "chr3.vcf", SHA256: hex.EncodeToString(sum[:]), Sites: 4321}
		if err := jn.Complete(7, "j7", "chr3.fa", c); err != nil {
			t.Fatal(err)
		}
		if err := jn.Final(7, "j7", StatePartial); err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(filepath.Join(dir, journal.WALName))
		if err != nil {
			t.Fatal(err)
		}
		wireGolden(t, "wal.ndjson", wal)
	})

	t.Run("failure report", func(t *testing.T) {
		fr := &checkpoint.FailureReport{Fingerprint: "v1 engine=gsnp-cpu", ExitCode: 2, Tasks: []checkpoint.TaskReport{{
			Name: "chr3.fa", Status: checkpoint.StatusPartial, Output: "chr3.result", Sites: 4321,
			Attempts: 3, Error: "boom", Panicked: true, CalSkipped: 5,
			Quarantined: []pipeline.Quarantine{{Chr: "chr3", Window: 4, Start: 4096, End: 5120, Line: 17, Offset: 912, Cause: "bad <record>", Panicked: true}},
		}}}
		path := filepath.Join(t.TempDir(), "report.json")
		if err := fr.Save(path); err != nil {
			t.Fatal(err)
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		decodesTo(t, "failure_report.json", wireGolden(t, "failure_report.json", doc), *fr)
	})

	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "chr3.result")
		if err := os.WriteFile(out, []byte("rows\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := checkpoint.NewWriter(checkpoint.Path(dir), "v1 engine=gsnp-cpu", false)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Complete("chr3.fa", out, 4321); err != nil {
			t.Fatal(err)
		}
		doc, err := os.ReadFile(checkpoint.Path(dir))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := checkpoint.FileDigest(out)
		if err != nil {
			t.Fatal(err)
		}
		want := checkpoint.Manifest{Version: checkpoint.Version, Fingerprint: "v1 engine=gsnp-cpu",
			Done: map[string]checkpoint.Entry{"chr3.fa": {Output: "chr3.result", SHA256: sum, Sites: 4321}}}
		decodesTo(t, "manifest.json", wireGolden(t, "manifest.json", doc), want)
	})
}

// TestClassifyRenderings drives genomejob.Classify over the six ways a
// chromosome's pool result can end and checks its renderings: gsnpd's
// stream record and status entry (the Outcome itself), and the CLI's
// failure-report entry, which says "skipped" where gsnpd says "cancelled",
// lists the quarantined windows gsnpd counts, and carries the output file
// and the panic flag.
func TestClassifyRenderings(t *testing.T) {
	q := []pipeline.Quarantine{{Chr: "chr1", Window: 2, Start: 2048, End: 3072, Offset: -1, Cause: "bad"}}
	boom := errors.New("boom")
	for _, c := range []struct {
		name   string
		r      sched.Result[int]
		res    *pipeline.Report
		stream string
		report checkpoint.TaskReport
	}{{
		name:   "clean",
		r:      sched.Result[int]{Name: "chr1.fa", Attempts: 1, Wall: 12 * time.Millisecond},
		res:    &pipeline.Report{Sites: 100},
		stream: `"name":"chr1.fa","state":"ok","sites":100,"attempts":1,"wall_ms":12}`,
		report: checkpoint.TaskReport{Name: "chr1.fa", Status: checkpoint.StatusOK, Output: "chr1.result", Sites: 100, Attempts: 1},
	}, {
		name:   "partial by quarantine",
		r:      sched.Result[int]{Name: "chr1.fa", Attempts: 1, Wall: 12 * time.Millisecond},
		res:    &pipeline.Report{Sites: 100, Quarantined: q},
		stream: `"name":"chr1.fa","state":"partial","sites":100,"quarantined":1,"attempts":1,"wall_ms":12}`,
		report: checkpoint.TaskReport{Name: "chr1.fa", Status: checkpoint.StatusPartial, Output: "chr1.result", Sites: 100, Attempts: 1, Quarantined: q},
	}, {
		name:   "partial by skipped calibration records",
		r:      sched.Result[int]{Name: "chr1.fa", Attempts: 2},
		res:    &pipeline.Report{Sites: 100, CalSkipped: 3},
		stream: `"name":"chr1.fa","state":"partial","sites":100,"cal_skipped":3,"attempts":2}`,
		report: checkpoint.TaskReport{Name: "chr1.fa", Status: checkpoint.StatusPartial, Output: "chr1.result", Sites: 100, Attempts: 2, CalSkipped: 3},
	}, {
		name:   "failed",
		r:      sched.Result[int]{Name: "chr1.fa", Err: boom, Attempts: 3, Wall: 5 * time.Millisecond},
		stream: `"name":"chr1.fa","state":"failed","attempts":3,"wall_ms":5,"error":"boom"}`,
		report: checkpoint.TaskReport{Name: "chr1.fa", Status: checkpoint.StatusFailed, Attempts: 3, Error: "boom"},
	}, {
		name:   "failed by panic",
		r:      sched.Result[int]{Name: "chr1.fa", Err: boom, Attempts: 1, Panicked: true},
		stream: `"name":"chr1.fa","state":"failed","attempts":1,"error":"boom"}`,
		report: checkpoint.TaskReport{Name: "chr1.fa", Status: checkpoint.StatusFailed, Attempts: 1, Error: "boom", Panicked: true},
	}, {
		name:   "never ran",
		r:      sched.Result[int]{Name: "chr1.fa", Err: context.Canceled, Worker: -1, Skipped: true},
		stream: `"name":"chr1.fa","state":"cancelled","error":"context canceled"}`,
		report: checkpoint.TaskReport{Name: "chr1.fa", Status: checkpoint.StatusSkipped, Error: "context canceled"},
	}} {
		o := genomejob.Classify(c.r, c.res)
		rec, err := json.Marshal(StreamRecord{Job: "j1", Index: 0, Outcome: o})
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"job":"j1","index":0,` + c.stream; string(rec) != want {
			t.Errorf("%s: stream record\n got %s\nwant %s", c.name, rec, want)
		}
		st, err := json.Marshal(ChromStatus{Outcome: o})
		if err != nil {
			t.Fatal(err)
		}
		if want := "{" + c.stream; string(st) != want {
			t.Errorf("%s: status entry\n got %s\nwant %s", c.name, st, want)
		}
		if got := genomejob.Report(c.r, c.res, "chr1.result"); !reflect.DeepEqual(got, c.report) {
			t.Errorf("%s: failure report entry\n got %+v\nwant %+v", c.name, got, c.report)
		}
	}
}
