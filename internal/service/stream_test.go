package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"gsnp/internal/checkpoint"
	"gsnp/internal/genomejob"
)

// testStore opens an empty result store in a temporary directory.
func testStore(t testing.TB) *store {
	t.Helper()
	st, err := openStore(checkpoint.OS, filepath.Join(t.TempDir(), "store"), nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// FuzzStreamLine: for any record, the line lineWriter writes from the
// stored text's file is the line json.Encoder (SetEscapeHTML(false))
// writes for the wire record carrying the raw bytes — over every
// combination of Final, Recovered and the omitempty integers, with no
// payload, an empty one (an empty file) and the drawn one, single bytes
// included.
func FuzzStreamLine(f *testing.F) {
	f.Add("j1", "chr1.fa", "ok", "", []byte("chr1\t1\tA\tA\t40\n"), 0, int64(12))
	f.Add("j9", "chrX.fa", "ok", "", []byte{'\n'}, 9, int64(3))
	f.Add("j\"2\\", "chr<2>&.fa", "fail\x00ed", "line\nbreak\ttab\r\b\f\x1f", []byte{}, -1, int64(-7))
	f.Add("  ", "\xff\xfe", "partial", "bad utf-8 \xc3\x28 and \xe2\x82", []byte{0, 0xff, 0x80}, 23, int64(1)<<40)
	f.Add("", "", "", "", bytes.Repeat([]byte{0xfb, 0xef, 'A', '\n'}, 1<<15), 1<<30, int64(0))
	st := testStore(f)
	f.Fuzz(func(t *testing.T, job, name, state, msg string, payload []byte, index int, n int64) {
		enc := func(rec StreamRecord) []byte {
			var buf bytes.Buffer
			e := json.NewEncoder(&buf)
			e.SetEscapeHTML(false)
			if err := e.Encode(rec); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		srv := &Server{store: st}
		var got bytes.Buffer
		lw := newLineWriter(&got, st)
		for _, raw := range [][]byte{nil, {}, payload} {
			var out ref
			if raw != nil { // a chromosome without output stores nothing
				var err error
				if out, err = st.put(srv.encodeOutput(raw)); err != nil {
					t.Fatal(err)
				}
			}
			for mask := 0; mask < 1<<7; mask++ {
				pick := func(bit int) int {
					if mask&(1<<bit) == 0 {
						return 0
					}
					return int(n) + bit
				}
				rec := StreamRecord{
					Job: job, Index: index, Outcome: genomejob.Outcome{
						Name: name, State: state,
						Sites: pick(0), Quarantined: pick(1), CalSkipped: pick(2), Attempts: pick(3),
						WallMS: int64(pick(4)), Error: msg,
					},
					Final: mask&(1<<5) != 0, Recovered: mask&(1<<6) != 0,
				}
				got.Reset()
				if err := lw.write(&logRecord{StreamRecord: rec, out: out}); err != nil {
					t.Fatal(err)
				}
				rec.OutputB64 = raw
				if want := enc(rec); !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("mask %#x, %d-byte payload:\n got %q\nwant %q", mask, len(raw), got.Bytes(), want)
				}
			}
			st.release(out)
		}
	})
}

// TestServiceEncodeOnce: a chromosome's bytes are encoded once, where they
// enter the process. A cold 3-chromosome job, a single-flight follower, ten
// cached resubmissions and two late subscribers to each stream do three
// encodes between them, and every late subscriber reads the bytes the first
// one did.
func TestServiceEncodeOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	// The leader's first dispatch waits until the follower has joined.
	release := make(chan struct{})
	gate := sync.OnceFunc(func() { <-release })
	releaseLeader := sync.OnceFunc(func() { close(release) })
	defer releaseLeader()
	srv, ts := newTestServer(t, Config{Workers: 1, OnDequeue: func(string, int) { gate() }})
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}

	leader := postJob(t, ts, spec)
	follower := postJob(t, ts, spec)
	if joins := srv.Statz().SingleFlightJoins; joins != 1 {
		t.Fatalf("%d single-flight joins, want the follower's", joins)
	}
	releaseLeader()
	ids := []string{leader, follower}
	if _, state := readStream(t, ts, follower); state != StateCached {
		t.Fatalf("follower state %q, want cached", state)
	}
	for i := 0; i < 10; i++ {
		id := postJob(t, ts, spec)
		if _, state := readStream(t, ts, id); state != StateCached {
			t.Fatalf("resubmission %d state %q, want cached", i, state)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		first := readStreamRaw(t, ts, id)
		for i := 0; i < 2; i++ {
			if late := readStreamRaw(t, ts, id); !bytes.Equal(late, first) {
				t.Errorf("job %s: late subscriber %d read different bytes", id, i)
			}
		}
	}
	if n := srv.encodes.Load(); n != 3 {
		t.Errorf("%d payload encodes, want 3 (one per chromosome)", n)
	}
}

// TestServiceJournalRecoveryEncodesOnce: a restart that replays k durable
// chromosomes encodes none of them — it refers to their stored files — and
// serving the recovered job or its cache entry encodes nothing either.
func TestServiceJournalRecoveryEncodesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}
	jdir := filepath.Join(t.TempDir(), "journal")

	srvA, tsA := newTestServer(t, Config{Workers: 2, JournalDir: jdir, fs: finalFails()})
	id := postJob(t, tsA, spec)
	if _, state := readStream(t, tsA, id); state != StateDone {
		t.Fatalf("first run state %q, want done", state)
	}
	tsA.Close()
	drainT(t, srvA)

	const k = 3
	cfg, dequeues := dequeueCounter(Config{Workers: 1, JournalDir: jdir})
	srvB, tsB := newTestServer(t, cfg)
	if n := srvB.encodes.Load(); n != 0 {
		t.Errorf("%d payload encodes once New returned, want 0", n)
	}
	recs, state := readStream(t, tsB, id)
	if state != StateDone || len(recs) != k {
		t.Fatalf("recovered job: state %q, %d chromosomes; want done, %d", state, len(recs), k)
	}
	for _, id := range []string{id, postJob(t, tsB, spec), id} {
		readStreamRaw(t, tsB, id)
	}
	if n, d := srvB.encodes.Load(), dequeues.Load(); n != 0 || d != 0 {
		t.Errorf("%d payload encodes and %d dequeues after serving, want 0 and 0", n, d)
	}
}

// cacheCharge is what the cache charges for a job's streamed records when
// each payload costs size(raw bytes).
func cacheCharge(recs map[string]StreamRecord, size func(raw []byte) int) int64 {
	n := int64(0)
	for _, r := range recs {
		n += int64(recordOverhead + size(r.OutputB64) + len(r.Name) + len(r.Error))
	}
	return n
}

func textLen(raw []byte) int { return base64.StdEncoding.EncodedLen(len(raw)) }

// TestServiceCacheChargesKeptText: the cache is charged for what it pins —
// the stored base64 text of each payload plus the per-record overhead — so
// /statz cache.bytes is exactly that sum, and a job whose text exceeds the
// budget is rejected although its raw bytes would fit.
func TestServiceCacheChargesKeptText(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}

	_, ts := newTestServer(t, Config{Workers: 2})
	recs, state := readStream(t, ts, postJob(t, ts, spec))
	if state != StateDone {
		t.Fatalf("state %q, want done", state)
	}
	text := cacheCharge(recs, textLen)
	if st := statz(t, ts); st.Cache.Bytes != text {
		t.Errorf("cache.bytes = %d, want %d (kept text + overhead)", st.Cache.Bytes, text)
	}

	raw := cacheCharge(recs, func(b []byte) int { return len(b) })
	if raw >= text {
		t.Fatalf("raw charge %d not below the text charge %d", raw, text)
	}
	cfg, dequeues := dequeueCounter(Config{Workers: 2, CacheBytes: raw})
	_, ts2 := newTestServer(t, cfg)
	for i := 0; i < 2; i++ {
		if _, state := readStream(t, ts2, postJob(t, ts2, spec)); state != StateDone {
			t.Fatalf("run %d state %q, want done (the result is too large to cache)", i, state)
		}
	}
	st := statz(t, ts2)
	if st.Cache.Puts != 0 || st.Cache.Rejected != 2 || st.Cache.Bytes != 0 {
		t.Errorf("a result over the budget was cached: %+v", st.Cache)
	}
	if d := dequeues.Load(); d != 6 {
		t.Errorf("%d dequeues, want 6 (both runs execute)", d)
	}
}
