package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestFileDigestAllocatesNoCopyBuffer: hashing a 4 MiB file allocates no
// copy buffer — at most 1 KiB a call, averaged over 100 calls — and the
// digest is the file's SHA-256. io.Copy from an *os.File allocates 32 KiB
// per call.
func TestFileDigestAllocatesNoCopyBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 131 >> 3)
	}
	path := filepath.Join(t.TempDir(), "chr1.soap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	want := hex.EncodeToString(sum[:])
	if got, err := FileDigest(path); err != nil || got != want {
		t.Fatalf("FileDigest = %q, %v; want %q", got, err, want)
	}

	// One P: a goroutine a file syscall moves to another P cannot see the
	// pool's slot on the old one and would allocate a fresh buffer — a
	// scheduling artifact, not the allocation this test is about.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const calls = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := FileDigest(path); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 1<<10 {
		t.Errorf("FileDigest allocates %d bytes a call, want <= 1024", perCall)
	}
}
