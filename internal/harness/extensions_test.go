package harness

import (
	"strconv"
	"strings"
	"testing"
)

func TestExtConsistencyAllYes(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments in -short mode")
	}
	s := NewSession(tinyScale())
	res, err := s.Run("ext-consistency")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("expected 9 engine rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows[1:] {
		if row[2] != "YES" {
			t.Errorf("engine %q not byte-identical: %v", row[0], row)
		}
	}
}

// TestExtParallelByteIdentity runs the chromosome scheduler at workers 1,
// 2 and 4 and requires byte-identical result files at every worker count —
// the Section IV-G guarantee must survive concurrency.
func TestExtParallelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments in -short mode")
	}
	s := NewSession(tinyScale())
	res, err := s.Run("ext-parallel")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 worker rows, got %d", len(res.Rows))
	}
	if res.Rows[0][0] != "1" || res.Rows[2][0] != "4" {
		t.Fatalf("worker column = %q, %q, %q; want 1, 2, 4", res.Rows[0][0], res.Rows[1][0], res.Rows[2][0])
	}
	if got := res.Rows[0][5]; got != "reference" {
		t.Errorf("workers=1 identity cell = %q, want reference", got)
	}
	for _, row := range res.Rows[1:] {
		if row[5] != "YES" {
			t.Errorf("workers=%s output not byte-identical to serial: %v", row[0], row)
		}
	}
}

func TestExtAccuracyMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments in -short mode")
	}
	s := NewSession(tinyScale())
	res, err := s.Run("ext-accuracy")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 depth rows, got %d", len(res.Rows))
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("bad percentage cell %q: %v", cell, err)
		}
		return v
	}
	// Sensitivity at 30X should comfortably exceed sensitivity at 5X.
	low := parse(res.Rows[0][3])
	high := parse(res.Rows[3][3])
	if high <= low {
		t.Errorf("sensitivity did not improve with depth: 5X=%v%% 30X=%v%%", low, high)
	}
	if high < 80 {
		t.Errorf("30X sensitivity = %v%%, want >= 80%%", high)
	}
}

func TestExtThreadsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments in -short mode")
	}
	s := NewSession(tinyScale())
	res, err := s.Run("ext-threads")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 thread rows, got %d", len(res.Rows))
	}
	if res.Rows[0][2] != "1.0x" {
		t.Errorf("single-thread speedup cell = %q", res.Rows[0][2])
	}
}
