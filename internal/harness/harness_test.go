package harness

import (
	"strconv"
	"strings"
	"testing"

	"gsnp/internal/gsnp"
)

// tinyScale keeps unit tests fast; the dense baseline is the limiting
// factor.
func tinyScale() Scale { return Scale{SitesPerMb: 25, Seed: 7} }

func TestIDsCoverEveryTableAndFigure(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig4a", "fig4b", "fig5", "fig6", "fig7a", "fig7b",
		"fig8", "fig9", "fig10a", "fig10b", "fig11", "fig12",
		"ext-threads", "ext-accuracy", "ext-consistency", "ext-device",
		"ext-parallel",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := NewSession(tinyScale())
	if _, err := s.Run("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSessionCaching(t *testing.T) {
	s := NewSession(tinyScale())
	a := s.Dataset("chr21")
	b := s.Dataset("chr21")
	if a != b {
		t.Error("dataset not cached")
	}
	r1, o1 := s.RunSOAPsnp("chr21")
	r2, o2 := s.RunSOAPsnp("chr21")
	if r1 != r2 || &o1[0] != &o2[0] {
		t.Error("soapsnp run not cached")
	}
}

func TestNewSessionDefaults(t *testing.T) {
	s := NewSession(Scale{})
	if s.Scale.SitesPerMb != DefaultScale().SitesPerMb {
		t.Error("zero scale not defaulted")
	}
}

func TestResultFormat(t *testing.T) {
	r := &Result{
		ID: "x", Title: "demo",
		Headers: []string{"a", "bb"},
	}
	r.AddRow("1", "2")
	r.Notef("n=%d", 5)
	out := r.Format()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

// TestEveryExperimentRuns executes the full suite at tiny scale and sanity
// checks the structure of each result.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	s := NewSession(tinyScale())
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := s.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id || res.Title == "" {
				t.Errorf("metadata missing: %+v", res)
			}
			if len(res.Rows) == 0 {
				t.Error("no rows")
			}
			for _, row := range res.Rows {
				if len(row) != len(res.Headers) {
					t.Errorf("row width %d != header width %d: %v", len(row), len(res.Headers), row)
				}
			}
			if res.Format() == "" {
				t.Error("empty rendering")
			}
		})
	}
}

// TestShapeTable4Speedups asserts the headline shape: GSNP's likelihood
// and recycle components collapse relative to the dense baseline.
func TestShapeTable4Speedups(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks in -short mode")
	}
	s := NewSession(tinyScale())
	base, _ := s.RunSOAPsnp("chr21")
	ds := s.Dataset("chr21")
	rep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU, Compress: true})

	likeliSpeedup := base.Times.Likeli().Seconds() / rep.Times.Likeli().Seconds()
	if likeliSpeedup < 10 {
		t.Errorf("likelihood speedup = %.1fx, want >> 10x (paper: 231x)", likeliSpeedup)
	}
	recycleSpeedup := base.Times.Recycle.Seconds() / rep.Times.Recycle.Seconds()
	if recycleSpeedup < 10 {
		t.Errorf("recycle speedup = %.1fx, want >> 10x (paper: 1603x)", recycleSpeedup)
	}
	total := base.Times.Total().Seconds() / rep.Times.Total().Seconds()
	if total < 2 {
		t.Errorf("total speedup = %.1fx, want > 2x (paper: 50x)", total)
	}
	t.Logf("likeli %.0fx, recycle %.0fx, total %.0fx", likeliSpeedup, recycleSpeedup, total)
}

// TestShapeFig5 asserts the representation ordering of Figure 5.
func TestShapeFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks in -short mode")
	}
	s := NewSession(tinyScale())
	base, _ := s.RunSOAPsnp("chr21")
	ds := s.Dataset("chr21")
	cpuRep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeCPU})
	gpuRep, _ := s.RunGSNP(ds, GSNPOptions{Mode: gsnp.ModeGPU})
	dense := s.denseGPUSeconds(ds)

	soap := base.Times.Likeli().Seconds()
	sparseCPU := cpuRep.Times.Likeli().Seconds()
	sparseGPU := gpuRep.Times.Likeli().Seconds()
	if !(sparseCPU < soap) {
		t.Errorf("sparse CPU (%.3fs) not faster than dense CPU (%.3fs)", sparseCPU, soap)
	}
	if !(sparseGPU < sparseCPU) {
		t.Errorf("sparse GPU (%.3fs) not faster than sparse CPU (%.3fs)", sparseGPU, sparseCPU)
	}
	if !(dense > sparseGPU*5) {
		t.Errorf("GPU dense (%.3fs) not >> GPU sparse (%.3fs); paper: 14-17x", dense, sparseGPU)
	}
	t.Logf("soap=%.3fs gpuDense=%.3fs sparseCPU=%.3fs sparseGPU=%.4fs", soap, dense, sparseCPU, sparseGPU)
}

func TestMeasureCPUBandwidth(t *testing.T) {
	bw := MeasureCPUBandwidth()
	if bw < 1e8 || bw > 1e12 {
		t.Errorf("implausible bandwidth %v B/s", bw)
	}
	t.Logf("B_cpu = %.1f GB/s", bw/1e9)
}

func TestHelpers(t *testing.T) {
	if ratio(10, 0) != "inf" {
		t.Error("ratio by zero")
	}
	if ratio(10, 5) != "2.0x" {
		t.Errorf("ratio = %s", ratio(10, 5))
	}
	for _, v := range []float64{0.001, 5, 500} {
		out := seconds(durationSec(v))
		if _, err := strconv.ParseFloat(out, 64); err != nil {
			t.Errorf("seconds(%v) = %q not numeric", v, out)
		}
	}
	if mb(1<<20) != "1.0 MB" {
		t.Errorf("mb = %s", mb(1<<20))
	}
}
