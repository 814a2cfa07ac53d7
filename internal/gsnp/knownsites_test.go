package gsnp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
	"gsnp/internal/soapsnp"
)

// knownSitesWindow is the window of TestKnownSitesAcrossWindows: 1,200
// sites make three windows, and four forced shards split each into
// ranges of 100.
const knownSitesWindow = 400

// knownSitesRows is the SHA-256 of the rows TestKnownSitesAcrossWindows
// runs print with the prior file and without one, as the engines printed
// them while they probed the prior map once per site (before the run's
// sorted list of known sites replaced the probes).
var knownSitesRows = map[bool]string{
	true:  "d14181da6eef12fae9b1590362e4b3953a97ec71a26b4479bed35611c7901271",
	false: "f7e96d511daa93df1105c93a24505a4ba552a7c678640310989e61b43bfe9e63",
}

// knownSitesPrior is the prior file of TestKnownSitesAcrossWindows: the
// data set's known variants, plus records on the first, second, middle,
// second-to-last and last site of every window, on the sites either side
// of each shard boundary, and on the first and last site of the
// chromosome — validated or not, with the reference and its complement as
// the population's alleles.
func knownSitesPrior(ds *seqsim.Dataset) snpio.KnownSNPs {
	known := knownFromDataset(ds)
	n := len(ds.Ref.Seq)
	for start := 0; start < n; start += knownSitesWindow {
		end := min(start+knownSitesWindow, n)
		for _, pos := range []int{start, start + 1, start + 99, start + 100, (start + end) / 2, start + 299, start + 300, end - 2, end - 1} {
			ref := ds.Ref.Seq[pos]
			rec := &bayes.KnownSNP{Validated: pos%3 != 0}
			rec.Freq[ref] += 0.7
			rec.Freq[ref.Complement()] += 0.3
			known[pos] = rec
		}
	}
	return known
}

// TestKnownSitesAcrossWindows runs every engine over three windows with
// known sites on each window's edges, in its middle and at its shard
// boundaries, and holds the rows to the ones the per-site map probes
// printed, byte for byte — and a run without a prior file likewise. The
// CPU engine runs with one shard and with four, so each posterior shard
// starts its walk of the known list mid-window.
func TestKnownSitesAcrossWindows(t *testing.T) {
	ds := testDataset(t, 3*knownSitesWindow, 10, 4242)
	engines := []struct {
		name string
		new  func() pipeline.Kernel
	}{
		{"gsnp-cpu", func() pipeline.Kernel { return mustNew(t, Config{Mode: ModeCPU}) }},
		{"gsnp-cpu-4-shards", func() pipeline.Kernel {
			return mustNew(t, Config{Mode: ModeCPU, ComputeWorkers: 4, forceShardWorkers: 4})
		}},
		{"gsnp-gpu", func() pipeline.Kernel {
			return mustNew(t, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
		}},
		{"soapsnp", func() pipeline.Kernel { return soapsnp.New(soapsnp.Config{}) }},
	}
	calls := map[bool][]snpio.Row{}
	for _, withPrior := range []bool{true, false} {
		cfg := pipeline.Config{Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Window: knownSitesWindow}
		if withPrior {
			cfg.Known = knownSitesPrior(ds)
		}
		var first []byte
		for _, eng := range engines {
			var buf bytes.Buffer
			rep, err := pipeline.Run(context.Background(), cfg, pipeline.MemSource(ds.Reads), &buf, eng.new())
			if err != nil {
				t.Fatalf("%s, prior file %t: %v", eng.name, withPrior, err)
			}
			if first == nil {
				first = buf.Bytes()
				sum := sha256.Sum256(first)
				got := hex.EncodeToString(sum[:])
				t.Logf("prior file %t: rows sha256 %s", withPrior, got)
				if want := knownSitesRows[withPrior]; got != want {
					t.Errorf("%s, prior file %t: rows sha256 %s, the map probes printed %s", eng.name, withPrior, got, want)
				}
			} else if !bytes.Equal(buf.Bytes(), first) {
				t.Errorf("%s, prior file %t: rows differ from %s's", eng.name, withPrior, engines[0].name)
			}
			rows, err := snpio.ReadResults(bytes.NewReader(buf.Bytes()))
			if err != nil || len(rows) != rep.Sites {
				t.Fatalf("%s: %d rows of %d sites (%v)", eng.name, len(rows), rep.Sites, err)
			}
			for i, r := range rows {
				if want := cfg.Known[i] != nil; (r.IsDbSNP == 1) != want {
					t.Errorf("%s, prior file %t: site %d IsDbSNP %d, known %t", eng.name, withPrior, i, r.IsDbSNP, want)
				}
			}
			calls[withPrior] = rows
		}
	}
	// The priors reach the calls, not only the IsDbSNP column.
	moved := 0
	for i, r := range calls[true] {
		if o := calls[false][i]; r.Genotype != o.Genotype || r.Quality != o.Quality {
			moved++
		}
	}
	if moved == 0 {
		t.Error("the prior file moved no call")
	}
	t.Logf("the prior file moved %d calls", moved)
}

func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
