package analysis

import "testing"

// TestArenaLifetimeFixture proves every escape class fires (exported
// return, field store — direct and through a derived variable — channel
// send, unjoined goroutine capture) while the arena's own API, writes
// back into the arena, unexported helpers, joined fan-out, and window-
// local slicing stay silent.
func TestArenaLifetimeFixture(t *testing.T) {
	runFixture(t, ArenaLifetime, "arena")
}

// TestArenaLifetimeGPUFixture covers the GPU launch-scratch types
// (blockScratch, blockRT, Thread): the same escape classes fire on
// scratch-owned memory — the cursor's per-lane side arrays included — and
// on the lane cursor itself when a kernel keeps the *Thread it was handed
// (field, channel, captured or package-level variable), while the recycle
// idioms of the simulator — free-list pushes, the cursor borrowed through
// a local and its per-lane state swapped in and out, derived thread
// contexts, sample writeback, joined per-thread goroutines — stay silent.
func TestArenaLifetimeGPUFixture(t *testing.T) {
	runFixture(t, ArenaLifetime, "gpu")
}

// TestArenaLifetimeRealTree pins that the production gsnp and gpu
// packages, and the other packages that write kernels, obey the contract
// with no suppressions: the recycle invariant holds by construction, not
// by ignore directives.
func TestArenaLifetimeRealTree(t *testing.T) {
	pkgs, err := Load("../..", "./internal/gsnp", "./internal/gpu", "./internal/sortnet", "./internal/compress", "./internal/snpio")
	if err != nil {
		t.Fatalf("loading the kernel-writing packages: %v", err)
	}
	for _, pkg := range pkgs {
		for _, d := range Run(pkg, []*Analyzer{ArenaLifetime}) {
			t.Errorf("%s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}
