# CI entry points. `make ci` is the gate: vet, build, the full test
# suite, the race detector over every package that spawns goroutines
# (the scheduler, the engines and the parallel sort, and the gsnpd
# service), the service integration tests against a real gsnpd binary, a
# short fuzz pass over every parser-facing fuzz target, one iteration of
# every benchmark of the GPU simulator, the sort, the aligner and the text
# parsers, the benchmark's own modules (bench/), which
# `go build ./... && go test ./...` does not enter, and the line ceiling.

GO ?= go

# Every goroutine-spawning package runs under the race detector: the
# schedulers, the window driver (internal/pipeline spawns nothing, but it
# imports internal/par to contain a window's panic), the engines, the
# parallel sort, the simulated GPU device, the block writer that encodes
# its RLE-DICT columns on it concurrently, the fault/checkpoint machinery,
# the gsnpd service with its result cache and job journal, the shared
# genome-job decomposition both front-ends use, and the gsnpd daemon
# itself (its serve/signal goroutines). The data-parallel passes of the
# engines, the sort, the aligner, the block writer and the device all fork
# through internal/par and contain no go statement of their own; par is in
# the list and so are they. The list is audited against the tree:
# `gsnplint -go-pkgs ./...` prints every package containing a go
# statement or importing internal/par, and
# TestRacePkgsCoverSpawningPackages fails when one is missing here.
RACE_PKGS = ./internal/par ./internal/pipeline ./internal/sched ./internal/gsnp ./internal/soapsnp ./internal/sortnet ./internal/faults ./internal/checkpoint ./internal/service ./internal/resultcache ./internal/genomejob ./internal/gpu ./internal/journal ./internal/align ./internal/snpio ./cmd/gsnpd

# Per-target budget for the fuzz smoke pass.
FUZZ_TIME ?= 10s

# Pinned govulncheck version for the (network-requiring) vuln gate; the
# offline build environment skips it gracefully. See tools.go.
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: ci lint vet fmt-check vuln build test race service-e2e serve-recovery fastq-e2e fuzz-smoke bench-smoke bench-check bench bench-compare loc loc-check

ci: lint fmt-check build test race service-e2e serve-recovery fastq-e2e fuzz-smoke bench-smoke bench-check loc-check vuln

# Standard vet plus the project multichecker (cmd/gsnplint): the seven
# GSNP invariant analyzers — determinism, arenalifetime, closecheck,
# saturation, goroutinejoin, lockhold, durability — documented in
# DESIGN.md §9 and §13. Any finding fails the gate, and the machine-
# readable report lands in gsnplint-findings.json for CI to archive.
lint: vet
	@start=$$(date +%s); \
	$(GO) run ./cmd/gsnplint -json gsnplint-findings.json ./... ; rc=$$?; \
	echo "lint: gsnplint took $$(( $$(date +%s) - start ))s (report: gsnplint-findings.json)"; \
	exit $$rc

vet:
	$(GO) vet ./...

# gofmt cleanliness over the whole tree (testdata fixtures included).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Known-vulnerability scan, pinned for reproducibility. The tool lives
# outside the module (the offline-first rule forbids adding x/vuln to
# go.mod when the module cache cannot fetch it), so probe availability
# first and skip — loudly — when it cannot be fetched.
vuln:
	@if $(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./... ; \
	else \
		echo "govulncheck $(GOVULNCHECK_VERSION) unavailable (offline build); skipping vulnerability scan"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# ./internal/pipeline carries the two-pass driver's own table test
# (run_test.go), whose every case also checks that Run leaves no goroutine
# behind.
race:
	$(GO) test -race $(RACE_PKGS)

# End-to-end service checks: the in-process HTTP tests under the race
# detector, then the black-box tests against a built gsnpd binary
# (concurrent jobs byte-identical to serial runs, SIGTERM drain, the
# listener's header timeout). Tests are selected by name: every in-process
# service test is called TestService*, so the lifecycle tests
# (lifecycle_test.go: finish's order on all four source combinations, no
# goroutine left after Drain, spool failure, shed stream subscriber) run
# here too.
service-e2e:
	$(GO) test -race -run 'TestService' ./internal/service
	$(GO) test -run 'TestGsnpd' .

# Crash-durability checks: the WAL journal package under the race
# detector, the in-process recovery/backpressure tests, then the
# black-box kill -9 test — gsnpd is SIGKILLed mid-job and a restarted
# daemon must resume from the journal and produce byte-identical output.
# Selected by name as well: a test that needs a journal is called
# TestServiceJournal* (the lifecycle order test, identical pending jobs
# recovering once, a full recovery reaching the cache), so it runs under
# both gates.
serve-recovery:
	$(GO) test -race ./internal/journal
	$(GO) test -race -run 'TestServiceJournal|TestServiceMaxQueued' ./internal/service
	$(GO) test -run 'TestGsnpdCrashRecovery' .

# FASTQ-to-VCF pipeline checks: the aligner's parallel-shard equivalence
# and quals-normalization tests, the VCF semantic property suite, then
# the black-box golden test — raw reads through the built gsnp binary at
# every worker/compute-worker/align-worker setting on both engines, bytes
# pinned against testdata/fastq_e2e/.
fastq-e2e:
	$(GO) test -race ./internal/align
	$(GO) test -run 'TestFASTQToVCF' ./internal/genomejob
	$(GO) test -run 'TestFASTQ' .

# Short fuzz pass over every fuzz target (each gets $(FUZZ_TIME)); the
# committed corpora under testdata/fuzz/ seed the runs. `go test -fuzz`
# takes one target per invocation, hence one line per target. The gsnp line
# runs the target alone: its package's other tests ran under `test`, and
# in the coverage-instrumented fuzz build TestComputeWorkersNoRegression's
# wall comparison measures the instrumentation, not the engine (cw=1 runs
# ~3x slower there, and cw=4 reads 1.2-1.3x cw=1 on a 2-core host).
fuzz-smoke:
	$(GO) test -fuzz 'FuzzParseRow$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzSOAPReader$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzFASTQReader$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzSAMReader$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzAlignReads$$' -fuzztime $(FUZZ_TIME) ./internal/align
	$(GO) test -fuzz 'FuzzBlockReader$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzTempReader$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzTempRoundTrip$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzAppendFixed$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzSOAPParseOracle$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzRowTextOracle$$' -fuzztime $(FUZZ_TIME) ./internal/snpio
	$(GO) test -fuzz 'FuzzJobSpec$$' -fuzztime $(FUZZ_TIME) ./internal/service
	$(GO) test -fuzz 'FuzzStreamLine$$' -fuzztime $(FUZZ_TIME) ./internal/service
	$(GO) test -fuzz 'FuzzJournalReplay$$' -fuzztime $(FUZZ_TIME) ./internal/journal
	$(GO) test -fuzz 'FuzzRLEDictDecode$$' -fuzztime $(FUZZ_TIME) ./internal/compress
	$(GO) test -fuzz 'FuzzRLEDictEncodeGPU$$' -fuzztime $(FUZZ_TIME) ./internal/compress
	$(GO) test -fuzz 'FuzzSparseDecode$$' -fuzztime $(FUZZ_TIME) ./internal/compress
	$(GO) test -fuzz 'FuzzDictDecode$$' -fuzztime $(FUZZ_TIME) ./internal/compress
	$(GO) test -fuzz 'FuzzUnpack2Bit$$' -fuzztime $(FUZZ_TIME) ./internal/compress
	$(GO) test -fuzz 'FuzzBitonicNetwork$$' -fuzztime $(FUZZ_TIME) ./internal/gpu
	$(GO) test -fuzz 'FuzzMultipassResident$$' -fuzztime $(FUZZ_TIME) ./internal/sortnet
	$(GO) test -fuzz 'FuzzStepTable$$' -fuzztime $(FUZZ_TIME) ./internal/gpu
	$(GO) test -run '^$$' -fuzz 'FuzzSparseLikelihoodGPU$$' -fuzztime $(FUZZ_TIME) ./internal/gsnp
	$(GO) test -run '^$$' -fuzz 'FuzzCountGPU$$' -fuzztime $(FUZZ_TIME) ./internal/gsnp

# One pass over every paper table/figure benchmark plus the scheduler
# benchmark, and over the dense baseline's own: its likelihood and recycle
# in cache (one site) and out of it (a 256 MB window — the Formula-1
# regime). Use -benchtime above 1x for stable numbers.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x . ./internal/soapsnp

# One iteration of every benchmark of the simulator, the sort, the
# aligner (index build and read placement), the text parsers (FASTQ
# among them), the codecs, the Bayesian tables, the sparse engine and the
# calling service, no tests: a benchmark an API change broke fails the
# gate here rather than in the hands of the next person who runs it.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/gpu ./internal/sortnet ./internal/align ./internal/snpio \
		./internal/compress ./internal/bayes ./internal/gsnp ./internal/service

# The benchmark lives in two modules of its own. Its tests check the
# command against BENCHMARK.json, and bench/layerprobe calls the leaf
# packages' public functions directly: if a change to one of those breaks
# its build, a traced benchmark run reports zeros for every per-layer
# metric instead of failing, so the build is checked here.
bench-check:
	cd bench && $(GO) test ./...
	cd bench/layerprobe && $(GO) build -o /dev/null .

# The whole benchmark (five workloads, ten seeds, then one traced pass;
# about an hour on a two-core host) against the committed baseline set: one verdict
# per metric and workload, exit 1 on any `worse`. See bench/README.md.
bench-compare:
	bash bench/run.sh all --out bench/out/new.json
	bash bench/run.sh compare bench/results/set1.json bench/out/new.json

# Non-test, non-testdata Go lines under cmd/ and internal/, per package and
# in total (plain `wc -l`: blank and comment lines count, so neither
# deleting comments nor denser formatting is a way to move it honestly).
# "Net lines removed at equal goldens" is counted by this rule.
loc:
	@find cmd internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	     END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# The line budget ratchets: `make loc`'s total may not exceed LOC_CEILING.
# A change that removes lines lowers the ceiling to its new total. A change
# that must raise it explains why in CHANGES.md, package by package, with
# the lines it added to each (`make loc` before and after).
LOC_CEILING = 19698

loc-check:
	@total=$$($(MAKE) -s --no-print-directory loc | awk '$$2 == "total" { print $$1 }'); \
	if [ -z "$$total" ] || [ "$$total" -gt $(LOC_CEILING) ]; then \
		echo "loc-check: $$total lines exceed the ceiling of $(LOC_CEILING)"; exit 1; fi; \
	echo "loc-check: $$total lines, ceiling $(LOC_CEILING)"
