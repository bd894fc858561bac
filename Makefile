# The CI gate. `make check` is what .github/workflows/ci.yml runs.

GO ?= go

# Packages whose concurrency is load-bearing: the race detector gates
# them on every check (running -race over the whole module is much
# slower and adds nothing — everything else is single-goroutine).
RACE_PKGS := ./internal/mpi/... ./internal/core/...

.PHONY: check build vet esvet test esbench race racedist bench benchsmoke largesmoke spillsmoke ab loc clean

check: build vet esvet test esbench race racedist

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Exits 1 only on error-severity findings; warn-severity (e.g.
# configdoc) is report-only. CI additionally uploads `esvet -sarif`
# to code scanning.
esvet:
	$(GO) run ./cmd/esvet ./...

test:
	$(GO) test ./...

# cmd/esbench is a nested module (BENCHMARK.json builds and runs it), so
# the ./... patterns above never see it: vet and test it by name, or an
# API change in internal/core can break the benchmark with every other
# gate green.
esbench:
	$(GO) vet -C cmd/esbench .
	$(GO) test -C cmd/esbench .

race:
	$(GO) test -race -timeout 20m $(RACE_PKGS)

# Multi-process distributed leg: drives the real ProcWorld/esworker path
# across genuine OS processes (helper-process pattern in main_test.go),
# with the race detector on in every process. Includes the
# fault-injection leg (TestRunKillRestoreMultiProcess): a worker is
# SIGKILLed mid-run and the world must roll back to its last committed
# checkpoint, admit a replacement rank, and finish with the input's
# exact degree sequence. That leg then runs five more times: it failed
# about one run in four while the restarted coordinator's listen did not
# retry "address already in use" (see newDistHub), which one pass hides.
racedist:
	$(GO) test -race -timeout 10m ./cmd/esworker/
	$(GO) test -race -count=5 -timeout 10m -run '^TestRunKillRestoreMultiProcess$$' ./cmd/esworker/

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# One tiny iteration of the engine-step benchmarks on small inputs
# (proves the bench harness still runs, without measuring anything),
# plus the regression guards: one full-size run of the tiny-uniform
# p=8 engine config (≈120 edges per rank), failing if transport sends
# or restarts regress >2x against the baseline recorded in the test,
# and one replay of the generation-bootstrap guard config (pa n=100k p=8),
# failing if the deterministic edge count drifts from BENCH_pergen.json
# or pergen is slower than the file bootstrap (the committed speedup is
# machine-dependent and only logged), and one replay per algorithm of the
# randomizer-seam guard (pa/mem/p2 to x=0.9), failing if curveball ends
# below the target visit rate or edge-switching (whose t is an
# expectation) more than 0.01 from it, the deterministic curveball
# trajectory drifts from BENCH_curveball.json, or transport sends
# regress >2x, and one replay of the out-of-core guard slice (pa n=100k
# p=8, in-memory vs tiered store under the committed memory cap),
# failing if the deterministic edge fingerprint drifts, the overlay
# high-water mark exceeds a tenth of the edges, or a rank rewrites its
# base more than once per round plus once. CI runs this so benchmark,
# protocol, generator, and store rot is caught early.
benchsmoke:
	$(GO) test -short -run=^$$ -bench=BenchmarkEngineStep -benchtime=1x ./internal/core/
	$(GO) test -short -run=^$$ -bench=BenchmarkGenerate -benchtime=1x ./internal/core/
	$(GO) test -short -run=^$$ -bench='BenchmarkRandomizer/.*/pa/mem/p2$$' -benchtime=1x ./internal/core/
	$(GO) test -short -run=^$$ -bench=BenchmarkOutOfCore -benchtime=1x ./internal/core/
	BENCHSMOKE=1 $(GO) test -run='^TestBenchsmokeEngineRegression$$' -v ./internal/core/
	BENCHSMOKE=1 $(GO) test -run='^TestBenchsmokePergenRegression$$' -v ./internal/core/
	BENCHSMOKE=1 $(GO) test -run='^TestBenchsmokeCurveballRegression$$' -v ./internal/core/
	BENCHSMOKE=1 $(GO) test -run='^TestBenchsmokeOutOfCoreRegression$$' -v ./internal/core/

# Large-graph smokes: a >=10^7-edge preferential-attachment graph
# through the communication-free bootstrap at p=8, pinned to the exact
# deterministic edge count in BENCH_pergen.json, plus a ~10^6-edge
# curveball run to the target visit rate at p=8; both time-boxed by the
# -timeout.
largesmoke:
	ESLARGE=1 $(GO) test -run='^TestLargeGenSmoke$$|^TestLargeCurveballSmoke$$' -v -timeout 10m ./internal/core/

# Out-of-core smoke: the same >=10^7-edge PA graph, two curveball
# rounds at p=8, run fully in-memory and then through the tiered mmap
# store under a soft memory limit of half the sampled in-memory heap
# peak. The capped run must complete and end bit-identical (curveball
# is deterministic); time-boxed by the -timeout. Then the rollback at the
# same scale: checkpoint one spill round, restore it into fresh spill
# directories, compare fingerprints, log restore vs bootstrap time.
spillsmoke:
	ESSPILL=1 $(GO) test -run='^TestSpillSmoke$$|^TestSpillRestoreSmoke$$' -v -timeout 30m ./internal/core/

# ROADMAP's A/B ground rule as one command: PAIRS interleaved runs of
# `bash cmd/esbench/run.sh --workload $(WORKLOAD) --seconds 20` on this
# checkout and on PARENT (exported under .bench_build/), alternating who
# goes first; prints every run, then medians, quartiles and wins.
#   make ab PARENT=HEAD~1 WORKLOAD=es-pa PAIRS=10
PAIRS ?= 10
ab:
	bash scripts/ab.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# The size ROADMAP's subtraction pass tracks: non-test Go lines of the
# root module (cmd/esbench is its own module). Not part of `make check`.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './cmd/esbench/*' -not -path './.bench_build/*' -not -path '*/testdata/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
