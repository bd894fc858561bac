# The CI gate. .github/workflows/ci.yml runs `make check`'s targets, then
# fuzz, benchsmoke, largesmoke and spillsmoke as steps of their own.

GO ?= go

# Packages whose concurrency is load-bearing: the race detector gates
# them on every check (running -race over the whole module is much
# slower and adds nothing — everything else is single-goroutine).
RACE_PKGS := ./internal/mpi/... ./internal/core/...

.PHONY: check build fmt vet esvet test esbench race racedist fuzz bench benchsmoke largesmoke spillsmoke ab profile loc cover clean

check: build fmt vet esvet test esbench race racedist

build:
	$(GO) build ./...

# Fails, naming them, when gofmt would rewrite any tracked .go file.
fmt:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

vet:
	$(GO) vet ./...

# Exits 1 on any finding. CI additionally uploads `esvet -sarif` to
# code scanning.
esvet:
	$(GO) run ./cmd/esvet ./...

# A deadlock (ranks disagreeing on a collective or a message tag) shows
# up only as a hung test: the 5-minute bound fails it with a goroutine
# dump instead of waiting out the 10-minute default. The slowest
# packages, internal/core and internal/harness, pass in under a minute.
test:
	$(GO) test -timeout 5m ./...

# cmd/esbench is a nested module (BENCHMARK.json builds and runs it), so
# the ./... patterns above never see it: vet and test it by name, or an
# API change in internal/core can break the benchmark with every other
# gate green.
esbench:
	$(GO) vet -C cmd/esbench .
	$(GO) test -C cmd/esbench .

race:
	$(GO) test -race -timeout 20m $(RACE_PKGS)

# Multi-process distributed leg: drives the real ProcWorld path of
# `edgeswitch -coordinator` across genuine OS processes (the test binary
# runs as the command, see TestMain in cmd/edgeswitch/main_test.go),
# with the race detector on in every process. Includes the
# fault-injection leg (TestRunKillRestoreMultiProcess): a worker is
# SIGKILLed mid-run and the world must roll back to its last committed
# checkpoint, admit a replacement rank, and finish with the input's
# exact degree sequence. That leg then runs five more times: it failed
# about one run in four while the restarted coordinator's listen did not
# retry "address already in use" (see newDistHub), which one pass hides.
racedist:
	$(GO) test -race -timeout 10m ./cmd/edgeswitch/
	$(GO) test -race -count=5 -timeout 10m -run '^TestRunKillRestoreMultiProcess$$' ./cmd/edgeswitch/

# The engine's decoders of untrusted bytes, fuzzed 10 s each beyond their
# seed corpora: conversation records (framed at each kind's length, fed
# to a live 2-rank engine), curveball edge runs, checkpoint manifests
# (FuzzDecodeSnapshot) and the result gather's per-rank parts. Every
# input must be handled or refused with a named error.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzConversationRecord$$' -fuzztime 10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzEdgeRun$$' -fuzztime 10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime 10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzReassemble$$' -fuzztime 10s ./internal/core/

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# One tiny iteration of each benchmark family on small inputs (engine
# step, randomizer seam, out-of-core store, mem/tcp ping-pong): proves
# the bench harness still runs, measures nothing. The regression guards
# these families once fed (TestBenchsmoke*) are plain tier-1 tests.
benchsmoke:
	$(GO) test -short -run=^$$ -bench=BenchmarkEngineStep -benchtime=1x ./internal/core/
	$(GO) test -short -run=^$$ -bench='BenchmarkRandomizer/.*/pa/mem/p2$$' -benchtime=1x ./internal/core/
	$(GO) test -short -run=^$$ -bench=BenchmarkOutOfCore -benchtime=1x ./internal/core/
	$(GO) test -short -run=^$$ -bench=BenchmarkPingPong -benchtime=1x ./internal/mpi/

# Large-graph smokes: a >=10^7-edge preferential-attachment graph and a
# >=10^7-edge contact graph through the generation bootstrap at p=8
# (shares routed to their owners; contact shares also sum their within
# counts), each pinned to its exact deterministic edge count, plus a
# ~10^6-edge curveball run to the target visit rate at p=8; all
# time-boxed by the -timeout.
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
# goes first, then 3 sanity pairs on each other workload BENCHMARK.json
# names; prints every run, then per workload medians, quartiles and wins,
# and the claim verdict for WORKLOAD alone.
#   make ab PARENT=HEAD~1 WORKLOAD=es-pa PAIRS=10
PAIRS ?= 10
ab:
	bash scripts/ab.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# ROADMAP's CPU-claim ground rule as one command: `edgeswitch
# -cpuprofile` over seeds 1-5 on this checkout and on PARENT, then both
# merged pprof top-15 lists with their total sample seconds
# (scripts/profile.sh). ARGS are the edgeswitch arguments; empty, the
# script's es-pa shape. Not part of `make check`.
#   make profile PARENT=HEAD~1
#   make profile PARENT=<rev> ARGS="-gen pa -n 50000 -d 10 -p 2 -x 0.9 -scheme HP-D -algo curveball -q"
profile:
	bash scripts/profile.sh $(PARENT) $(ARGS)

# The size ROADMAP's subtraction pass tracks: non-test Go lines of the
# root module (cmd/esbench is its own module). Not part of `make check`.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './cmd/esbench/*' -not -path './.bench_build/*' -not -path '*/testdata/*' | xargs cat | wc -l

# Statement coverage merged across test binaries (a block is covered if
# any package's tests ran it): the module total, then the 10 files with
# the most unrun statements (scripts/cover.sh). Not part of `make check`;
# CI prints it as a report-only step. A full test run, ~1-2 min.
cover:
	bash scripts/cover.sh

clean:
	$(GO) clean ./...
