# Tier-1 gate: build + vet + tests + race. `make ci` is what a PR must
# keep green; `make quick` is the short edit loop (-short skips the
# figure-shape sweep).

GO ?= go

.PHONY: ci quick build vet fmt test race bench benchsmoke fanout-oracle lpperf-test fuzz fuzz-smoke figures cover golden chaos-smoke vuln clean

ci: build vet fmt test race cover benchsmoke fanout-oracle lpperf-test fuzz-smoke chaos-smoke vuln

quick: build vet
	$(GO) test -short ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any Go file in the tree is not gofmt-clean, listing them.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmt: gofmt -l reports unformatted files:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Statement-coverage gate over the service, taxonomy and sweep-harness
# layers. The harness is in so its one execution path (the per-benchmark
# batch every sweep and Report takes, with its retry, failure fan-out and
# cancel branches) stays covered. Atomic mode so the gate composes with
# concurrent handler code; fails ci when the packages' combined coverage
# drops below COVER_MIN%.
COVER_MIN ?= 80
cover:
	$(GO) test -short -covermode=atomic -coverprofile=cover.out \
		-coverpkg=loopapalooza/internal/serve,loopapalooza/internal/core,loopapalooza/internal/bench \
		./internal/serve ./internal/core ./internal/bench
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { pct = $$3 + 0; printf "coverage: %s (gate %d%%)\n", $$3, min; \
		  if (pct < min) { print "FAIL: coverage below gate"; exit 1 } }'
	@rm -f cover.out

# Regenerate the golden report fixtures after an intentional engine
# change, then review the diff like any other code change.
golden:
	$(GO) test ./internal/bench -run TestGolden -update

# One iteration of every benchmark — catches bit-rot in benchmark code
# without paying for stable measurements. Includes the fan-out smoke:
# BenchmarkSweepFanout runs the full paper grid through core.MultiRun and
# fails outright if any cell of the shared-execution sweep diverges.
# The run is then gated against the newest checked-in BENCH_*.json:
# benchjson -compare fails on >20% regression of the gated series. At
# 1x iteration only the deterministic work censuses (instruction counts,
# opcode mix) are gated — per-op costs fold one-time warm-up into the
# single op; a full multi-iteration run gates time and allocations too.
BENCH_BASE ?= $(shell ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1)
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./... | tee benchsmoke.out
	@if [ -n "$(BENCH_BASE)" ]; then \
		$(GO) run ./cmd/benchjson -compare $(BENCH_BASE) benchsmoke.out; \
	else \
		echo "benchsmoke: no BENCH_*.json baseline; skipping regression gate"; \
	fi
	@rm -f benchsmoke.out

# The differential matrix (engine x tracker x Run/MultiRun width/replay,
# internal/core TestDifferentialMatrix) under both a single-core and the
# default scheduler, which must produce bit-identical reports. A run whose
# configurations form several engine classes finds its memory conflicts
# once, in one run tracker on the producing goroutine, and every class
# applies those facts from the shared sealed chunks; under the matrix's
# map tracker the run tracker stores into the map oracle. GOMAXPROCS
# does not set the auto width alone: Parallelism 0 shares GOMAXPROCS
# among the runs in flight, so a concurrent sweep's width-0 runs mostly
# replay inline on any box. The matrix's explicit widths
# {2, NumCPU, 64} are what keep the class-affinity pool covered, and
# both legs run them under a different scheduler. `make test`/`make
# race` already cover the default, and `make cover` runs the matrix's
# -short leg. TestShadowPageRecycling runs MultiRun (widths 0, 1 and 2)
# and ReplayTraceMulti from four goroutines at once, so both legs also
# check reports while shadow pages move between concurrent runs, and
# width-0 runs resolve beside other runs.
fanout-oracle:
	GOMAXPROCS=1 $(GO) test -count=1 \
		-run='TestDifferentialMatrix|TestMultiRun|TestFanoutWorkers|TestShadowPageRecycling' \
		./internal/core
	$(GO) test -count=1 \
		-run='TestDifferentialMatrix|TestShadowPageRecycling' \
		./internal/core

# cmd/lpperf is a nested module (the BENCHMARK.json runner) that the root
# `go build ./...` never compiles; build and test it against this
# checkout's core API.
lpperf-test:
	cd cmd/lpperf && GOPROXY=off GOTOOLCHAIN=local $(GO) test ./...

# Short coverage-guided runs of every fuzz target (go test allows one
# -fuzz per invocation, hence the separate lines). Part of `make ci`:
# ~10s per target catches shallow regressions in the crash-proofing
# without a dedicated fuzz box.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzLexer$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -run='^$$' -fuzz='^FuzzCompile$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -run='^$$' -fuzz='^FuzzCompileAndRun$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzBytecodeDifferential$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzTrackerDifferential$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzTraceDecode$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzFCMDifferential$$' -fuzztime=$(FUZZTIME) ./internal/predict
	$(GO) test -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=$(FUZZTIME) ./internal/wal

# Longer fuzzing session (override FUZZTIME for overnight runs).
fuzz:
	$(MAKE) fuzz-smoke FUZZTIME=2m

# ~45 seconds of seeded fault waves (panic, crash, hang, corrupt, slow,
# dropped heartbeats) through a live worker fleet, every wave checked
# against the chaos contract: jobs terminate, no cell is lost or
# double-committed, completed cells are bit-identical to a single-process
# run. The Restart variant additionally SIGKILLs the durable coordinator
# mid-wave (with torn WAL tails injected) and recovers it from its
# journal. See internal/cluster/chaos.
chaos-smoke:
	LPD_CHAOS_SMOKE=1 $(GO) test -run='^TestChaosSmoke(Restart)?$$' -count=1 -v \
		-timeout 300s ./internal/cluster/chaos

# Known-vulnerability scan. govulncheck is not vendored with the
# toolchain, so the target degrades to a warning where it is missing
# rather than failing ci on a tool gap.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Full measurement run: the perf suite (engine hot path, VM dispatch,
# end-to-end sweep, parallel vs serial vs auto-width sub-benchmarks, the
# paper-grid fan-out sweep, trace replay of every kernel with its
# trace-size census, the uncached front end of every kernel, plus the
# bytecode compiler's opcode-mix census) and the root VM and
# value-predictor benchmarks, rendered to BENCH_PR22.json with the
# speedup-ratio tables and the measuring box's CPU count. Earlier
# BENCH_PR*.json files are checked-in baselines; benchsmoke gates against
# the newest.
bench:
	$(GO) test -run='^$$' -bench='EngineLoadStore|EngineNestedLoadStore|EngineEnterExit|InterpDispatch|SweepSuite|SweepFanout|SweepParallel|BytecodeLowering|FrontEnd|TraceReplay' \
		-benchmem -count=1 ./internal/core ./internal/interp ./internal/bench | tee bench.out
	$(GO) test -run='^$$' -bench='^Benchmark(Interpreter|Predictors)$$' -benchmem -count=1 . | tee -a bench.out
	$(GO) run ./cmd/benchjson -o BENCH_PR22.json bench.out
	rm -f bench.out

figures:
	$(GO) run ./cmd/lpbench

# Remove stray run artifacts: recorded traces, journal generations and
# snapshots left by local lpd -data-dir runs, and coverage/bench scratch.
clean:
	find . -name '*.lptrace' -delete -o -name '*.wal' -delete -o -name '*.snap' -delete
	rm -f cover.out bench.out benchsmoke.out
