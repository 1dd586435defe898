GO ?= go

.PHONY: all build test race check fmt vet lint bench bench-suite bench-hot bench-smp bench-mesh bench-dev bench-sessions tables bench-report baseline chaos chaos-short profile

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector (the DSM/netsim fault
# machinery and the parallel experiment runner must stay race-clean),
# with shuffled test order so inter-test state dependencies surface.
race:
	$(GO) test -race -shuffle=on ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs staticcheck when it is installed; otherwise it prints a
# notice and succeeds, so local `make check` never requires the binary.
# CI installs staticcheck, so findings still gate merges.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
		echo "lint: go install honnef.co/go/tools/cmd/staticcheck@latest"; \
	fi

# check is the CI gate: formatting, static analysis, and the full test
# suite under the race detector.
check: fmt vet lint build race

# bench is the quick smoke sweep: one iteration of every benchmark, so a
# broken benchmark fails fast. Its numbers are NOT comparable between
# runs (one iteration measures mostly warm-up) — use bench-suite for
# before/after timing.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-suite measures BenchmarkRunAllSerial with a fixed iteration count
# and repetition, the configuration to quote when comparing access-path
# or harness changes: -benchtime 3x amortizes warm-up, -count 5 exposes
# run-to-run spread (feed the output to benchstat if installed). Pin CPU
# frequency scaling before trusting small deltas.
bench-suite:
	$(GO) test -bench BenchmarkRunAllSerial -benchtime 3x -count 5 -run '^$$' .

# bench-hot measures the simulator's access-path micro-benchmarks with
# allocation reporting. The warm access path must stay at 0 allocs/op
# (guarded by TestAccessPathZeroAllocs and the CI alloc gate).
bench-hot:
	$(GO) test -bench Access -benchmem -run '^$$' .

# bench-smp runs only the multiprocessor shootdown experiment (E14):
# cross-CPU invalidation traffic and cycles for all four organizations
# at 1/2/4/8 CPUs. The full sweep (bench-report) includes it too; this
# is the quick view while working on the smp layer.
bench-smp:
	$(GO) run ./cmd/tablegen -e E14 -v

# bench-mesh runs only the clustered-mesh scaling experiment (E16):
# 1 to 256 cores on a 2D mesh of 4-CPU clusters, asserting in-run that
# per-op shootdown requests track the sharer count, not the core count.
bench-mesh:
	$(GO) run ./cmd/tablegen -e E16 -v

# bench-dev runs only the device-agent experiment (E17): IOTLB
# shootdown cost, quarantine and rejoin for NIC/DMA/GC agents across
# all four organizations, asserting in-run that fault-free runs keep
# every device protocol counter at zero and that a dead device is
# quarantined, fenced, and rejoined within the convergence bound.
bench-dev:
	$(GO) run ./cmd/tablegen -e E17 -v

# bench-sessions runs the million-session lifecycle experiment (E18):
# every organization through 1M domain create/destroy cycles with in-run
# oracle destroy sweeps, ID/group recycling assertions and the
# sharer-bounded destroy-shootdown table, plus the session-churn
# microbenchmark with allocation reporting (domain churn must stay
# allocation-free once the pool is warm; the kernel alloc gates in
# internal/kernel/allocs_test.go enforce 0 allocs/cycle).
bench-sessions:
	$(GO) run ./cmd/tablegen -e E18 -v
	$(GO) test -bench Churn -benchmem -run '^$$' ./internal/workload/sessions

tables:
	$(GO) run ./cmd/tablegen -parallel 4

# profile runs one experiment (E=E18 by default) and writes its host CPU
# profile to $(E).cpu.prof and its end-of-run heap profile to
# $(E).mem.prof; read them with `go tool pprof -top $(E).cpu.prof`.
# Profiling never changes simulated cycles or counters.
E ?= E18
profile:
	$(GO) run ./cmd/tablegen -e $(E) -cpuprofile $(E).cpu.prof -memprofile $(E).mem.prof > /dev/null

# bench-report runs the experiment suite on the parallel harness and
# requires its deterministic surface (simulated cycles and counters) to
# match the committed baseline byte for byte.
bench-report:
	$(GO) run ./cmd/benchreport -parallel 4 -baseline BENCH_baseline.json

# baseline refreshes BENCH_baseline.json; commit the result whenever a
# deliberate cost-model or experiment change moves simulated cycles or
# recorded counters.
baseline:
	$(GO) run ./cmd/benchreport -parallel 4 -o BENCH_baseline.json

# chaos runs the deterministic fault campaign: every experiment under
# every fault scenario, with the shadow protection oracle verifying
# each kernel after hardware recovery. Same seed, byte-identical report.
chaos:
	$(GO) run ./cmd/chaos -seed 1

# chaos-short is the CI-sized campaign (subset of experiments, every
# scenario).
chaos-short:
	$(GO) run ./cmd/chaos -seed 1 -short
