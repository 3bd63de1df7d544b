GO ?= go

.PHONY: build test vet fmt race lint lint-bench suppressions check bench bench-smoke bench-json bench-golden smoke-service smoke-fabric vv vv-rare cover fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would reformat any file, printing their names.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt would reformat:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race -short ./...

lint:
	$(GO) run ./cmd/samurailint ./...

# suppressions reviews the waiver inventory: every //lint:ignore and
# //lint:nondet-ok with rule, reason and location. Fails on an empty or
# copy-pasted reason so each waiver stays individually justified.
suppressions:
	$(GO) run ./cmd/samurailint -suppressions ./...

# lint-bench times a full samurailint sweep (whole-program flow
# analysis included, call graph dumped to callgraph.txt) and fails if
# it exceeds 60 seconds — the interprocedural pass must never quietly
# make the lint gate unusable.
lint-bench:
	@start=$$(date +%s); \
	$(GO) run ./cmd/samurailint -graph callgraph.txt ./... || exit 1; \
	end=$$(date +%s); dur=$$((end - start)); \
	echo "samurailint full sweep: $${dur}s (limit 60s)"; \
	if [ $$dur -gt 60 ]; then echo "lint-bench: sweep exceeded 60s" >&2; exit 1; fi

# check is the full local gate — identical to what CI runs on every PR.
check: build test vet fmt race lint suppressions bench-smoke bench-golden vv vv-rare cover

# vv runs the statistical conformance matrix (DESIGN.md §10): occupancy,
# dwell and transition statistics sampled through the production trap
# kernel against the closed-form master equation, plus the samurai.Run
# end-to-end battery. Deterministic: the fixed seed makes vv_report.json
# bit-identical run to run.
vv:
	$(GO) run ./cmd/samuraivv -seed 1 -o vv_report.json
	@echo wrote vv_report.json

# vv-rare runs the rare-event unbiasedness battery (DESIGN.md §15):
# every importance-sampled row against the closed-form Master-equation
# occupancy within the Bonferroni budget, the exact incremental-vs-
# recomputed log-LR gate, and the tilt-0 bit-identity row. The report
# carries per-row ESS / LR variance / CI half-width plus the
# paths-to-CI speedup table. Deterministic for the fixed seed.
vv-rare:
	$(GO) run ./cmd/samurairare -seed 1 -o rare_report.json
	@echo wrote rare_report.json

# cover publishes a coverage summary for the tier-1 tree. Coverage is
# advisory (see check.sh for the threshold note), never a hard gate.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./... > /dev/null
	@$(GO) tool cover -func=coverage.out | tail -n 1

# fuzz-smoke gives each fuzz target a short adversarial burst. Targets
# are invoked one at a time: `go fuzz` rejects -fuzz patterns matching
# more than one target in a package.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReplay$$' -fuzztime=10s ./internal/jobd
	$(GO) test -run='^$$' -fuzz='^FuzzCursorEquivalence$$' -fuzztime=10s ./internal/waveform
	$(GO) test -run='^$$' -fuzz='^FuzzParseDeck$$' -fuzztime=10s ./internal/circuit
	$(GO) test -run='^$$' -fuzz='^FuzzSparseVsDenseLU$$' -fuzztime=10s ./internal/num
	$(GO) test -run='^$$' -fuzz='^FuzzPatternVsDenseLU$$' -fuzztime=10s ./internal/num

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-smoke runs every benchmark once so a broken experiment harness
# fails the gate; the output lands in bench.txt (CI uploads it as an
# artifact).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ . > bench.txt
	@tail -n 3 bench.txt

# bench-golden runs the samuraibench module's tests, then a short
# untraced pass of all five workloads at seed 1, whose first ops must
# reproduce the golden digests in cmd/samuraibench/testdata. The
# benchmark is a Go module of its own, so `go test ./...` here never
# sees it.
bench-golden:
	$(GO) -C cmd/samuraibench test -short ./...
	bash cmd/samuraibench/run.sh -seed 1 -seconds 2 -trace 0

# bench-json records the machine-readable benchmark trajectory: a real
# (multi-iteration) -benchmem run parsed into bench_trajectory.json,
# diffed against the baseline saved in bench_baseline.txt, with the
# build/machine provenance manifest embedded (-runinfo) and the
# regression gate armed: any allocs/op or B/op growth beyond 10% vs
# the baseline exits non-zero. BenchmarkRareSpeedup (the rare-event
# variance-reduction engine) is absent from the baseline, so it
# records trajectory without gating, but the benchmark itself fails
# below a 100x paths-to-CI speedup, so the pinned paths-speedup-x
# metric is a floor as well as a trajectory. The two
# uniformisation kernels run at 20 iterations (the rest stay at 2x —
# Fig 3 alone is seconds per op) so the recorded sequential-vs-batch
# ratio is stable enough to read the ≥5x per-trap-path speedup off
# ns/op vs ns/trap-path.
bench-json:
	$(GO) test -bench='^(BenchmarkRun|BenchmarkFullMethodology|BenchmarkArrayTransient|BenchmarkCellTransient|BenchmarkFig2MarginStack|BenchmarkFig3SpectralDensity|BenchmarkFig5GlitchScenarios|BenchmarkRareSpeedup)$$' \
		-benchmem -benchtime=2x -run=^$$ . > bench_current.txt
	$(GO) test -bench='^(BenchmarkCoreUniformise|BenchmarkBatchUniformise)$$' \
		-benchmem -benchtime=20x -run=^$$ . >> bench_current.txt
	$(GO) run ./cmd/benchjson -baseline bench_baseline.txt -gate -runinfo -o bench_trajectory.json bench_current.txt
	@rm -f bench_current.txt
	@echo wrote bench_trajectory.json

# smoke-service exercises samuraid end to end: build -race, start on an
# ephemeral port, run a tiny array job over HTTP, SIGTERM, assert a
# clean drain and a non-empty job store.
smoke-service:
	./scripts/smoke_samuraid.sh service

# smoke-fabric exercises the distributed sweep fabric: a samuraid
# coordinator with a 1s lease TTL, two samuraiw workers (one rigged to
# crash mid-lease without releasing), a 32-cell job swept to done, and
# assertions that the abandoned lease was stolen (steals_total >= 1 in
# /fabric/status) and every cell is durable.
smoke-fabric:
	./scripts/smoke_samuraid.sh fabric
