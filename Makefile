# Developer entry points. CI runs the same targets, so local and CI
# behaviour cannot drift: the CI test job is exactly `make check`, the
# lint job `make lint`, the fuzz-smoke job `make fuzz-smoke`, and the
# bench job `make bench-quick bench-guard`.

GO ?= go

.PHONY: build test race vet fmt lint staticcheck fuzz fuzz-smoke \
	bench bench-quick bench-exec bench-mut bench-dur bench-load \
	bench-adm bench-qc bench-shard bench-guard loadtest golden check cover \
	obs-smoke benchmark-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomises test (and subtest) execution order, so
# accidental inter-test state dependencies surface in CI instead of in
# the field; the seed is printed on failure for reproduction.
race:
	$(GO) test -race -shuffle=on ./...

# benchmark-smoke runs the serving benchmark's own tests (a nested
# module, so `go test ./...` at the root never enters it): a production
# change that breaks its canary digest or its ledger chain fails here,
# before anyone measures with it. About 30 s; needs GOMAXPROCS >= 2.
benchmark-smoke:
	cd benchmark && $(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any file is not gofmt-clean (the lint gate; run
# `gofmt -w .` to fix).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck runs if the binary is installed, and is a no-op otherwise
# (CI installs it; local runs stay dependency-free).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi

lint: fmt vet staticcheck

# fuzz gives every fuzz target a longer budget for local sessions;
# fuzz-smoke is the ~20s-per-target leg CI runs on every push.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzNormalizeKeywords -fuzztime 30s ./internal/query
	$(GO) test -run '^$$' -fuzz FuzzApplyMutations -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/durable

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzNormalizeKeywords -fuzztime 20s ./internal/query
	$(GO) test -run '^$$' -fuzz FuzzApplyMutations -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 20s ./internal/durable

# bench writes the pipeline grid, the executor legs, the mutation legs,
# and the durability legs to BENCH_*.json — the perf-trajectory
# artifacts CI archives on every run.
bench:
	$(GO) run ./cmd/bench -out BENCH_pipeline.json -exec-out BENCH_executor.json -mut-out BENCH_mutations.json -dur-out BENCH_durability.json

bench-quick:
	$(GO) run ./cmd/bench -quick -out BENCH_pipeline.json -exec-out BENCH_executor.json -mut-out BENCH_mutations.json -dur-out BENCH_durability.json

# bench-exec / bench-mut / bench-dur measure one grid in isolation.
bench-exec:
	$(GO) run ./cmd/bench -only executor -exec-out BENCH_executor.json

bench-mut:
	$(GO) run ./cmd/bench -only mutate -mut-out BENCH_mutations.json

bench-dur:
	$(GO) run ./cmd/bench -only durable -dur-out BENCH_durability.json

# bench-load runs the serving-path load grid (saturation ramp, open
# loop at half the knee, 8x oversubscription against the admission
# gate) on a ~1M-row dataset. It takes minutes at full size and is
# therefore not part of `make bench`; CI runs the -quick variant.
bench-load:
	$(GO) run ./cmd/bench -only load -load-out BENCH_load.json

# bench-adm runs the adaptive-admission grid (static gate hand-placed
# at the measured knee vs the AIMD governor discovering it vs no gate,
# each 8x-oversubscribed) on a ~1M-row dataset. Like bench-load it
# takes minutes and is not part of `make bench`; CI runs -quick.
bench-adm:
	$(GO) run ./cmd/bench -only admission -adm-out BENCH_admission.json

# bench-qc runs the answer-cache grid (a Zipf-skewed repeated-query
# stream over real HTTP, cache-off vs the engine-lifetime qcache) on a
# ~1M-row dataset. Like bench-load it takes minutes and is not part of
# `make bench`; CI runs -quick.
bench-qc:
	$(GO) run ./cmd/bench -only qcache -qc-out BENCH_qcache.json

# bench-shard runs the sharding grid (single-process serving vs the
# N-shard scatter-gather coordinator over identical data and ops) on a
# ~1M-row dataset. The speedup_vs_1shard ratio needs free cores to
# exceed 1 (docs/sharding.md); like bench-load it takes minutes and is
# not part of `make bench`; CI runs -quick.
bench-shard:
	$(GO) run ./cmd/bench -only shard -shard-out BENCH_shard.json

# loadtest is an interactive closed-loop run against an in-process
# server; see cmd/loadtest -help for open-loop, saturation, and
# external-server modes.
loadtest:
	$(GO) run ./cmd/loadtest

# bench-guard re-measures the executor, mutation, and durability grids
# and fails when a tracked speedup (postings-vs-scan, apply-vs-rebuild,
# recover-vs-build) regressed >25% vs the committed baselines. Speedups
# are within-run ratios, so the guard transfers across machines; the
# pipeline grid is excluded because its parallel speedups depend on the
# host's core count.
bench-guard:
	cp BENCH_executor.json /tmp/bench_base_executor.json
	cp BENCH_mutations.json /tmp/bench_base_mutations.json
	cp BENCH_durability.json /tmp/bench_base_durability.json
	$(GO) run ./cmd/bench -only executor,mutate,durable \
		-compare /tmp/bench_base_executor.json,/tmp/bench_base_mutations.json,/tmp/bench_base_durability.json -threshold 0.25

# golden regenerates testdata/golden after an intentional ranking change.
# Plain `make test` fails if golden files drift without this.
golden:
	$(GO) test -run TestGolden . -update

# cover enforces a coverage floor on the control-plane packages whose
# correctness is all edge cases: the admission governor, the metrics
# histograms, and the answer cache (admission, eviction, invalidation,
# persistence). 85% is a floor, not a target — new branches in these
# packages arrive with tests or fail CI.
cover:
	@for pkg in internal/admission internal/metrics internal/qcache; do \
		$(GO) test -coverprofile=/tmp/cover_gate.out ./$$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=/tmp/cover_gate.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct%"; \
		awk -v p="$$pct" 'BEGIN { exit (p+0 < 85) ? 1 : 0 }' || \
			{ echo "FAIL: $$pkg coverage $$pct% is below the 85% floor"; exit 1; }; \
	done

# obs-smoke exercises the observability stack end-to-end against a
# real cmd/serve process (not httptest): tracing + query log +
# slow-query dump on, drive requests, scrape /metrics and assert the
# core families, SIGTERM-drain, then decode the query log through
# cmd/qlogcheck. The CI obs-smoke job is exactly this target.
obs-smoke:
	sh scripts/obs_smoke.sh

# check is the CI test job: vet + build + race-enabled tests.
check: vet build race
