# Developer entry points. CI runs the same targets, so local and CI
# behaviour cannot drift: the CI test job is exactly `make check`, the
# lint job `make lint`, the fuzz-smoke job `make fuzz-smoke`, and the
# bench job `make bench-guard`.

GO ?= go

.PHONY: build test race vet fmt lint staticcheck fuzz fuzz-smoke \
	bench bench-guard loadtest golden check cover obs-smoke benchmark-smoke \
	race-sweep loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomises test (and subtest) execution order, so
# accidental inter-test state dependencies surface in CI instead of in
# the field; the seed is printed on failure for reproduction.
race:
	$(GO) test -race -shuffle=on ./...

# race-sweep is the scheduled deep race run: five shuffled -race passes
# at each of GOMAXPROCS 2, 4 and 8, so an interleaving that one pass at
# the runner's native width never hits gets several chances to. Far too
# slow for every push (~7 min on 2 cores); CI runs it weekly.
race-sweep:
	@for p in 2 4 8; do echo "== GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -shuffle=on -count=5 ./... || exit 1; \
	done

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
	$(GO) test -run '^$$' -fuzz FuzzGenerateComplete -fuzztime 30s ./internal/query
	$(GO) test -run '^$$' -fuzz FuzzApplyMutations -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzOpenSnapshot -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzFKAdjacency -fuzztime 30s ./internal/relstore
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 30s ./internal/qcache
	$(GO) test -run '^$$' -fuzz FuzzHTTPEndpoints -fuzztime 30s ./httpapi

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzNormalizeKeywords -fuzztime 20s ./internal/query
	$(GO) test -run '^$$' -fuzz FuzzGenerateComplete -fuzztime 20s ./internal/query
	$(GO) test -run '^$$' -fuzz FuzzApplyMutations -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzOpenSnapshot -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzFKAdjacency -fuzztime 20s ./internal/relstore
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 20s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 20s ./internal/qcache
	$(GO) test -run '^$$' -fuzz FuzzHTTPEndpoints -fuzztime 20s ./httpapi

# bench runs the overload leg (internal/bench; see docs/benchmarks.md):
# goodput under 8x load behind a gate placed at the knee, and the
# self-tuning governor against that gate. It builds a ~1M-row dataset
# and takes minutes at full size; QUICK=1 shrinks it to CI size. Nothing
# is written unless OUT names a file: `make bench OUT=BENCH.json`
# re-records the committed baseline.
benchflags = $(if $(QUICK),-quick) $(if $(OUT),-out $(OUT))

bench:
	$(GO) run ./cmd/bench $(benchflags)

# loadtest is an interactive closed-loop run against an in-process
# server; see cmd/loadtest -help for open-loop, saturation, and
# external-server modes.
loadtest:
	$(GO) run ./cmd/loadtest

# bench-guard re-measures the overload leg and fails when one of its
# ratios fell more than 50% below the committed BENCH.json. The ratios
# are within-run quotients — goodput behind the knee gate vs the
# saturation goodput, governor vs hand-placed gate — so the guard
# transfers across machines. The baseline is read before anything is
# measured and nothing is written without OUT, so the tree stays clean.
# Guard without QUICK: the ratios grow with the dataset, and the
# baseline is the full-size run (docs/benchmarks.md). What the other
# mechanisms cost is pinned by exact counts in tier-1 instead.
bench-guard:
	$(GO) run ./cmd/bench $(benchflags) -compare BENCH.json

# golden regenerates testdata/golden after an intentional ranking change.
# Plain `make test` fails if golden files drift without this.
golden:
	$(GO) test -run TestGolden . -update

# cover enforces a coverage floor on the packages whose correctness is
# all edge cases: the admission governor, the metrics histograms, the
# answer cache (admission, eviction, invalidation, persistence), the
# copy-on-write map every snapshot-versioned index shares, and the
# storage engine (copy-on-write tables, posting lists and foreign-key
# adjacency patched by Apply). 85% is a floor, not a target — new
# branches in these packages arrive with tests or fail CI.
cover:
	@for pkg in internal/admission internal/metrics internal/qcache internal/cow internal/relstore; do \
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

# check is the CI test job: vet + build + race-enabled tests, then a vet
# of the nested benchmark module (about 0.3 s warm). `go vet ./...` at
# the root never enters benchmark/, so without it a renamed API that the
# benchmark calls would fail only in CI's benchmark-smoke leg.
check: vet build race
	cd benchmark && $(GO) vet ./...

# loc prints the three size counts ROADMAP tracks: non-test Go lines
# outside the benchmark module, exported With* engine options, and
# cmd/serve flags.
loc:
	@echo "non-test Go lines outside benchmark/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -print0 | xargs -0 cat | wc -l)"
	@echo "With* engine options: $$(grep -c '^func With[A-Z]' keysearch.go)"
	@echo "cmd/serve flags: $$(grep -hcE '^\s*fs\.[A-Za-z0-9]+Var\(' cmd/serve/config.go)"
