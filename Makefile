# positres — build/test/reproduce targets.

GO ?= go

.PHONY: all build test test-short vet lint lint-fix lint-json lint-prune race ci resume-e2e serve-e2e cluster-e2e chaos-e2e load load-smoke serve bench bench-json bench-compare bench-go store-smoke report report-paper fuzz fuzz-short examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Skips the heaviest exhaustive substrate checks.
test-short:
	$(GO) test -short ./...

# Domain-aware static analysis (see docs/LINT.md). Non-zero exit on
# any unsuppressed diagnostic, so this gates CI. The content-hash
# cache lives under /tmp so repeat runs only re-analyze what changed.
lint:
	$(GO) run ./cmd/positlint -cache "$${TMPDIR:-/tmp}/positlint-cache" ./...

# Apply the mechanical autofixes (errdrop, pkgdoc, exportdoc stubs)
# in place, then report whatever judgement rules still flag.
lint-fix:
	$(GO) run ./cmd/positlint -fix ./...

# Machine-readable diagnostics (positlint-diag/v1), the same document
# CI archives as artifacts/positlint.json.
lint-json:
	$(GO) run ./cmd/positlint -format json ./...

# Report suppression-file entries and inline ignore directives that no
# longer match any diagnostic; `make ci` fails on these.
lint-prune:
	$(GO) run ./cmd/positlint -prune ./...

# Race-detector pass over the short test path (the campaign worker
# pools run at 1/2/8 workers under these tests).
race:
	$(GO) test -race -short ./...

# Full local CI pipeline: fmt, vet, build, lint, tests, race, resume e2e.
ci:
	./scripts/ci.sh

# Kill-and-resume end-to-end: crash and SIGINT a real campaign, resume
# both, require byte-identical CSVs (docs/RESILIENCE.md).
resume-e2e:
	./scripts/resume_e2e.sh

# HTTP twin of resume-e2e: run a campaign through positserve, crash
# the server mid-run, restart it, require auto-resume and
# byte-identical CSVs (docs/SERVICE.md).
serve-e2e:
	./scripts/serve_e2e.sh

# Distributed fan-out e2e: 1 coordinator + 3 workers, SIGKILL one
# worker mid-campaign, require reassignment and CSVs byte-identical to
# a single-node run (docs/SERVICE.md "Coordinator / worker mode").
cluster-e2e:
	./scripts/cluster_e2e.sh

# Chaos soak e2e: positload drives a coordinator + 2 workers with
# chaos proxies on every hop, SIGKILLs and re-registers a worker
# mid-soak, and requires the error budget to hold with CSVs
# byte-identical to a serial baseline (docs/RESILIENCE.md "Chaos & load").
chaos-e2e:
	./scripts/load_e2e.sh

# Self-contained 30s soak: in-process positserve behind an in-process
# chaos proxy, moderate fault mix, artifact under artifacts/.
load:
	mkdir -p artifacts
	$(GO) run ./cmd/positload -smoke -duration 30s -qps 100 -inject-workers 8 \
		-chaos-latency-p 0.10 -chaos-5xx-p 0.05 -chaos-reset-p 0.02 \
		-out artifacts/load.json

# The quick CI variant of `load`: a few seconds, same fault mix.
load-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/positload -smoke -duration 3s -qps 40 -inject-workers 4 \
		-chaos-latency-p 0.10 -chaos-5xx-p 0.05 -chaos-reset-p 0.02 \
		-out artifacts/load.json

# Run the campaign service locally (docs/SERVICE.md has the API).
serve:
	$(GO) run ./cmd/positserve -data-dir serve-state

# Fixed-budget benchmark suite (docs/PERF.md). `bench` prints the
# table; `bench-json` also writes the schema-versioned trajectory file
# committed as the PR's perf baseline.
bench:
	$(GO) run ./cmd/positbench

bench-json:
	$(GO) run ./cmd/positbench -out BENCH_PR10.json

# Informational perf trajectory: rerun the suite and print it next to
# the previous PR's committed baseline (never fails on numbers).
bench-compare:
	$(GO) run ./cmd/positbench -compare BENCH_PR9.json

# Bounded-memory columnar-store equivalence check (docs/STORE.md): a
# 10⁷-trial campaign streamed shard-by-shard into a .pts store under a
# small GOMEMLIMIT, its rendered CSV SHA-256-compared against the
# direct encoder and its footer aggregates schema-validated.
store-smoke:
	GOMEMLIMIT=256MiB $(GO) run ./cmd/positstore smoke \
		-format posit16 -n 1000000 -trials 625000 -bits-per-shard 1

# Raw `go test` benchmarks (the figure-regeneration harness in
# bench_test.go), for ad-hoc -bench=regexp runs.
bench-go:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table/figure (quick budget).
report:
	$(GO) run ./cmd/positreport -fig all

# Full scale: the paper's 313 trials per bit over 2M-element fields.
report-paper:
	$(GO) run ./cmd/positreport -fig all -budget paper

# Brief fuzz pass over the posit substrate invariants and the store
# decoders: the shard block (docs/STORE.md), the footer index and the
# whole-file opener.
fuzz:
	$(GO) test -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 30s ./internal/posit/
	$(GO) test -fuzz FuzzDecodersAgree -fuzztime 30s ./internal/posit/
	$(GO) test -fuzz FuzzAddAgainstRat -fuzztime 30s ./internal/posit/
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/posit/
	$(GO) test -fuzz FuzzQuireFMA -fuzztime 30s ./internal/posit/
	$(GO) test -fuzz FuzzDecodeBlock -fuzztime 30s ./internal/store/
	$(GO) test -fuzz FuzzFooterIndex -fuzztime 30s ./internal/store/
	$(GO) test -fuzz FuzzOpen -fuzztime 30s ./internal/store/

# Smoke-test the fuzzers (5s each) — quick enough for every PR.
# -run '^$' skips the package's (heavy, exhaustive) unit tests so each
# invocation is the 5s fuzz pass and nothing else.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 5s ./internal/posit/
	$(GO) test -run '^$$' -fuzz FuzzDecodersAgree -fuzztime 5s ./internal/posit/
	$(GO) test -run '^$$' -fuzz FuzzAddAgainstRat -fuzztime 5s ./internal/posit/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/posit/
	$(GO) test -run '^$$' -fuzz FuzzQuireFMA -fuzztime 5s ./internal/posit/
	$(GO) test -run '^$$' -fuzz FuzzDecodeBlock -fuzztime 5s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzFooterIndex -fuzztime 5s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 5s ./internal/store/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/regime_expansion
	$(GO) run ./examples/sign_flip
	$(GO) run ./examples/accuracy_profile
	$(GO) run ./examples/campaign_mini
	$(GO) run ./examples/solver_fault
	$(GO) run ./examples/ml_inference

clean:
	$(GO) clean -testcache
