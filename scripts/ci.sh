#!/bin/sh
# ci.sh — the full local CI pipeline, invoked by `make ci`.
#
# Runs every gate in order and fails fast: formatting, vet, build,
# the perfbench module's vet and tests, positlint (including a
# self-test that the linter still fires on its fixtures), the
# positbench smoke (archived as artifacts/BENCH_PR10.json,
# with an informational trajectory print against the newest committed
# baseline), the posit and store fuzz smokes, the bounded-memory
# columnar-store smoke (a 10⁷-trial campaign under GOMEMLIMIT whose
# store-rendered CSV must hash identically to the direct encoder and
# whose peak RSS must stay below half its materialized trials), the
# positload chaos smoke, the short test suite, the race-detector pass,
# and the e2e battery — kill-and-resume campaign, kill-and-restart
# positserve, dead-worker cluster fan-out, and the chaos-and-soak load
# run. Each step prints a banner so failures are attributable at a
# glance.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
step=0

banner() {
	step=$((step + 1))
	echo ""
	echo "=== ci [$step] $* ==="
}

banner "gofmt: no formatting drift"
fmt_drift=$(gofmt -l .)
if [ -n "$fmt_drift" ]; then
	echo "gofmt drift in:"
	echo "$fmt_drift"
	exit 1
fi
echo "clean"

banner "go vet ./..."
$GO vet ./...

banner "go build ./..."
$GO build ./...

banner "perfbench module: vet and test (it compiles against runner, store, serve and core)"
(cd perfbench && $GO vet ./... && $GO test ./...)

banner "positlint ./..."
$GO run ./cmd/positlint ./...

banner "positlint JSON artifact: artifacts/positlint.json"
mkdir -p artifacts
$GO run ./cmd/positlint -format json ./... >artifacts/positlint.json
grep -q '"schema": "positlint-diag/v1"' artifacts/positlint.json || {
	echo "positlint JSON artifact missing schema tag"
	exit 1
}
echo "ok"

banner "positlint -prune: suppressions must all still match something"
$GO run ./cmd/positlint -prune ./...
echo "no stale suppressions"

banner "positlint self-test: every fixture trips its own rule"
# A built binary, not go run: go run reports every failing exit as 1,
# and an unknown rule (exit 2) must not pass for a finding.
lintdir=$(mktemp -d)
trap 'rm -rf "$lintdir"' EXIT
$GO build -o "$lintdir/positlint" ./cmd/positlint
code=0
"$lintdir/positlint" ./internal/lint/testdata/src/all >/dev/null 2>&1 || code=$?
if [ "$code" -ne 1 ]; then
	echo "positlint exited $code on the all-rules fixture, want 1; the analyzer is broken"
	exit 1
fi
for dir in internal/lint/testdata/src/*/; do
	rule=$(basename "$dir")
	[ "$rule" = all ] && continue
	code=0
	"$lintdir/positlint" -rules "$rule" "./$dir" >/dev/null 2>&1 || code=$?
	if [ "$code" -ne 1 ]; then
		echo "positlint -rules $rule exited $code on its fixture, want 1; the $rule rule is broken or gone"
		exit 1
	fi
done
echo "fixtures trip as expected"

banner "positbench smoke: benchmark driver runs and emits a valid baseline"
mkdir -p artifacts
bench_compare=""
if [ -f BENCH_PR10.json ]; then
	# Informational trajectory print against the newest committed
	# baseline; perf gating stays human judgement (docs/PERF.md).
	bench_compare="-compare BENCH_PR10.json"
fi
# shellcheck disable=SC2086 # bench_compare is intentionally word-split
$GO run ./cmd/positbench -smoke -out artifacts/BENCH_PR10.json $bench_compare
grep -q '"schema": "positres-bench/v1"' artifacts/BENCH_PR10.json || {
	echo "positbench baseline missing schema tag"
	exit 1
}
grep -q '"name": "block_encode_shard"' artifacts/BENCH_PR10.json || {
	echo "positbench baseline missing the block codec benches"
	exit 1
}
grep -q '"name": "store_append_shard"' artifacts/BENCH_PR10.json || {
	echo "positbench baseline missing the columnar store benches"
	exit 1
}
echo "ok (archived as artifacts/BENCH_PR10.json)"

banner "posit fuzz smoke: 5s each over encode, the decoders and field layout, add, parse and the quire"
$GO test -run '^$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 5s ./internal/posit/
$GO test -run '^$' -fuzz FuzzDecodersAgree -fuzztime 5s ./internal/posit/
$GO test -run '^$' -fuzz FuzzAddAgainstRat -fuzztime 5s ./internal/posit/
$GO test -run '^$' -fuzz FuzzParse -fuzztime 5s ./internal/posit/
$GO test -run '^$' -fuzz FuzzQuireFMA -fuzztime 5s ./internal/posit/

banner "store fuzz smoke: 5s each over the shard block decoder, the .pts footer index and opener"
$GO test -run '^$' -fuzz FuzzDecodeBlock -fuzztime 5s ./internal/store/
$GO test -run '^$' -fuzz FuzzFooterIndex -fuzztime 5s ./internal/store/
$GO test -run '^$' -fuzz FuzzOpen -fuzztime 5s ./internal/store/

banner "store smoke: 10M trials, CSV byte-identical; memory set by a few shard-sized buffers (peak RSS < half the materialized trials), not by the campaign"
GOMEMLIMIT=256MiB $GO run ./cmd/positstore smoke \
	-format posit16 -n 1000000 -trials 625000 -bits-per-shard 1

banner "go test -short ./..."
$GO test -short ./...

banner "go test -race -short ./..."
$GO test -race -short ./...

banner "positload smoke: chaos soak against an in-process stack, artifact under artifacts/"
mkdir -p artifacts
$GO run ./cmd/positload -smoke -duration 3s -qps 40 -inject-workers 4 \
	-chaos-latency-p 0.10 -chaos-5xx-p 0.05 -chaos-reset-p 0.02 \
	-out artifacts/load.json >/dev/null
grep -q '"schema": "positres-load/v1"' artifacts/load.json || {
	echo "positload artifact missing schema tag"
	exit 1
}
if grep -q '"violations"' artifacts/load.json; then
	echo "positload smoke violated its error budget:"
	cat artifacts/load.json
	exit 1
fi
echo "ok"

banner "resume e2e: kill-and-resume must reproduce CSVs byte-for-byte"
./scripts/resume_e2e.sh

banner "serve e2e: kill-and-restart positserve must auto-resume byte-for-byte"
./scripts/serve_e2e.sh

banner "cluster e2e: distributed fan-out must survive a dead worker byte-for-byte"
./scripts/cluster_e2e.sh

banner "load e2e: chaos soak must hold its error budget byte-for-byte"
./scripts/load_e2e.sh

echo ""
echo "=== ci: all $step steps passed ==="
