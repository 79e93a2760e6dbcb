#!/bin/sh
# resume_e2e.sh — kill-and-resume end-to-end proof, invoked by
# `make resume-e2e` and as a `make ci` step.
#
# Drives the real positcampaign binary through the resilience story
# documented in docs/RESILIENCE.md:
#   1. a reference run, uninterrupted;
#   2. a hard-crash run (-debug-crash-after: os.Exit(137) mid-campaign)
#      — journal records must exist, no CSV may be visible;
#   3. resume of the crash run;
#   4. a SIGINT run (-debug-sigint-after: the real signal path) — exit
#      130, manifest "cancelled", no CSV visible;
#   5. resume of the SIGINT run;
#   6. byte-for-byte cmp of every resumed CSV against the reference.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

BIN="$TMP/positcampaign"
$GO build -o "$BIN" ./cmd/positcampaign

# Every field × two codecs: 16 × (16/4 + 32/4) = 192 shards, 12 per
# field in field order. The crash lands among the 8th field's shards
# (Hurricane/PRECIPf48, ~10% zeros) and the SIGINT among the 12th's
# (Hurricane/CLOUDf48, ~62% zeros): both interrupt the run past field
# boundaries, while the next field's dataset generates ahead, on fields
# whose zero selections re-draw.
FLAGS="-field all -formats posit16,ieee32 -n 2000 -trials 8 -seed 5 -bits-per-shard 4"

echo "--- reference run (uninterrupted)"
# shellcheck disable=SC2086 # FLAGS is deliberately word-split
"$BIN" $FLAGS -out "$TMP/ref" >/dev/null
ls "$TMP/ref/"*.csv >/dev/null

echo "--- crash run: simulated hard crash after 90 shards"
status=0
"$BIN" $FLAGS -out "$TMP/crash" -debug-crash-after 90 >/dev/null 2>&1 || status=$?
if [ "$status" -ne 137 ]; then
	echo "expected exit 137 from the crash run, got $status"
	exit 1
fi
if ! ls "$TMP/crash/journal/"*.rec >/dev/null 2>&1; then
	echo "no journal records survived the crash"
	exit 1
fi
if ls "$TMP/crash/"*.csv >/dev/null 2>&1; then
	echo "partial CSV observable at the final path after a crash"
	exit 1
fi

echo "--- resume after crash"
"$BIN" $FLAGS -out "$TMP/crash" -resume >/dev/null

echo "--- SIGINT run: real signal after 138 shards, sequential workers"
status=0
"$BIN" $FLAGS -out "$TMP/sigint" -debug-sigint-after 138 -workers 1 >/dev/null 2>&1 || status=$?
if [ "$status" -ne 130 ]; then
	echo "expected exit 130 from the SIGINT run, got $status"
	exit 1
fi
if ! grep -q '"state": "cancelled"' "$TMP/sigint/manifest.json"; then
	echo "manifest does not record the cancellation:"
	cat "$TMP/sigint/manifest.json"
	exit 1
fi
if ls "$TMP/sigint/"*.csv >/dev/null 2>&1; then
	echo "CSV observable at the final path after SIGINT"
	exit 1
fi

echo "--- resume after SIGINT"
"$BIN" $FLAGS -out "$TMP/sigint" -resume >/dev/null

echo "--- resumed outputs must be byte-identical to the reference"
for f in "$TMP/ref/"*.csv; do
	name=$(basename "$f")
	cmp "$f" "$TMP/crash/$name"
	cmp "$f" "$TMP/sigint/$name"
	echo "identical: $name"
done

echo "resume e2e: OK"
