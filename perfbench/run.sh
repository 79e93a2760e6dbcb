#!/usr/bin/env bash
# Builds positcampaign, positserve and perfbench from this
# checkout, then runs one benchmark workload. Run it from the root of a
# positres checkout:
#
#   bash perfbench/run.sh --workload paper_campaign --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seconds 20 --trace 0   # every workload
#
# Everything it writes (Go build cache, binaries, program state, and
# the spans of a --trace 1 run in spans.jsonl) stays under .bench_build/
# in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/positcampaign" || ! -d "$root/cmd/positserve" ]]; then
  echo "perfbench: run from the root of a positres checkout (cmd/positcampaign and cmd/positserve are missing)" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/positcampaign ./cmd/positserve >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -state "$out/state" -spans "$out/spans.jsonl" "$@"
