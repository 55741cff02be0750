#!/usr/bin/env bash
# CI perf/behavior tracking: re-runs every blessed (scenario, seed) pair at
# the CI scale and diffs the JSON byte-for-byte against tests/golden/. Any
# difference is a behavior change -- either a regression, or an intentional
# change that must be re-blessed with tools/bless_goldens.sh.
#
# Blessed outputs are byte-exact within one builder image only: the pipeline
# uses libm transcendentals, whose trailing digits can move across
# toolchains (see DESIGN.md). Re-bless when the builder image changes.
set -euo pipefail

BIN=${1:?usage: golden_check.sh /path/to/harvest_sim /path/to/tests/golden}
GOLDEN_DIR=${2:?golden dir}
SCALE=0.05  # must match tools/bless_goldens.sh

shopt -s nullglob
goldens=("$GOLDEN_DIR"/*.json)
if [ ${#goldens[@]} -eq 0 ]; then
  echo "FAIL: no blessed results under $GOLDEN_DIR (run tools/bless_goldens.sh)" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Remove the top-level "timing" block (per-stage wall-clock telemetry) before
# diffing: it is the one intentionally nondeterministic part of the output.
STRIP=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/tools/strip_timing.sh
strip_timing() {
  bash "$STRIP" < "$1"
}

status=0
for golden in "${goldens[@]}"; do
  base=$(basename "$golden" .json)  # e.g. dc9_testbed.seed42
  scenario=${base%.seed*}
  seed=${base##*.seed}
  "$BIN" --scenario="$scenario" --seed="$seed" --scale="$SCALE" --threads=2 \
    --out="$tmp/$base.raw.json" 2>/dev/null
  strip_timing "$tmp/$base.raw.json" > "$tmp/$base.json"
  if cmp -s "$golden" "$tmp/$base.json"; then
    echo "OK: $base matches blessed results"
  else
    echo "FAIL: $base differs from blessed $golden" >&2
    # The first lines of the diff name the moved fields in the CI log.
    diff "$golden" "$tmp/$base.json" | head -n 20 >&2 || true
    echo "      (if the change is intentional, run tools/bless_goldens.sh)" >&2
    status=1
  fi
done
exit $status
