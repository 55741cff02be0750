#!/usr/bin/env bash
# Enforces the sharding determinism contract: rm_shards / nn_shards are
# execution-layout knobs exactly like --threads, so a scenario's JSON must be
# byte-identical across shard counts crossed with --threads at a fixed
# (seed, scale). The shard knobs are excluded from the rendered "overrides"
# provenance (they live in the stripped "timing" block), which is what makes
# the byte-compare meaningful. tests/thread_determinism.sh owns the --threads
# axis at the default (auto) shard counts; this script owns every crossing
# that sets a shard count. Registered with CTest as
# harvest_sim_shard_determinism.
set -euo pipefail

BIN=${1:?usage: shard_determinism.sh /path/to/harvest_sim [scale] [seed]}
SCALE=${2:-0.05}
SEED=${3:-42}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

STRIP=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/tools/strip_timing.sh

# run SCENARIO THREADS:RM_SHARDS:NN_SHARDS OUT -- the stripped JSON of one
# layout (shard count 0 = auto from fleet size).
run() {
  local threads rm_shards nn_shards
  IFS=: read -r threads rm_shards nn_shards <<< "$2"
  "$BIN" --scenario="$1" --seed="$SEED" --scale="$SCALE" --threads="$threads" \
    --set rm_shards="$rm_shards" --set nn_shards="$nn_shards" \
    --out="$tmp/raw.json" 2>/dev/null
  bash "$STRIP" < "$tmp/raw.json" > "$3"
}

# check SCENARIO LAYOUT...: every layout after the first must byte-match the
# first (the reference).
status=0
check() {
  local scenario=$1 reference=$2
  shift 2
  run "$scenario" "$reference" "$tmp/ref.json"
  for layout in "$@"; do
    run "$scenario" "$layout" "$tmp/run.json"
    if cmp -s "$tmp/ref.json" "$tmp/run.json"; then
      echo "OK: $scenario threads:rm:nn=$layout matches $reference"
    else
      echo "FAIL: $scenario differs at threads:rm:nn=$layout (reference $reference)" >&2
      status=1
    fi
  done
}

# fleet_sweep: both shard axes together, and the RM axis alone (the RM's
# per-slot refresh fans shard tasks out across worker threads, so the thread
# and shard axes interact). 1:0:0 ties the auto layout, which
# thread_determinism.sh crosses with --threads, to the explicit ones.
check fleet_sweep 1:1:1 1:4:4 1:0:0 8:1:1 8:4:4 \
  1:1:0 1:4:0 2:1:0 2:4:0 8:1:0 8:4:0

# The power presets add a second accounting consumer of the shard layout
# (the energy accountant shares the RM's group-snapped partition) plus the
# parking / deferral policies: the energy block must not move a byte either.
for scenario in diurnal_pricing power_cap; do
  check "$scenario" 1:1:0 1:4:0 2:1:0 2:4:0 8:1:0 8:4:0
done

# The fault presets put the shard axes under correlated failures: mass
# evictions hit the RM's sharded reserve accounting and the heal storm hits
# the NameNode's per-lane backpressure (whose lane grouping is canonical,
# fleet-derived -- nn_shards must not scale the in-flight budget).
for scenario in rack_outage telemetry_blackout partition_heal_storm; do
  check "$scenario" 1:1:1 1:1:4 1:4:1 1:4:4 2:1:1 2:4:4 8:1:1 8:1:4 8:4:1 8:4:4
done

# storage_stress carries the heaviest heal queue and interleaves reads with
# it, so every access peeks the shard queues (ProcessRereplication) between
# pushes: the NN axis alone, up to the largest shard count.
check storage_stress 1:1:1 1:1:4 1:1:8 8:1:8
exit $status
