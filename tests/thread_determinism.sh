#!/usr/bin/env bash
# Enforces the driver's threading determinism contract: for every registered
# scenario, the JSON document is byte-identical across --threads=1, 2 and 8
# at a fixed (seed, scale), and so are the trace export and a derived
# storage grid. Crossings with the shard knobs live in
# tests/shard_determinism.sh. Registered with CTest as
# harvest_sim_thread_determinism.
set -euo pipefail

BIN=${1:?usage: thread_determinism.sh /path/to/harvest_sim [scale] [seed]}
SCALE=${2:-0.05}
SEED=${3:-42}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The "timing" block (wall-clock telemetry, including the thread count) is
# the one part of the output that legitimately varies across runs; strip it
# before comparing.
STRIP=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/tools/strip_timing.sh
strip_timing() {
  bash "$STRIP" < "$1"
}

status=0
for scenario in $("$BIN" --list-names); do
  "$BIN" --scenario="$scenario" --seed="$SEED" --scale="$SCALE" --threads=1 \
    --out="$tmp/ref.raw.json" 2>/dev/null
  strip_timing "$tmp/ref.raw.json" > "$tmp/ref.json"
  for threads in 2 8; do
    "$BIN" --scenario="$scenario" --seed="$SEED" --scale="$SCALE" --threads="$threads" \
      --out="$tmp/threads$threads.raw.json" 2>/dev/null
    strip_timing "$tmp/threads$threads.raw.json" > "$tmp/threads$threads.json"
    if cmp -s "$tmp/ref.json" "$tmp/threads$threads.json"; then
      echo "OK: $scenario --threads=$threads matches --threads=1"
    else
      echo "FAIL: $scenario output differs between --threads=1 and --threads=$threads" >&2
      status=1
    fi
  done
done

# Trace export must be as thread-deterministic as the runs themselves: the
# .trace files dumped at --threads=1 and --threads=8 must be byte-identical
# (each DC writes only its own file from its own deterministic build), and a
# replayed scenario (replay_regression, covered by the scenario loop above)
# must byte-reproduce across thread counts too.
for threads in 1 8; do
  "$BIN" --scenario=fleet_sweep --seed="$SEED" --scale="$SCALE" --threads="$threads" \
    --set run_durability=false --dump-traces="$tmp/dump$threads" \
    --out=/dev/null 2>/dev/null
done
dump_status=0
for trace in "$tmp"/dump1/*.trace; do
  name=$(basename "$trace")
  if ! cmp -s "$trace" "$tmp/dump8/$name"; then
    echo "FAIL: exported trace $name differs between --threads=1 and --threads=8" >&2
    dump_status=1
  fi
done
if [ "$dump_status" -eq 0 ]; then
  echo "OK: exported traces byte-identical across --threads=1/8"
else
  status=1
fi

# The storage grid's cells run as tasks on the same deterministic executor;
# a derived grid (reduced kind axis + an access load riding the durability
# timeline) must be byte-identical across thread counts too.
GRID_SETS=(--set placement_kinds=stock,history,soft --set access_rate=40
           --set replications=3,4)
"$BIN" --scenario=reimage_storm "${GRID_SETS[@]}" --seed="$SEED" --scale="$SCALE" \
  --threads=1 --out="$tmp/grid.raw.json" 2>/dev/null
strip_timing "$tmp/grid.raw.json" > "$tmp/grid.json"
for threads in 2 8; do
  "$BIN" --scenario=reimage_storm "${GRID_SETS[@]}" --seed="$SEED" --scale="$SCALE" \
    --threads="$threads" --out="$tmp/grid$threads.raw.json" 2>/dev/null
  strip_timing "$tmp/grid$threads.raw.json" > "$tmp/grid$threads.json"
  if cmp -s "$tmp/grid.json" "$tmp/grid$threads.json"; then
    echo "OK: derived storage grid --threads=$threads matches --threads=1"
  else
    echo "FAIL: derived storage grid differs between --threads=1 and --threads=$threads" >&2
    status=1
  fi
done

exit $status
