#!/usr/bin/env bash
# Filter (stdin -> stdout) that removes the driver JSON's top-level "timing"
# block -- the one intentionally nondeterministic part of harvest_sim output.
# The JsonWriter's fixed two-space layout makes the block the exact line
# range below; this file is the ONE place that knows that, so every byte-diff
# (golden_check.sh, thread_determinism.sh, shard_determinism.sh,
# bless_goldens.sh) strips identically. In-process tests use ClearTimingForDiff().
set -euo pipefail
exec sed '/^  "timing": {$/,/^  },$/d'
