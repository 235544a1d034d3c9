#!/usr/bin/env bash
# One checked pass of perfbench/run.py per workload named, untraced then
# traced, at seed 42. Each pass's last line must report "correct": true; a
# traced pass also checks the pinned trace counters (oracle member counts,
# queries, steps), which an untraced pass does not collect.
#
#   bash .github/checked-passes.sh suite-default cli-oracle-files
#
# Run from the root of a checkout.
set -euo pipefail
for w in "$@"; do
  for t in 0 1; do
    python3 perfbench/run.py --workload "$w" --seed 42 --seconds 0 --trace "$t" | tail -n 1 \
      | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); print(sys.argv[1], "trace", sys.argv[2], r["correct"], r["failed"]); sys.exit(r["correct"] is not True)' "$w" "$t"
  done
done
