#!/usr/bin/env bash
# Run every workload once and print each end-to-end metric by name and unit.
#   bash bench/run_all.sh [seed] [seconds] [trace]
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
for workload in solve oracle_verify; do
    python3 bench/run.py --workload "$workload" --seed "${1:-1}" \
        --seconds "${2:-50}" --trace "${3:-0}" | sed '$d' || status=1
done
exit "$status"
