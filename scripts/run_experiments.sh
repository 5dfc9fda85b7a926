#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the ablations, all
# served by the real dispatch path. Outputs: results/*.csv plus a
# combined console log on stdout. Exits non-zero if any shape check
# prints [FAIL].
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p dlhub-bench --bins

EXPERIMENTS=(table1 table2 fig3 fig4 fig5 fig6 fig7 fig8
             ablation_batching ablation_autoscale ablation_pipeline ablation_memo)

log=$(mktemp)
trap 'rm -f "$log"' EXIT
for exp in "${EXPERIMENTS[@]}"; do
  echo "######## $exp"
  "./target/release/$exp" | tee -a "$log"
  echo
done

pass=$(grep -c '\[PASS\]' "$log" || true)
fail=$(grep -c '\[FAIL\]' "$log" || true)
echo "######## summary"
echo "shape checks: $pass PASS, $fail FAIL"
if [[ $fail -ne 0 ]]; then
  grep '\[FAIL\]' "$log" >&2
  exit 1
fi
