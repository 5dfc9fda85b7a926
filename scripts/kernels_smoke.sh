#!/usr/bin/env bash
# The tensor rung of the layer ladder (micro bench, `kernels` group) on
# a short window. Fails if the group stops building or running, or if
# its output lacks a row DESIGN.md §16 cites: the table there says it is
# reproduced by this command, so its rows have to exist.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(CRITERION_MEASUREMENT_MS="${CRITERION_MEASUREMENT_MS:-50}" \
  cargo bench -p dlhub-bench --bench micro -- kernels)
echo "${out}"
for row in gemm_32x288x1024 dense_4096x256 relu_32x32x32 \
  maxpool_32x32x32_2x2 cifar10_forward inception_forward; do
  if ! grep -q "^kernels/${row} .*time:" <<<"${out}"; then
    echo "kernels smoke: no row kernels/${row} (cited by DESIGN.md §16)" >&2
    exit 1
  fi
done
