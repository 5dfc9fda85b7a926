#!/usr/bin/env bash
# The tensor, forest and memo rungs of the layer ladder (micro bench,
# `kernels`, `matsci` and `memo` groups) on a short window. Fails if a
# group stops building or running, or if its output lacks a row
# DESIGN.md cites (§16 for the kernels and the forest, §7 for the memo
# key hashes and lookups): the text says they are reproduced by these
# commands, so their rows have to exist.
set -euo pipefail
cd "$(dirname "$0")/.."

# <group> <row>…: run the group (the filter `<group>/`, so `memo` is not
# also `memo_contended`), then check each row is in its output.
smoke() {
  local group=$1 out row
  shift
  out=$(CRITERION_MEASUREMENT_MS="${CRITERION_MEASUREMENT_MS:-50}" \
    cargo bench -p dlhub-bench --bench micro -- "${group}/")
  echo "${out}"
  for row in "$@"; do
    if ! grep -q "^${group}/${row} .*time:" <<<"${out}"; then
      echo "kernels smoke: no row ${group}/${row} (cited by DESIGN.md)" >&2
      exit 1
    fi
  done
}

smoke kernels gemm_32x288x1024 dense_4096x256 relu_32x32x32 \
  maxpool_32x32x32_2x2 conv_relu_pool_32x32x32 cifar10_forward inception_forward
smoke matsci forest_fit forest_predict forest_predict_pool forest_predict_many
smoke memo hit miss key_hash_cifar_input key_hash_int
