#!/usr/bin/env bash
# Runs the NN kernel microbenchmarks and records BENCH_nn_ops.json at the
# repo root, so the kernel perf trajectory is tracked PR over PR.
#
# Usage: scripts/bench_nn_ops.sh [build-dir] [extra benchmark flags...]
#
# The build dir defaults to ./build and must already contain a compiled
# bench/bench_nn_ops (cmake -B build -S . && cmake --build build -j).
# Environment knob the binary honors:
#   FEDMIGR_GEMM_KERNEL=portable   force the scalar micro-kernel
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

bench_bin="$build_dir/bench/bench_nn_ops"
if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not found; build it first:" >&2
  echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
  exit 1
fi

"$bench_bin" \
  --benchmark_min_time=0.2 \
  --benchmark_out="$repo_root/BENCH_nn_ops.json" \
  --benchmark_out_format=json \
  "$@"

echo "wrote $repo_root/BENCH_nn_ops.json"
