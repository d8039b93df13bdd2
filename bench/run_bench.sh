#!/usr/bin/env sh
# Runs the SQL-operator hot-path benches and writes the join/agg micro and
# service-throughput results as Google Benchmark JSON.
#
# Usage: bench/run_bench.sh [build-dir] [out-json] [service-out-json]
#   build-dir  CMake build tree containing the bench binaries
#              (default: build). Use a Release tree for real numbers:
#                cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
#                cmake --build build-release -j
#   out-json   Output path for the join/agg results
#              (default: BENCH_join_agg.json in the repo root).
#   service-out-json  Output path for the service sessions sweep
#              (default: BENCH_service.json in the repo root).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
out_json=${2:-"$repo_root/BENCH_join_agg.json"}
service_json=${3:-"$repo_root/BENCH_service.json"}

for bin in bench_table1_sql_ops bench_join_micro bench_service; do
  if [ ! -x "$build_dir/bench/$bin" ]; then
    echo "error: $build_dir/bench/$bin not found or not executable." >&2
    echo "Build the benches first: cmake --build $build_dir -j" >&2
    exit 1
  fi
done

echo "== bench_table1_sql_ops (paper Table 1 SQL operators) =="
"$build_dir/bench/bench_table1_sql_ops"

echo
echo "== bench_join_micro -> $out_json =="
"$build_dir/bench/bench_join_micro" \
  --benchmark_out="$out_json" --benchmark_out_format=json

echo
echo "== bench_service (sessions sweep) -> $service_json =="
"$build_dir/bench/bench_service" \
  --benchmark_out="$service_json" --benchmark_out_format=json

echo
echo "Wrote $out_json and $service_json"
