#!/usr/bin/env bash
# Run the product set: every bench at --quick size with each flag variant
# CI gates on, the quick scale ladder at 1, 2 and 4 threads, the six
# examples with their default arguments, a short microbench pass, and the
# three perfbench workloads at seed 1, traced and untraced. This is the
# set of runs whose reach tools/unreached.py measures; tests are not in it.
#
# usage: tools/product_runs.sh BUILD_DIR PERFBENCH_BINARY OUT_DIR
#
# BUILD_DIR is a main-tree build (bench/ and examples/ built), and
# PERFBENCH_BINARY the mdsim_perfbench binary. Every run writes its CSVs
# and log under OUT_DIR; the script stops at the first run that fails.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 BUILD_DIR PERFBENCH_BINARY OUT_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
perfbench=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
mkdir -p "$3"
out=$(cd "$3" && pwd)
cd "$out"

# run TAG CMD...: run CMD with its results directory and log named TAG.
run() {
  local tag=$1
  shift
  echo "== $tag"
  MDSIM_RESULTS_DIR="$out/$tag" "$@" > "$out/$tag.log" 2>&1 || {
    echo "failed: $tag (log: $out/$tag.log)" >&2
    tail -20 "$out/$tag.log" >&2
    exit 1
  }
}

b=$build/bench
for fig in fig2_scaling fig4_cache_hit fig6_forwarding; do
  run "$fig" "$b/$fig" --quick
  for flag in --overload-noop --giga-off --gray-noop; do
    run "$fig$flag" "$b/$fig" --quick "$flag"
  done
done
run fig2_scaling-shards2-t1 "$b/fig2_scaling" --quick --shards=2 --threads=1
run fig2_scaling-shards2-t2 "$b/fig2_scaling" --quick --shards=2 --threads=2
for bench in fig3_prefix_cache fig5_adaptation fig7_flash_crowd \
             latency_breakdown abl_giga_split abl_dirfrag \
             abl_balancer_policy abl_failover abl_distributed_attrs \
             abl_embedded_inodes abl_nvram_journal abl_replication_threshold \
             availability; do
  run "$bench" "$b/$bench" --quick
done
run availability-partition "$b/availability" --quick --scenario=partition
run overload "$b/overload" --quick --scenario=all
run gray_failure "$b/gray_failure" --quick --scenario=all
run sim_scale-t1 "$b/sim_scale" --quick --ladder --threads=1
run sim_scale-t2 "$b/sim_scale" --quick --ladder --no-legacy --threads=2
run sim_scale-t4 "$b/sim_scale" --quick --ladder --no-legacy --threads=4
run sim_scale-base-t4 "$b/sim_scale" --quick --no-legacy --threads=4
run microbench "$b/microbench" --benchmark_min_time=0.01

e=$build/examples
for ex in quickstart mdsim_cli namespace_inspector flash_crowd_tour \
          rebalance_tour; do
  run "$ex" "$e/$ex"
done
# Its only argument is where the demo trace is written.
run trace_replay "$e/trace_replay" "$out/demo_trace.csv"

for w in fig2_dyn16 sharded_8x8 ckpt_storm; do
  for trace in 0 1; do
    run "perfbench-$w-trace$trace" "$perfbench" --workload "$w" --seed 1 \
        --seconds 1 --trace "$trace"
  done
done
