#!/bin/sh
# Fast benchmark smoke target; a few seconds, suitable for CI.  The full
# timing benches live in benchmarks/ (pytest-benchmark, run separately).
#
#   step                                   guards
#   -------------------------------------  ----------------------------------------
#   pytest benchmarks -m ordering_smoke    ordering edits stay O(1) in row writes;
#                                          order keys keep >=10x over renumbering;
#                                          score import walks stay linear in measures
#   pytest test_bench_obs -m obs_smoke     no-sink tracing overhead stays under 3%
#   pytest test_bench_compare              the --compare gate and the hard gates
#                                          (catalog_ranked_topk_speedup,
#                                          catalog_similar_speedup,
#                                          catalog_scale_search_ratio)
#   bench_report.py --check                every BENCH_*.json suite still has a
#                                          valid shape
#   bench_report.py --compare BENCH_*      no p50 more than 25% over the committed
#                                          quel / storage / text / net baselines
#   mvcc_smoke.sh                          snapshot isolation (fast matrix)
#   net_smoke.sh                           wire-fault sweep (fast matrix)
#   text_smoke.sh                          text index == rebuild-from-rows
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src python -m pytest benchmarks -q -k ordering -m ordering_smoke "$@"
PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py -q -m obs_smoke
PYTHONPATH=src python -m pytest benchmarks/test_bench_compare.py -q -m bench_compare
PYTHONPATH=src python scripts/bench_report.py --check
PYTHONPATH=src python scripts/bench_report.py --rounds 7 \
    --compare BENCH_quel.json --compare BENCH_storage.json \
    --compare BENCH_text.json --compare BENCH_net.json
sh scripts/mvcc_smoke.sh
sh scripts/net_smoke.sh
sh scripts/text_smoke.sh
