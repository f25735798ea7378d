#!/bin/sh
# Benchmark smoke target, a few minutes.  Each gate runs in exactly one
# step:
#
#   step                                   gates
#   -------------------------------------  ----------------------------------------
#   pytest benchmarks -m ordering_smoke    ordering edits stay O(1) in row writes;
#                                          order keys keep >=10x over renumbering;
#                                          score import walks stay linear in measures
#   pytest test_bench_obs -m obs_smoke     no-sink tracing overhead stays under 3%
#   pytest test_bench_compare              the --compare and gate logic, on
#                                          synthetic reports
#   bench_report.py --compare BENCH_*      every op's answer is right; no p50 more
#     --scale-rows 0                       than 25% over the committed quel /
#                                          storage / text / net baselines;
#                                          catalog_ranked_topk_speedup >= 10;
#                                          catalog_similar_speedup >= 10
#   mvcc_smoke.sh                          snapshot isolation (fast matrix)
#   net_smoke.sh                           wire-fault sweep (fast matrix)
#   text_smoke.sh                          text index == rebuild-from-rows
#
# catalog_scale_search_ratio <= 5 needs the 1M-row catalogue: it runs in
# `text_smoke.sh --scale`.  `bench_report.py --check` runs in tier-1
# (tests/test_bench_report.py).
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src python -m pytest benchmarks -q -k ordering -m ordering_smoke "$@"
PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py -q -m obs_smoke
PYTHONPATH=src python -m pytest benchmarks/test_bench_compare.py -q -m bench_compare
PYTHONPATH=src python scripts/bench_report.py --scale-rows 0 \
    --compare BENCH_quel.json --compare BENCH_storage.json \
    --compare BENCH_text.json --compare BENCH_net.json
sh scripts/mvcc_smoke.sh
sh scripts/net_smoke.sh
sh scripts/text_smoke.sh
