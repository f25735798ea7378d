#!/bin/sh
# Catalog-search target: the whole text-index battery in one command --
# normalization/similarity unit tests, the text property battery on the
# shared op-program runner (tests/props/test_text_index_props.py:
# random op programs vs brute-force references -- index candidates a
# superset, verified results exact, ranked top-k equal to sort-all --
# plus the array/bitset size axis and the counting kernels), the crash
# workload aimed at text-index DDL and at the posting stream (every
# recovered index vs a rebuild-from-rows oracle), the QUEL
# matches/similar_to end-to-end tests, and the plan-cache invalidation
# checks for text-index create/drop.
#
# Default: the fast matrices -- some thirty seconds, all of it also on
# in the main test run (the 120k-row bench corpus; tier-1 stays fast).
# Pass --full to add the extended text_slow matrix (more seeds, longer
# op programs, bigger corpora), or --scale to run the million-row
# suite: the text_scale cases of the text battery (ranked top-k vs a
# brute-force sort-all at 1M rows; then checkpoint -> close -> reopen of
# a durable 1M-row catalogue, which must load its index from the posting
# stream, answer the first ranked query as before, and prints reopen
# seconds, stream size and what close() and the checkpoint's hold each
# grew by) plus the bench catalog_scale_* workloads and their hard
# gates (catalog_ranked_topk_speedup >= 10x, catalog_similar_speedup >=
# 10x, catalog_scale_search_ratio <= 5x).
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--scale" ]; then
    shift
    PYTHONPATH=src python -m pytest -q -m text_scale \
        tests/props/test_text_index_props.py "$@"
    PYTHONPATH=src python scripts/bench_report.py --compare BENCH_text.json
    exit 0
fi

MARKER="not text_slow and not text_scale and not crash_slow and not stress_slow"
if [ "${1:-}" = "--full" ]; then
    MARKER="not text_scale and not crash_slow and not stress_slow"
    shift
fi
PYTHONPATH=src python -m pytest -q -m "$MARKER" \
    tests/text \
    tests/props/test_text_index_props.py \
    tests/crash/test_text_index_crash.py \
    tests/crash/test_posting_stream.py \
    tests/quel/test_text_search.py \
    tests/quel/test_limit.py \
    tests/quel/test_cache.py \
    "$@"
