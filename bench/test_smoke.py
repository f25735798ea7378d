"""Smoke test of the benchmark harness.

    python3 -m pytest bench/test_smoke.py -q

Not collected by tier-1 (``testpaths = ["tests"]``).  Runs every workload
at ``--quick`` sizes, untraced and traced, in about a minute.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*arguments):
    return subprocess.run(
        RUN + list(arguments), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=600,
    )


@pytest.fixture(scope="module")
def quick():
    """``--all --quick`` once; the result set it wrote."""
    out = os.path.join(HERE, "out", "smoke-results.json")
    done = bench("--all", "--quick", "--seed", "5", "--out", out)
    assert done.returncode == 0, done.stdout.decode() + done.stderr.decode()
    with open(out, encoding="utf-8") as handle:
        return out, json.load(handle)


def test_names_are_plain():
    from metrics import CLASS_METRICS

    names = WORKLOADS + list(CLASS_METRICS) + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)


def test_every_workload_reports_exactly_the_declared_metrics(quick):
    _, results = quick
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sorted(results) == sorted(
        "%s/trace%d" % (name, trace) for name in WORKLOADS for trace in (0, 1)
    )
    for key, (result,) in results.items():
        declared = per_layer if result["trace"] else end_to_end
        assert {
            name: entry["unit"] for name, entry in result["metrics"].items()
        } == declared, key
        assert result["correct"] and result["failed"] == 0, result["errors"]
        assert result["class_metrics"]["failed_share"]["value"] == 0
        if not result["trace"]:
            assert all(
                entry["value"] > 0 for entry in result["metrics"].values()
            ), key


def test_a_wrong_expected_result_is_a_failed_op():
    done = bench("--workload", "catalog_local_search", "--quick", "--sabotage")
    assert done.returncode == 0, done.stderr.decode()
    last = json.loads(done.stdout.decode().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["failed"] > 0 and not last["correct"]
    assert last["failed"] < last["attempted"]  # the other classes still pass


def test_layer_self_times_add_up_to_their_roots(quick):
    _, results = quick
    for key, (result,) in results.items():
        if result["trace"]:
            summary = result["trace_summary"]
            assert summary["requests"] > 0, key
            assert summary["self_sum_us"] == pytest.approx(
                summary["root_us"], rel=0.10
            ), key


def test_the_trace_shows_what_the_sizing_found(quick):
    _, results = quick
    (remote,) = results["catalog_remote_read/trace1"]
    (local,) = results["catalog_local_search/trace1"]
    (score,) = results["score_edit/trace1"]
    assert remote["metrics"]["text.index_use_share"]["value"] == 0
    assert local["metrics"]["text.index_use_share"]["value"] > 0
    assert remote["metrics"]["net.wire_self_us"]["value"] > 0
    assert local["metrics"]["net.wire_self_us"]["value"] == 0
    assert local["class_cache"]["point_hot"]["stmt_cache_hit_ratio"] > 0.9
    assert score["metrics"]["text.search_us"]["value"] == 0
    assert 0 < score["metrics"]["core.member_rows_per_edit"]["value"] <= 2


def test_agree_accepts_a_set_against_itself_and_rejects_a_moved_metric(
        quick, tmp_path):
    out, results = quick
    assert bench("--agree", out, out).returncode == 0
    results["score_edit/trace0"][0]["metrics"]["ops_per_s"]["value"] *= 2
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(results), encoding="utf-8")
    done = bench("--agree", out, str(moved))
    assert done.returncode == 1
    assert "DISAGREE" in done.stdout.decode()


def test_nothing_is_left_in_the_temp_directories(quick):
    leftovers = [
        name for name in os.listdir(os.path.join(HERE, "out"))
        if os.path.isdir(os.path.join(HERE, "out", name))
    ]
    assert leftovers == []
