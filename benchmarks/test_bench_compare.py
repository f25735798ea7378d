"""Deterministic tests of the bench-report regression comparator.

``scripts/bench_report.py --compare BASELINE.json`` guards the committed
BENCH_*.json numbers: a >25% p50 regression on any shared workload must
fail the run.  These tests exercise the comparison logic on synthetic
reports (no timing involved) so they are exact and CI-stable.
"""

import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")
)

from bench_report import (
    _enforce_gates,
    _run_compare,
    check_gates,
    compare_reports,
    main,
    validate_report,
)

pytestmark = pytest.mark.bench_compare


def _report(kind="quel", **p50s):
    """A minimal BENCH-shaped report with the given workload p50s."""
    workloads = {}
    for name, p50 in p50s.items():
        workloads[name] = {
            "count": 5,
            "sum_s": p50 * 5,
            "p50_s": p50,
            "p99_s": None,
            "raw_p50_s": p50,
        }
    return {
        "benchmark": kind,
        "dataset": {},
        "workloads": workloads,
        "metrics": {},
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        report = _report(scan=0.010, join=0.050)
        assert compare_reports(report, report) == []

    def test_regression_over_threshold_is_flagged(self):
        baseline = _report(scan=0.010)
        current = _report(scan=0.020)  # 2x the baseline, way past 25%
        regressions = compare_reports(current, baseline)
        assert len(regressions) == 1
        assert regressions[0].startswith("scan:")
        assert "2.00x" in regressions[0]

    def test_regression_under_threshold_passes(self):
        baseline = _report(scan=0.010)
        current = _report(scan=0.012)  # +20%, inside the 25% budget
        assert compare_reports(current, baseline) == []

    def test_improvement_never_flags(self):
        baseline = _report(scan=0.010)
        current = _report(scan=0.001)
        assert compare_reports(current, baseline) == []

    def test_absolute_slack_damps_microsecond_noise(self):
        # 3us -> 9us is a 3x blowup but far below the 0.5ms slack:
        # scheduler noise on a trivial workload must not fail CI.
        baseline = _report(tiny=0.000003)
        current = _report(tiny=0.000009)
        assert compare_reports(current, baseline) == []

    def test_slack_can_be_disabled(self):
        baseline = _report(tiny=0.000003)
        current = _report(tiny=0.000009)
        regressions = compare_reports(current, baseline, min_delta_s=0.0)
        assert len(regressions) == 1

    def test_workloads_missing_from_either_side_are_ignored(self):
        baseline = _report(old_only=0.010, shared=0.010)
        current = _report(new_only=9.0, shared=0.010)
        assert compare_reports(current, baseline) == []

    def test_custom_threshold(self):
        baseline = _report(scan=0.100)
        current = _report(scan=0.112)  # +12%
        assert compare_reports(current, baseline) == []
        assert len(compare_reports(current, baseline, threshold=0.10)) == 1


class TestRunCompare:
    def _write(self, tmp_path, name, report):
        path = os.path.join(str(tmp_path), name)
        with open(path, "w") as handle:
            json.dump(report, handle)
        return path

    def test_pass_and_fail_statuses(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", _report(scan=0.010))
        current = {"quel": _report(scan=0.010)}
        assert _run_compare([baseline], current) == 0
        assert "compare OK" in capsys.readouterr().out

        current = {"quel": _report(scan=0.030)}
        assert _run_compare([baseline], current) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_unknown_benchmark_kind_fails(self, tmp_path, capsys):
        baseline = self._write(
            tmp_path, "odd.json", _report(kind="mystery", scan=0.010)
        )
        assert _run_compare([baseline], {"quel": _report(scan=0.010)}) == 1
        assert "unknown benchmark kind" in capsys.readouterr().out

    def test_unreadable_baseline_fails(self, tmp_path, capsys):
        missing = os.path.join(str(tmp_path), "nope.json")
        assert _run_compare([missing], {"quel": _report(scan=0.010)}) == 1
        assert "cannot read" in capsys.readouterr().out


class TestGates:
    """The absolute perf gates a report asserts about itself."""

    def _gated(self, **gates):
        report = _report(scan=0.010)
        report["gates"] = gates
        return report

    def test_satisfied_gates_pass(self):
        report = self._gated(
            speedup={"value": 20.0, "min": 10.0},
            ratio={"value": 0.9, "max": 5.0},
        )
        assert check_gates(validate_report(report)) == []

    def test_min_violation_is_flagged(self):
        report = self._gated(speedup={"value": 4.0, "min": 10.0})
        failures = check_gates(report)
        assert len(failures) == 1
        assert "below required minimum" in failures[0]

    def test_max_violation_is_flagged(self):
        report = self._gated(ratio={"value": 8.5, "max": 5.0})
        failures = check_gates(report)
        assert len(failures) == 1
        assert "above allowed maximum" in failures[0]

    def test_a_failed_op_fails_the_report(self):
        report = _report(scan=0.010)
        report.update(failed_ops=2, errors=["scan returned a wrong result"])
        failures = check_gates(report)
        assert len(failures) == 1
        assert "2 op(s) failed their check" in failures[0]
        assert _enforce_gates([report]) is True

    def test_malformed_gate_fails_validation(self):
        report = self._gated(broken={"value": 1.0})  # no bound at all
        with pytest.raises(ValueError):
            validate_report(report)

    def test_enforce_gates_reports_status(self, capsys):
        passing = self._gated(speedup={"value": 20.0, "min": 10.0})
        assert _enforce_gates([passing]) is False
        assert "gates OK" in capsys.readouterr().out
        failing = self._gated(speedup={"value": 2.0, "min": 10.0})
        assert _enforce_gates([passing, failing]) is True
        assert "GATE FAILURE" in capsys.readouterr().out

    def test_committed_text_baseline_holds_its_three_gates(self):
        """BENCH_text.json as committed: the gates are there by the
        names ROADMAP asks for, each with its bound, and each holds."""
        path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_text.json"
        )
        with open(path, encoding="utf-8") as handle:
            report = validate_report(json.load(handle))
        bounds = {
            name: {key: gate[key] for key in gate if key != "value"}
            for name, gate in report["gates"].items()
        }
        assert bounds == {
            "catalog_ranked_topk_speedup": {"min": 10.0},
            "catalog_similar_speedup": {"min": 10.0},
            "catalog_scale_search_ratio": {"max": 5.0},
        }
        assert check_gates(report) == []
        similar = report["gates"]["catalog_similar_speedup"]["value"]
        assert similar == report["speedup"]["catalog_similar_p50"]

    def test_gateless_reports_are_silent(self, capsys):
        assert _enforce_gates([_report(scan=0.010)]) is False
        assert capsys.readouterr().out == ""


class TestRepeatedStatementScenario:
    def test_quel_report_carries_the_repeated_workloads(self):
        from bench_report import quel_report

        report = validate_report(
            quel_report(0.02, chords=4, notes_per_chord=3)
        )
        assert report["failed_ops"] == 0
        assert "repeated_statement" in report["workloads"]
        assert "new_literal_statement" in report["workloads"]
        # The session's caches must actually be exercised.
        metrics = report["metrics"]
        assert metrics["quel.cache.statement_hits"] > 0
        assert metrics["quel.cache.hits"] > 0

    def test_main_compare_cli_round_trips(self, tmp_path, capsys):
        # End-to-end through the CLI: a fresh tiny run compared against a
        # deliberately generous synthetic baseline must pass and exit 0.
        baseline = _report(
            indexed_equality=60.0, repeated_statement=60.0
        )
        path = os.path.join(str(tmp_path), "BENCH_quel.json")
        with open(path, "w") as handle:
            json.dump(baseline, handle)
        status = main(["--seconds", "0.02", "--compare", path])
        assert status == 0
        assert "compare OK" in capsys.readouterr().out
