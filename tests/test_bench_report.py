"""Tier-1 run of ``scripts/bench_report.py --check``.

The four suites behind the committed ``BENCH_*.json`` run at tiny sizes
and short phases through ``bench/harness.py``, every op's answer
checked.  A suite that crashes, an op that returns a wrong answer, or a
change to the harness's ``Op`` / ``Driver`` / ``Phase`` / ``run_phase``
fails tier-1, not only a smoke script.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_report.py"


def test_every_suite_runs_and_every_answer_checks(capsys):
    spec = importlib.util.spec_from_file_location("bench_report", SCRIPT)
    bench_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_report)
    status = bench_report.main(["--check"])
    out = capsys.readouterr().out
    assert status == 0, out
    assert "bench report check OK" in out
