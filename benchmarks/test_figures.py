"""One test per paper artifact: regenerates every figure and the figure
11 table, asserts its checks, and writes the rendering into ``results/``
(and all of them into ``EXPERIMENTS.md``).
"""

import os

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiment


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_regenerate(results_dir, experiment_id):
    result = run_experiment(experiment_id)
    assert result.passed(), result.failed_checks()
    path = os.path.join(results_dir, "%s.txt" % experiment_id)
    with open(path, "w") as handle:
        handle.write("# %s\n\n" % result.title)
        handle.write(result.artifact)
        handle.write("\n")


def test_write_experiments_report(results_dir):
    """Regenerate EXPERIMENTS.md (all experiments)."""
    from repro.experiments.report import write_report
    from repro.experiments.registry import run_all

    results = run_all()
    assert all(result.passed() for result in results)
    write_report(os.path.join(results_dir, "..", "EXPERIMENTS.md"), results)
