"""Shared helpers for the benchmark guards."""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


@pytest.fixture(scope="session")
def results_dir():
    path = os.path.abspath(RESULTS_DIR)
    os.makedirs(path, exist_ok=True)
    return path
