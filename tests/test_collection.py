"""Smoke test: the whole suite must collect cleanly.

The seed repo shipped four test modules that failed at import time because
``from conftest import small_system`` resolved to ``benchmarks/conftest.py``.
This regression test runs collection in a clean subprocess so any future
import-time breakage (shadowed modules, syntax errors, missing deps) fails
one obvious test instead of silently truncating the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_suite_collects_without_errors():
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    summary = completed.stdout.strip().splitlines()[-1]
    assert "collected" in summary and "error" not in summary.lower(), summary


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.fabrics",
        "repro.fabrics.chiplet",
        "repro.scenarios",
        "repro.tenancy",
        "repro.config.presets",
        "repro.chip",
        "repro.experiments",
        "repro.reporting",
        "repro.store.specs",
    ],
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    # An import cycle can hide behind import order: it only shows when a
    # given module is the first one a process imports.
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert completed.returncode == 0, completed.stderr
