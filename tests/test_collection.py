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
        "repro.noc",
        "repro.noc.arbiter",
        "repro.core",
        "repro.scenarios",
        "repro.tenancy",
        "repro.config.presets",
        "repro.chip",
        "repro.experiments",
        "repro.power",
        "repro.reporting",
        "repro.store.specs",
        "repro.workloads.traffic",
        "repro.tenancy.traffic",
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


@pytest.mark.parametrize(
    "path",
    sorted(
        str(path.relative_to(REPO_ROOT))
        for pattern in ("scripts/*.py", "examples/*.py")
        for path in REPO_ROOT.glob(pattern)
    ),
)
def test_script_imports_in_a_fresh_interpreter(path):
    # Each file keeps its work behind a ``__main__`` guard, so importing it
    # only resolves its imports: a deleted or renamed public name fails here
    # rather than only when the script itself runs.
    completed = subprocess.run(
        [sys.executable, "-c", f"import runpy; runpy.run_path({path!r}, run_name='imported')"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert completed.returncode == 0, completed.stderr
