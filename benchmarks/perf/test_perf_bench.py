"""Self-test of the benchmark, on shortened windows.

Not part of tier-1; run it explicitly from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_perf_bench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from spans import PHASES, Tracer

BENCHMARK = json.loads(run.BENCHMARK_PATH.read_text())


def _single_run(workload: str, trace: int, tmp_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--out", str(tmp_path)],
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_match_benchmark_json(trace, section, tmp_path):
    result = _single_run("report_warm", trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        assert json.loads((tmp_path / "trace_report_warm.json").read_text())["spans"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "report_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrappers_restore_the_original_functions():
    from repro.chip import chip as chip_module
    from repro.experiments import engine
    from repro.sim.kernel import Simulator

    watched = [
        (engine, "execute_point"),
        (engine.ResultCache, "store"),
        (chip_module, "build_network"),
        (chip_module.Chip, "__init__"),
        (Simulator, "run"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    tracer = Tracer()
    tracer.install_layer_wrappers()
    try:
        assert all(vars(o)[a] is not b for (o, a), b in zip(watched, before))
    finally:
        tracer.uninstall()
    assert all(vars(o)[a] is b for (o, a), b in zip(watched, before))


def _traced_sweep(tmp_path: Path) -> Tracer:
    from repro.experiments.engine import ResultCache, SweepExecutor
    from repro.experiments.harness import RunSettings
    from repro.scenarios import SweepSpec, run_sweep

    spec = SweepSpec(
        axes={"workload": ("Web Search", "Data Serving")},
        fixed={"topology": "mesh", "num_cores": 16},
        settings=RunSettings(warmup_references=300, detailed_warmup_cycles=200,
                             measure_cycles=600),
    )
    tracer = Tracer()
    tracer.install_layer_wrappers()
    tracer.active = True
    try:
        run_sweep(spec, executor=SweepExecutor(jobs=1, cache=ResultCache(tmp_path)))
    finally:
        tracer.uninstall()
    return tracer


def test_child_self_times_fit_inside_each_span(tmp_path):
    tracer = _traced_sweep(tmp_path)
    children = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            children[span.parent] += span.end - span.start
    for span, covered in zip(tracer.spans, children):
        assert covered <= span.end - span.start + 1e-9
    names = {span.name for span in tracer.spans}
    assert {"experiments.execute_point", "sim.detailed", "sim.measure"} <= names
    coverage = tracer.phase_coverage()
    assert len(coverage) == 2 and min(coverage.values()) >= 0.95
    assert set(PHASES) <= names


def test_injected_digest_mismatch_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "NOC_CYCLES", 200)
    workload = worker.NocCongested(5, tmp_path)
    workload.setup()
    honest = worker.Verifier(None)
    worker.timed_phase(workload, 0.0, honest)
    assert (honest.attempted, honest.failed) == (1, 0)

    tampered = dict(honest.first["run"], stats_sha256="0" * 64)
    verifier = worker.Verifier({"run": tampered})
    worker.timed_phase(workload, 0.0, verifier)
    assert verifier.failed / verifier.attempted == 1.0
    assert verifier.failures == ["run"]


def test_raising_operation_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "NOC_CYCLES", 200)
    workload = worker.NocCongested(5, tmp_path)
    workload.setup()
    run_op = workload.run_op
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return run_op()

    monkeypatch.setattr(workload, "run_op", flaky)
    verifier = worker.Verifier(None)
    ops, _ = worker.timed_phase(workload, 0.3, verifier)
    assert ops and (verifier.attempted, verifier.failed) == (1 + len(ops), 1)
    assert verifier.failures == ["raised"]


def test_report_warm_digest_is_the_committed_report():
    from repro.experiments.engine import MODEL_VERSION

    fixture = json.loads(worker.FIXTURE_PATH.read_text())
    if fixture["model_version"] != MODEL_VERSION:
        pytest.skip("the fixture predates the current MODEL_VERSION")
    recorded = worker.load_expected()[str(MODEL_VERSION)]["report_warm"][str(fixture["seed"])]
    committed = hashlib.sha256(worker.COMMITTED_REPORT.read_bytes()).hexdigest()
    assert recorded["report"] == committed


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([100, 101, 102], [100, 101, 102], "unchanged"),
        ([100, 101, 102], [130, 131, 132], "worse"),
        ([100, 101, 102], [80, 81, 82], "improved"),
        ([60, 100, 140], [100, 101, 102], "unresolved"),
    ],
)
def test_compare_verdicts(a, b, expected):
    assert run.verdict(a, b, "lower", 0.1)["verdict"] == expected
