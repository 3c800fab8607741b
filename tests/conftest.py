"""Shared fixtures for the test suite.

The fixtures favour small, fast configurations (16 cores, small footprints,
short windows) so the full suite stays quick while still exercising every
subsystem end to end.  Reusable plain helpers (``small_system`` & friends)
live in :mod:`tests._fixtures`; import them from there, never from
``conftest`` (see that module's docstring for why).
"""

from __future__ import annotations

import pytest

from repro.config import presets
from repro.config.system import SystemConfig
from repro.config.noc import Topology
from repro.config.workload import WorkloadConfig
from repro.sim.kernel import Simulator

from tests._fixtures import small_system, small_workload as _small_workload

KB = 1024
MB = 1024 * KB


@pytest.fixture(autouse=True)
def _hermetic_experiment_engine(tmp_path, monkeypatch):
    """Keep tests off the user's result cache and on the serial path.

    Every test gets a private ``REPRO_CACHE_DIR`` so cached results can
    never leak between tests (or into ``~/.cache/repro``), and
    ``REPRO_JOBS=1`` so sweeps stay serial unless a test explicitly asks
    for workers.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.setenv("REPRO_JOBS", "1")


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=7)


@pytest.fixture
def small_workload() -> WorkloadConfig:
    """A fast synthetic workload for integration tests."""
    return _small_workload()


@pytest.fixture
def mesh_config(small_workload) -> SystemConfig:
    return small_system(Topology.MESH).with_workload(small_workload)


@pytest.fixture
def fbfly_config(small_workload) -> SystemConfig:
    return small_system(Topology.FLATTENED_BUTTERFLY).with_workload(small_workload)


@pytest.fixture
def nocout_config(small_workload) -> SystemConfig:
    return small_system(Topology.NOC_OUT).with_workload(small_workload)


@pytest.fixture
def ideal_config(small_workload) -> SystemConfig:
    return small_system(Topology.IDEAL).with_workload(small_workload)


@pytest.fixture
def paper_workloads():
    """The six workload presets of the paper."""
    return {name: factory() for name, factory in presets.WORKLOADS.items()}
