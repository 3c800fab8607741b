"""Importable helpers shared by the test suite.

These live in a regular module (not ``conftest.py``) so test modules can
import them by their package-qualified name::

    from tests._fixtures import small_system

Importing from ``conftest`` is banned: with several collected directories
each carrying a ``conftest.py``, the bare module name resolves to whichever
directory pytest inserted into ``sys.path`` first (historically
``benchmarks/conftest.py``, which broke collection of four test modules).
"""

from __future__ import annotations

from repro.config.noc import NocConfig, Topology
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.experiments.harness import RunSettings

KB = 1024
MB = 1024 * KB

#: Tiny measurement windows for engine/sweep tests that only care about
#: plumbing, not statistical quality.
TINY_SETTINGS = RunSettings(
    warmup_references=300, detailed_warmup_cycles=200, measure_cycles=600
)


def small_workload() -> WorkloadConfig:
    """A fast synthetic workload for integration tests."""
    return WorkloadConfig(
        name="TestWorkload",
        instruction_footprint_bytes=256 * KB,
        hot_instruction_fraction=0.5,
        dataset_bytes=8 * MB,
        data_reuse_fraction=0.9,
        shared_fraction=0.02,
        shared_region_bytes=16 * KB,
        write_fraction=0.3,
        loads_per_instruction=0.3,
        mean_block_instructions=12.0,
        jump_probability=0.25,
        issue_width=3,
        mlp=2,
        max_cores=64,
    )


def small_system(topology: Topology, num_cores: int = 16, **noc_kwargs) -> SystemConfig:
    """A 16-core chip configuration suitable for quick end-to-end tests."""
    noc = NocConfig(topology=topology, **noc_kwargs)
    return SystemConfig(num_cores=num_cores, noc=noc, seed=3)
