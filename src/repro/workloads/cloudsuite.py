"""Constructors for the six CloudSuite-style workload streams."""

from __future__ import annotations

from typing import List

from repro.config.workload import WorkloadConfig
from repro.workloads.base import SyntheticWorkloadStream


def make_stream(
    workload: WorkloadConfig,
    core_id: int,
    num_cores: int,
    seed: int = 0,
    address_offset: int = 0,
) -> SyntheticWorkloadStream:
    """Create the synthetic stream for one core of ``workload``.

    ``address_offset`` shifts the whole synthetic address layout; the
    tenancy layer gives each co-located tenant a disjoint offset
    (:data:`repro.tenancy.TENANT_ADDRESS_STRIDE`).
    """
    return SyntheticWorkloadStream(
        workload,
        core_id=core_id,
        num_cores=num_cores,
        seed=seed,
        address_offset=address_offset,
    )


def workload_streams(
    workload: WorkloadConfig, num_cores: int, seed: int = 0
) -> List[SyntheticWorkloadStream]:
    """Streams for every active core of ``workload`` on an ``num_cores`` chip.

    Workloads that only scale to 16 cores (Web Frontend, Web Search) get
    streams for their active cores only; the remaining cores idle, exactly
    as in the paper's methodology (Section 5.3).
    """
    active = workload.scaled_cores(num_cores)
    return [make_stream(workload, core_id, active, seed=seed) for core_id in range(active)]
