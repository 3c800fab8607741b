"""Synthetic scale-out workload generators.

The generators replace the CloudSuite binaries the paper runs under
full-system simulation.  They emit per-core streams of fetch blocks whose
statistical properties (instruction footprint, dataset size, sharing,
ILP/MLP) are controlled by :class:`repro.config.workload.WorkloadConfig`.
"""

from repro.workloads.base import FetchBlock, WorkloadStream, SyntheticWorkloadStream
from repro.workloads.cloudsuite import make_stream, workload_streams
from repro.workloads.traffic import UniformRandomTrafficGenerator

__all__ = [
    "FetchBlock",
    "WorkloadStream",
    "SyntheticWorkloadStream",
    "make_stream",
    "workload_streams",
    "UniformRandomTrafficGenerator",
]
