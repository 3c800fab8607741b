"""repro: a reproduction of "NOC-Out: Microarchitecting a Scale-Out Processor".

The library contains everything needed to re-run the paper's evaluation in
pure Python:

* a cycle-level event-driven simulation kernel (:mod:`repro.sim`);
* the three evaluated interconnects — mesh, flattened butterfly, and the
  proposed NOC-Out organization with its reduction/dispersion trees and LLC
  network (:mod:`repro.noc`, :mod:`repro.core`);
* a directory-coherent cache hierarchy and DRAM model (:mod:`repro.cache`);
* trace-driven cores and synthetic scale-out workloads (:mod:`repro.cpu`,
  :mod:`repro.workloads`);
* chip assembly, area/energy models and experiment harnesses
  (:mod:`repro.chip`, :mod:`repro.power`, :mod:`repro.experiments`).

Quickstart::

    from repro import build_chip, presets

    config = presets.nocout_system().with_workload(presets.workload("Web Search"))
    chip = build_chip(config)
    results = chip.run_experiment()  # the windows of RunSettings()
    print(results.throughput_ipc, results.network_mean_latency)
"""

from repro.config import presets
from repro.config.noc import Topology
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.chip.builder import build_chip
from repro.chip.chip import Chip, SimulationResults
from repro.power import noc_area, noc_power
from repro.scenarios import (
    ResultRecord,
    ResultSet,
    SweepSpec,
    iter_results,
    run_sweep,
)

__version__ = "1.1.0"

__all__ = [
    "presets",
    "Topology",
    "SystemConfig",
    "WorkloadConfig",
    "build_chip",
    "Chip",
    "SimulationResults",
    "noc_area",
    "noc_power",
    "ResultRecord",
    "ResultSet",
    "SweepSpec",
    "iter_results",
    "run_sweep",
    "__version__",
]
