"""Unit tests for the Table-1 presets and the six workload presets."""

import pytest

from repro.config import presets
from repro.config.noc import Topology


def test_six_workloads_defined(paper_workloads):
    # The paper's six, in figure order.
    assert presets.WORKLOAD_NAMES == [
        "Data Serving",
        "MapReduce-C",
        "MapReduce-W",
        "SAT Solver",
        "Web Frontend",
        "Web Search",
    ]
    # Each row builds the workload its key names.
    assert all(w.name == name for name, w in paper_workloads.items())


def test_workload_lookup_by_name():
    workload = presets.workload("Data Serving")
    assert workload.name == "Data Serving"


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        presets.workload("HPC Linpack")


def test_instruction_footprints_are_multi_megabyte(paper_workloads):
    for workload in paper_workloads.values():
        assert workload.instruction_footprint_bytes >= 2 * 1024 * 1024


def test_instruction_footprints_fit_in_llc(paper_workloads):
    llc = presets.baseline_system().caches.llc_total_bytes
    for workload in paper_workloads.values():
        assert workload.instruction_footprint_bytes <= llc


def test_datasets_dwarf_llc(paper_workloads):
    llc = presets.baseline_system().caches.llc_total_bytes
    for workload in paper_workloads.values():
        assert workload.dataset_bytes >= 100 * llc


def test_scalability_limits_match_paper():
    assert presets.workload("Web Search").max_cores == 16
    assert presets.workload("Web Frontend").max_cores == 16
    assert presets.workload("Data Serving").max_cores == 64
    assert presets.workload("MapReduce-W").max_cores == 64


def test_data_serving_has_lowest_parallelism():
    data_serving = presets.workload("Data Serving")
    assert data_serving.mlp == 1
    assert data_serving.issue_width <= 2


def test_figure1_workloads_are_subset():
    assert set(presets.FIGURE1_WORKLOADS) <= set(presets.WORKLOAD_NAMES)


def test_system_factories_select_topology():
    assert presets.mesh_system().noc.topology == Topology.MESH
    assert presets.flattened_butterfly_system().noc.topology == Topology.FLATTENED_BUTTERFLY
    assert presets.nocout_system().noc.topology == Topology.NOC_OUT
    assert presets.ideal_system().noc.topology == Topology.IDEAL


def test_baseline_system_matches_table1():
    config = presets.baseline_system()
    assert config.num_cores == 64
    assert config.caches.llc_total_bytes == 8 * 1024 * 1024
    assert config.num_memory_controllers == 4
    assert config.noc.link_width_bits == 128


def test_table1_summary_mentions_key_parameters():
    summary = presets.table1_summary()
    assert "32nm" in summary["Technology"]
    assert "64 cores" in summary["CMP features"]
    assert "5 ports" in summary["Mesh"]
    assert "15 ports" in summary["Flattened Butterfly"]


def test_workload_presets_are_fresh_instances():
    assert presets.workload("Web Search") is not presets.workload("Web Search")
