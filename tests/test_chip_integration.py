"""End-to-end chip tests: cores + caches + directory + NoC + DRAM together."""

import pytest

from repro.cache.coherence import DirectoryState
from repro.chip.builder import build_chip
from repro.chip.chip import Chip
from repro.chip.tile import Tile
from repro.config.noc import Topology
from repro.noc.message import Message, MessageClass
from repro.scenarios import build_system
from repro.tenancy import build_placement

from tests._fixtures import small_system, small_workload


def run_small_chip(config, measure=1200):
    chip = build_chip(config)
    results = chip.run_experiment(
        warmup_references=800, detailed_warmup_cycles=400, measure_cycles=measure
    )
    return chip, results


class TestTileDispatch:
    def test_tile_requires_a_component(self):
        with pytest.raises(ValueError):
            Tile(node_id=0)

    def test_unknown_payload_rejected(self):
        tile = Tile(node_id=0, memory_controller=object())
        message = Message(src=0, dst=0, msg_class=MessageClass.REQUEST, size_bits=128, payload="junk")
        with pytest.raises(TypeError):
            tile.receive_message(message)


class TestChipConstruction:
    def test_mesh_chip_builds_all_components(self, mesh_config):
        chip = Chip(mesh_config)
        assert len(chip.core_nodes) == 16
        assert len(chip.directories) == 16
        assert len(chip.memory_controllers) == 4

    def test_nocout_chip_builds_segregated_llc(self, nocout_config):
        chip = Chip(nocout_config)
        assert len(chip.core_nodes) == 16
        assert len(chip.directories) == 8
        assert all(len(d.banks) == 2 for d in chip.directories.values())

    def test_chip_requires_workload(self):
        with pytest.raises(ValueError):
            Chip(small_system(Topology.MESH))

    def test_scalability_limit_restricts_active_cores(self, small_workload):
        import dataclasses

        limited = dataclasses.replace(small_workload, max_cores=4)
        chip = Chip(small_system(Topology.MESH).with_workload(limited))
        assert len(chip.active_core_ids) == 4

    def test_warmup_fills_llc_with_instruction_footprint(self, mesh_config):
        chip = Chip(mesh_config)
        chip.warmup(references_per_core=200)
        resident = sum(
            bank.array.occupancy for d in chip.directories.values() for bank in d.banks
        )
        footprint_blocks = mesh_config.workload.instruction_footprint_bytes // 64
        assert resident >= footprint_blocks


class TestChipExecution:
    @pytest.mark.parametrize(
        "topology",
        [Topology.MESH, Topology.FLATTENED_BUTTERFLY, Topology.NOC_OUT, Topology.IDEAL],
    )
    def test_every_topology_makes_forward_progress(self, small_workload, topology):
        config = small_system(topology).with_workload(small_workload)
        _chip, results = run_small_chip(config)
        assert results.total_instructions > 1000
        assert results.llc_accesses > 0
        assert results.throughput_ipc > 0

    def test_results_are_reproducible_for_same_seed(self, mesh_config):
        _chip_a, results_a = run_small_chip(mesh_config)
        _chip_b, results_b = run_small_chip(mesh_config)
        assert results_a.total_instructions == results_b.total_instructions
        assert results_a.llc_accesses == results_b.llc_accesses

    def test_lower_latency_topologies_perform_at_least_as_well(self, small_workload):
        throughput = {}
        for topology in (Topology.MESH, Topology.NOC_OUT, Topology.IDEAL):
            config = small_system(topology).with_workload(small_workload)
            _chip, results = run_small_chip(config, measure=2000)
            throughput[topology] = results.throughput_ipc
        assert throughput[Topology.IDEAL] >= throughput[Topology.MESH]
        assert throughput[Topology.NOC_OUT] >= throughput[Topology.MESH] * 0.98

    def test_directory_invariants_hold_after_execution(self, mesh_config):
        chip, _results = run_small_chip(mesh_config)
        for directory in chip.directories.values():
            for entry in directory.entries.values():
                entry.check_invariants()

    def test_modified_lines_have_exactly_one_owner(self, mesh_config):
        chip, _results = run_small_chip(mesh_config)
        for directory in chip.directories.values():
            for addr, entry in directory.entries.items():
                if entry.state == DirectoryState.MODIFIED:
                    assert entry.owner is not None
                    assert entry.sharers <= {entry.owner}

    def test_network_statistics_populated(self, nocout_config):
        _chip, results = run_small_chip(nocout_config)
        assert results.network_mean_latency > 0
        assert results.network_mean_hops > 0
        assert results.messages_delivered > 0
        assert results.network_activity["flits_switched"] > 0

    def test_memory_traffic_reaches_all_controllers(self, mesh_config):
        chip, _results = run_small_chip(mesh_config)
        serviced = [mc.requests_serviced.value for mc in chip.memory_controllers.values()]
        assert sum(serviced) > 0

    def test_per_core_ipc_metric(self, mesh_config):
        _chip, results = run_small_chip(mesh_config)
        assert results.per_core_ipc == pytest.approx(
            results.throughput_ipc / results.active_cores
        )

    def test_snoop_rate_is_a_small_fraction(self, mesh_config):
        _chip, results = run_small_chip(mesh_config, measure=2000)
        assert 0.0 <= results.snoop_rate < 0.2

    def test_reset_statistics_zeroes_measurement(self, mesh_config):
        chip = Chip(mesh_config)
        chip.warmup(500)
        chip.start_cores()
        chip.run(500)
        chip.reset_statistics()
        assert all(
            node.core.instructions_committed.value == 0 for node in chip.core_nodes.values()
        )
        assert chip.network.messages_delivered.value == 0


def _measured(group, prefix=""):
    """Yield ``(dotted_name, value)`` for every counter and histogram count."""
    for name, counter in group.counters.items():
        yield f"{prefix}{name}", counter.value
    for name, histogram in group.histograms.items():
        yield f"{prefix}{name}.count", histogram.count
    for name, child in group.children.items():
        yield from _measured(child, f"{prefix}{name}.")


def _fabric_chip(fabric):
    return Chip(build_system(fabric, num_cores=64, seed=3).with_workload(small_workload()))


def _tenanted_chip():
    wmap = build_placement(
        "split_half", 16, ["Data Serving", "MapReduce-C"], arrival="bursty", rate=0.08
    )
    return Chip(small_system(Topology.MESH, num_cores=16).with_workload_map(wmap))


RESET_CHIPS = {
    **{
        fabric: (lambda fabric=fabric: _fabric_chip(fabric))
        for fabric in ("mesh", "flattened_butterfly", "noc_out", "ideal", "cmesh", "chiplet")
    },
    "tenanted_split_half": _tenanted_chip,
}


@pytest.mark.parametrize("name", sorted(RESET_CHIPS))
def test_reset_statistics_zeroes_every_registered_statistic(name):
    """Nothing measured during warm-up survives ``Chip.reset_statistics``."""
    chip = RESET_CHIPS[name]()
    stats = chip.sim.stats.children
    components = [
        *chip.network.routers,
        *chip.network.interfaces.values(),
        *chip.core_nodes.values(),
        *chip.directories.values(),
        *chip.memory_controllers.values(),
        *chip.tenant_traffic.values(),
        chip.network,
    ]
    assert all(stats[component.name] is component.stats for component in components)

    chip.warmup(300)
    chip.start_cores()
    chip.run(300)
    assert any(value for _, value in _measured(chip.sim.stats))
    chip.reset_statistics()

    leaked = {key: value for key, value in _measured(chip.sim.stats) if value}
    assert leaked == {}
    activity = chip.network.activity()
    assert activity.pop("flit_width_bits") > 0
    assert set(activity.values()) == {0.0}
