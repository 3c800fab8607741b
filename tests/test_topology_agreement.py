"""The static inventories agree with the networks the fabrics build.

``describe_topology(config)`` feeds the area and energy models (Figures 8
and 9) without building a simulator; ``build_network`` builds the network
the simulation runs.  Both read one wiring rule per fabric, so for every
config they must count the same routers, the same router-to-router links
and the same total link length.  Router radix is a convention of each
inventory (which ports it counts), so it is not compared.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import pytest

from repro.chip.builder import build_network
from repro.chip.system_map import build_system_map
from repro.config.system import SystemConfig
from repro.experiments.ablations import SCALING_VARIANTS
from repro.fabrics import FABRICS, chiplet_system
from repro.noc.router import Router
from repro.noc.topology import describe_topology
from repro.scenarios import build_system
from repro.sim.kernel import Simulator


def built_inventory(config: SystemConfig):
    """``(routers, router-to-router links, total link mm)`` of the built network."""
    network = build_network(Simulator(1), config, build_system_map(config))
    links = [
        port
        for router in network.routers
        for port in router.output_ports
        if isinstance(port.downstream, Router)
    ]
    return (
        len(network.routers),
        len(links),
        pytest.approx(sum(port.link_length_mm for port in links)),
    )


def described_inventory(config: SystemConfig):
    descriptor = describe_topology(config)
    return (
        descriptor.num_routers,
        sum(spec.count for spec in descriptor.links),
        pytest.approx(sum(spec.total_wire_mm for spec in descriptor.links)),
    )


def _nocout_128(concentration: int, express: bool) -> SystemConfig:
    config = build_system("noc_out", num_cores=128)
    return config.with_noc(
        replace(
            config.noc,
            tree_concentration=concentration,
            tree_express_links=express,
        )
    )


CONFIGS = {
    **{
        f"{name}_{cores}": partial(build_system, name, num_cores=cores)
        for name in FABRICS
        for cores in (64, 256, 1024)
    },
    "chiplet_1024_no_io_die": partial(chiplet_system, io_die=False),
    **{
        f"noc_out_128_c{concentration}{'_express' if express else ''}": partial(
            _nocout_128, concentration, express
        )
        for concentration, express in SCALING_VARIANTS.values()
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_inventory_matches_built_network(name):
    config = CONFIGS[name]()
    assert described_inventory(config) == built_inventory(config)


def test_nocout_variants_have_concentrated_and_express_trees():
    """The 128-core variants really differ in the inventory's tree links."""
    links = {
        label: described_inventory(_nocout_128(*variant))[1]
        for label, variant in SCALING_VARIANTS.items()
    }
    assert links["concentration x2"] < links["tall trees"] < links["express links"]
