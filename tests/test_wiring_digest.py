"""Golden digests of every fabric's wiring.

Port indices decide arbitration order, so a refactor of network
construction must create every router's ports in the same order, with the
same names, buffers and links.  Each scenario below builds one network and
reduces its wiring to one sha256: for every router in ``network.routers``
order, its name, then its input ports in index order (name, VC count, VC
depth, whether it is a local injection port) and its output ports in index
order (name, downstream name, the downstream input port it feeds, link
latency, link length).  The digests in ``tests/data/wiring_digests.json``
pin that bit for bit, including the express-link and no-IO-die variants
that no stats digest exercises.

Rewrite the golden file (only for a deliberate wiring change) with::

    PYTHONPATH=src python -m tests.test_wiring_digest
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.chip.builder import build_network
from repro.chip.system_map import build_system_map
from repro.config.system import SystemConfig
from repro.fabrics import chiplet_system
from repro.scenarios import build_system
from repro.sim.kernel import Simulator

from tests.test_stats_digests import CHIP_FABRICS

GOLDEN = Path(__file__).parent / "data" / "wiring_digests.json"


def wiring(config: SystemConfig) -> list:
    """Every router's ports, in router and port-index order."""
    network = build_network(Simulator(1), config, build_system_map(config))
    return [
        {
            "router": router.name,
            "inputs": [
                [
                    port.name,
                    port.num_vcs,
                    port.vc_depth_flits,
                    index in router._local_input_ports,
                ]
                for index, port in enumerate(router.input_ports)
            ],
            "outputs": [
                [
                    port.name,
                    port.downstream.name,
                    port.downstream.input_ports[port.downstream_port].name,
                    port.link_latency,
                    port.link_length_mm,
                ]
                for port in router.output_ports
            ],
        }
        for router in network.routers
    ]


def _fabric_64(name: str) -> Callable[[], SystemConfig]:
    return lambda: build_system(name, num_cores=64, seed=3)


def nocout_128_concentrated_express() -> SystemConfig:
    config = build_system("noc_out", num_cores=128, seed=3)
    return config.with_noc(
        replace(config.noc, tree_concentration=2, tree_express_links=True)
    )


def chiplet_256_no_io_die() -> SystemConfig:
    return chiplet_system(num_cores=256, io_die=False, seed=3)


SCENARIOS: Dict[str, Callable[[], SystemConfig]] = {
    **{f"{name}_64": _fabric_64(name) for name in CHIP_FABRICS},
    "noc_out_128_concentrated_express": nocout_128_concentrated_express,
    "chiplet_256_no_io_die": chiplet_256_no_io_die,
}


def entry_for(routers: list) -> dict:
    blob = json.dumps(routers, sort_keys=True)
    return {
        "routers": len(routers),
        "sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_wiring_matches_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert entry_for(wiring(SCENARIOS[name]())) == golden[name]


def test_variants_wire_their_optional_links():
    """The two variant scenarios really build the links they exist to pin."""
    nocout = wiring(nocout_128_concentrated_express())
    assert any(
        port[0] == "express" for router in nocout for port in router["outputs"]
    )
    chiplet = wiring(chiplet_256_no_io_die())
    assert not any(router["router"].endswith(".io") for router in chiplet)
    assert any(
        port[0].startswith("eject") and ".noi" in router["router"]
        for router in chiplet
        for port in router["outputs"]
    )


if __name__ == "__main__":
    payload = {name: entry_for(wiring(make())) for name, make in sorted(SCENARIOS.items())}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} wiring digests to {GOLDEN}")
