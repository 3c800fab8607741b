"""Golden digests of the functionally warmed cache state.

``Chip.warmup`` installs the instruction footprint in the LLC, then
replays a short reference stream per core into its L1s and the
shared-region directory entries.  End-of-run statistics see that state
only indirectly, so each scenario below builds one chip at seed 42, warms
it with the window-scale-0.1 reference count and reduces the warm state
to one sha256: every LLC bank's sets in LRU order with states, every
directory entry (state, owner, sorted sharers), and every core's L1-I and
L1-D sets (keyed by core id) in LRU order with states.  The digests in
``tests/data/warm_state_digests.json`` pin that state bit for bit, both
for a fresh warm-up (a memo miss) and for one served from a memo entry
that another fabric's chip with the same streams left behind.

Rewrite the golden file (only for a deliberate warm-up change) with::

    PYTHONPATH=src python -m tests.test_warm_state_digest
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional

import pytest

from repro.cache.set_assoc import SetAssociativeCache
from repro.chip.chip import Chip
from repro.config.noc import Topology
from repro.config.system import SystemConfig
from repro.experiments.harness import RunSettings
from repro.scenarios import build_system, workload

from tests._fixtures import small_system
from tests.test_stats_digests import CHIP_FABRICS
from tests.test_tenancy import split_pair

GOLDEN = Path(__file__).parent / "data" / "warm_state_digests.json"

SEED = 42
#: The warm-up length of one report point at window scale 0.1.
WARMUP_REFERENCES = RunSettings(seed=SEED).scaled(0.1).warmup_references


def _lines(array: SetAssociativeCache) -> list:
    """Resident lines set by set, each set from LRU to MRU, with states."""
    return [[addr, state.value] for addr, state in array.resident_blocks().items()]


def warm_chip(config: SystemConfig, memo: Optional[dict] = None) -> Chip:
    chip = Chip(config)
    chip.warmup(WARMUP_REFERENCES, memo)
    return chip


def warm_state(config: SystemConfig) -> dict:
    return chip_state(warm_chip(config))


def chip_state(chip: Chip) -> dict:
    directories = [chip.directories[node] for node in sorted(chip.directories)]
    return {
        "llc": [_lines(bank.array) for directory in directories for bank in directory.banks],
        "directory": [
            [addr, entry.state.value, entry.owner, sorted(entry.sharers)]
            for directory in directories
            for addr, entry in sorted(directory.entries.items())
        ],
        "l1": [
            [core, _lines(node.l1i.array), _lines(node.l1d.array)]
            for core, node in sorted(chip.core_nodes.items())
        ],
    }


def _fabric_64(name: str) -> Callable[[], SystemConfig]:
    return lambda: build_system(name, num_cores=64, seed=SEED).with_workload(
        workload("Data Serving")
    )


def tenanted_split_half_16() -> SystemConfig:
    config = replace(small_system(Topology.MESH, num_cores=16), seed=SEED)
    return config.with_workload_map(split_pair())


def chiplet_256() -> SystemConfig:
    return build_system("chiplet", num_cores=256, seed=SEED).with_workload(
        workload("Data Serving")
    )


SCENARIOS: Dict[str, Callable[[], SystemConfig]] = {
    **{f"{name}_64": _fabric_64(name) for name in CHIP_FABRICS},
    "tenanted_split_half_16": tenanted_split_half_16,
    "chiplet_256": chiplet_256,
}


def entry_for(state: dict) -> dict:
    blob = json.dumps(state, sort_keys=True)
    return {
        "llc_lines": sum(len(bank) for bank in state["llc"]),
        "directory_entries": len(state["directory"]),
        "l1_lines": sum(len(l1i) + len(l1d) for _core, l1i, l1d in state["l1"]),
        "sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_warm_state_matches_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert entry_for(warm_state(SCENARIOS[name]())) == golden[name]


@pytest.mark.parametrize("name", CHIP_FABRICS)
def test_memo_hit_from_another_fabric_matches_golden_digest(name):
    """A chip served by another fabric's memo entry warms bit for bit.

    The donor chip has the same workload, core count and seed, so every
    core draws the same stream; the entry it leaves must rebuild this
    fabric's golden warm state (its directory homes and core ids differ)
    and leave every stream exactly where a fresh draw would.
    """
    donor = CHIP_FABRICS[(CHIP_FABRICS.index(name) + 1) % len(CHIP_FABRICS)]
    memo: dict = {}
    warm_chip(SCENARIOS[f"{donor}_64"](), memo)
    assert len(memo) == 1
    chip = warm_chip(SCENARIOS[f"{name}_64"](), memo)
    assert len(memo) == 1, "the second chip missed the donor's entry"

    golden = json.loads(GOLDEN.read_text())
    assert entry_for(chip_state(chip)) == golden[f"{name}_64"]

    fresh = warm_chip(SCENARIOS[f"{name}_64"]())
    assert list(chip.core_nodes) == list(fresh.core_nodes)
    for core_id, node in chip.core_nodes.items():
        stream = node.core.stream
        fresh_stream = fresh.core_nodes[core_id].core.stream
        assert stream.rng.getstate() == fresh_stream.rng.getstate()
        assert stream._pc == fresh_stream._pc


if __name__ == "__main__":
    payload = {name: entry_for(warm_state(make())) for name, make in sorted(SCENARIOS.items())}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} warm-state digests to {GOLDEN}")
