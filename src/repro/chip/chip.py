"""The full chip: cores, private caches, NUCA LLC, directory, NoC and DRAM.

:class:`Chip` is the main entry point of the library: build it from a
:class:`~repro.config.system.SystemConfig` (with a workload attached), call
:meth:`Chip.run_experiment`, and read the returned
:class:`SimulationResults`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.cache.directory import DirectoryController
from repro.cache.memory_controller import MemoryController
from repro.cache.set_assoc import CacheLineState
from repro.config import presets
from repro.config.noc import topology_key
from repro.config.system import SystemConfig
from repro.cpu.core_node import CoreNode
from repro.noc.message import (
    Message,
    MessageClass,
    control_message_bits,
    data_message_bits,
)
from repro.sim.kernel import Simulator
from repro.workloads.cloudsuite import make_stream
from repro.chip.builder import build_network
from repro.chip.system_map import build_system_map
from repro.chip.tile import Tile


class WarmCore(NamedTuple):
    """One core's fabric-independent share of :meth:`Chip.warmup`, packed.

    The four ``l1*`` fields are :meth:`SetAssociativeCache.packed_lines`
    of the warmed L1s; ``fill_addrs`` / ``fill_writes`` are the core's
    shared-region accesses in draw order; the last three are the stream's
    :meth:`~repro.workloads.base.SyntheticWorkloadStream.packed_state`
    after the draw.  One flat tuple keeps the per-core overhead small.
    """

    l1i_tags: array
    l1i_states: bytearray
    l1d_tags: array
    l1d_states: bytearray
    fill_addrs: array
    fill_writes: bytearray
    rng_words: array
    gauss_next: Optional[float]
    pc: int


#: Warm-up memo: the chip's key (warm-up count, block size, L1 geometries,
#: every core's stream identity) -> one :class:`WarmCore` per core.
WarmupMemo = Dict[tuple, Tuple[WarmCore, ...]]


@dataclass
class SimulationResults:
    """Measurements collected over one timed simulation window."""

    workload: str
    topology: str
    num_cores: int
    active_cores: int
    cycles: int
    total_instructions: int
    per_core_instructions: Dict[int, int] = field(default_factory=dict)
    network_mean_latency: float = 0.0
    network_request_latency: float = 0.0
    network_response_latency: float = 0.0
    network_mean_hops: float = 0.0
    messages_delivered: int = 0
    llc_accesses: int = 0
    llc_hit_rate: float = 0.0
    snoop_rate: float = 0.0
    snoops_sent: int = 0
    memory_reads: int = 0
    l1i_miss_rate: float = 0.0
    l1d_miss_rate: float = 0.0
    l1i_mpki: float = 0.0
    bank_conflicts: int = 0
    network_activity: Dict[str, float] = field(default_factory=dict)
    #: Tenancy placement name ("" for homogeneous single-workload chips).
    placement: str = ""
    #: Tenant label -> count/mean/p50/p95/p99 of network delivery latency.
    #: Empty tenants carry count/mean only — a missing percentile key means
    #: "not measured", never a fabricated 0.0 tail.
    per_tenant_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form used by the experiment engine's result cache."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResults":
        """Rebuild results from :meth:`to_dict` output (or its JSON round-trip).

        JSON turns the integer keys of ``per_core_instructions`` into
        strings; they are converted back here.  Unknown keys are ignored so
        old cache entries with extra fields still load.
        """
        kwargs = {key: value for key, value in data.items() if key in _RESULT_FIELDS}
        per_core = kwargs.get("per_core_instructions") or {}
        kwargs["per_core_instructions"] = {
            int(core): int(count) for core, count in per_core.items()
        }
        return cls(**kwargs)

    @property
    def throughput_ipc(self) -> float:
        """System throughput: committed instructions per cycle (paper's metric)."""
        return self.total_instructions / self.cycles if self.cycles else 0.0

    @property
    def per_core_ipc(self) -> float:
        """Average per-core IPC over the active cores (Figure 1's metric)."""
        if not self.active_cores:
            return 0.0
        return self.throughput_ipc / self.active_cores


#: :meth:`SimulationResults.from_dict` keeps only these keys.
_RESULT_FIELDS = frozenset(f.name for f in fields(SimulationResults))


class Chip:
    """A complete simulated chip for one (configuration, workload) pair.

    A chip's life is build (the constructor), warm (:meth:`warmup`), run
    (:meth:`start_cores`, :meth:`run`), collect (:meth:`collect_results`)
    and close (:meth:`close`); :meth:`run_experiment` does the middle three.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.workload_map = config.workload_map
        if config.workload is None and self.workload_map is None:
            raise ValueError("SystemConfig.workload must be set to build a chip")
        self.config = config
        self._tenant_workloads = self._resolve_tenant_workloads()
        # The headline workload: the config's own, else the first tenant's.
        self.workload = (
            config.workload if config.workload is not None else self._tenant_workloads[0]
        )
        self.sim = Simulator(config.seed)
        self.system_map = build_system_map(config)
        self.network = build_network(self.sim, config, self.system_map)

        if self.workload_map is None:
            self.active_core_ids: List[int] = self.system_map.active_core_ids(
                self.workload.scaled_cores(config.num_cores)
            )
        else:
            self.workload_map.validate_for(config.num_cores)
            self.active_core_ids = sorted(
                core for cores in self._tenant_active_cores() for core in cores
            )
        self.core_nodes: Dict[int, CoreNode] = {}
        self.directories: Dict[int, DirectoryController] = {}
        self.memory_controllers: Dict[int, MemoryController] = {}
        self.tiles: Dict[int, Tile] = {}
        self.tenant_traffic: Dict[str, "TenantTraffic"] = {}  # noqa: F821

        self._build_components()
        self._register_endpoints()
        self._build_tenant_overlay()
        self._started = False

    def _resolve_tenant_workloads(self):
        """WorkloadConfig per tenant of the map (empty list when untenanted)."""
        if self.workload_map is None:
            return []
        return [presets.workload(tenant.workload) for tenant in self.workload_map.tenants]

    def _tenant_active_cores(self) -> List[List[int]]:
        """Per tenant: the cores that actually execute (scalability-limited).

        Each tenant's workload scales within *its own* core group, so a
        16-core-max workload co-located on a 64-core chip fills at most 16
        of its assigned cores — the same rule the homogeneous path applies
        chip-wide.
        """
        active: List[List[int]] = []
        for index, workload in enumerate(self._tenant_workloads):
            cores = self.workload_map.tenant_cores(index)
            active.append(cores[: workload.scaled_cores(len(cores))])
        return active

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _make_sender(self, src_node: int):
        network = self.network
        data_bits = data_message_bits(self.config.caches.block_size)
        ctrl_bits = control_message_bits()

        def send(dst_node: int, msg_class: MessageClass, payload, carries_data: bool) -> None:
            size = data_bits if carries_data else ctrl_bits
            network.send(
                Message(src=src_node, dst=dst_node, msg_class=msg_class, size_bits=size, payload=payload)
            )

        return send

    def _build_components(self) -> None:
        config = self.config
        system_map = self.system_map

        # Cores (only the active ones execute a stream).
        if self.workload_map is None:
            active = self.active_core_ids
            for rank, core_id in enumerate(active):
                node_id = system_map.core_node(core_id)
                stream = make_stream(self.workload, rank, len(active), seed=config.seed)
                self._add_core_node(core_id, node_id, self.workload, stream)
        else:
            from repro.tenancy.placement import TENANT_ADDRESS_STRIDE

            for index, cores in enumerate(self._tenant_active_cores()):
                workload = self._tenant_workloads[index]
                for rank, core_id in enumerate(cores):
                    node_id = system_map.core_node(core_id)
                    stream = make_stream(
                        workload,
                        rank,
                        len(cores),
                        seed=config.seed,
                        address_offset=index * TENANT_ADDRESS_STRIDE,
                    )
                    self._add_core_node(core_id, node_id, workload, stream)

        # LLC slices / tiles with their directories.
        for node_id in system_map.llc_node_ids:
            directory = DirectoryController(
                self.sim,
                f"dir{node_id}",
                node_id=node_id,
                bank_configs=system_map.llc_bank_configs(),
                mapper=system_map.mapper,
                send=self._make_sender(node_id),
                core_node_for=system_map.core_node,
                mc_node_for=system_map.mc_node_for,
            )
            self.directories[node_id] = directory

        # Memory controllers.
        for index in range(config.num_memory_controllers):
            node_id = system_map.mc_node(index)
            controller = MemoryController(
                self.sim,
                f"mc{index}",
                node_id=node_id,
                config=config.caches,
                send=self._make_sender(node_id),
            )
            self.memory_controllers[node_id] = controller

    def _add_core_node(self, core_id: int, node_id: int, workload, stream) -> None:
        self.core_nodes[core_id] = CoreNode(
            self.sim,
            f"core{core_id}",
            core_id=core_id,
            node_id=node_id,
            config=self.config,
            workload=workload,
            stream=stream,
            send=self._make_sender(node_id),
            home_node_for=self.system_map.home_node,
        )

    def _build_tenant_overlay(self) -> None:
        """Per-tenant network attribution plus open-loop probe generators."""
        workload_map = self.workload_map
        if workload_map is None:
            return
        from repro.tenancy.arrivals import make_arrival
        from repro.tenancy.matrices import MatrixContext, make_matrix
        from repro.tenancy.traffic import TenantTraffic

        system_map = self.system_map
        labels = workload_map.tenant_labels()
        tenant_active = self._tenant_active_cores()
        tenant_of = {
            system_map.core_node(core): labels[index]
            for index, cores in enumerate(tenant_active)
            for core in cores
        }
        self.network.set_tenants(tenant_of)

        llc_nodes = tuple(system_map.llc_node_ids)
        for index, tenant in enumerate(workload_map.tenants):
            if tenant.rate <= 0.0 or not tenant_active[index]:
                continue
            context = MatrixContext(
                destinations=llc_nodes,
                tenant_index=index,
                num_tenants=len(workload_map.tenants),
            )
            self.tenant_traffic[labels[index]] = TenantTraffic(
                self.sim,
                self.network,
                labels[index],
                sources=[system_map.core_node(core) for core in tenant_active[index]],
                arrival=make_arrival(tenant.arrival, tenant.rate),
                pick_destination=make_matrix(tenant.matrix, context),
                seed=(self.config.seed * 1_000_003 + 7919 * (index + 1)) & 0xFFFFFFFF,
            )

    def _register_endpoints(self) -> None:
        system_map = self.system_map
        core_by_node = {node.node_id: node for node in self.core_nodes.values()}

        for node_id in set(system_map.core_node_ids) | set(system_map.llc_node_ids):
            core_node = core_by_node.get(node_id)
            directory = self.directories.get(node_id)
            if core_node is None and directory is None:
                continue  # inactive core tile in the NOC-Out layout
            tile = Tile(node_id, core_node=core_node, directory=directory)
            self.tiles[node_id] = tile
            self.network.register_endpoint(node_id, tile.receive_message)

        for node_id, controller in self.memory_controllers.items():
            tile = Tile(node_id, memory_controller=controller)
            self.tiles[node_id] = tile
            self.network.register_endpoint(node_id, tile.receive_message)

    # ------------------------------------------------------------------ #
    # Warm-up
    # ------------------------------------------------------------------ #
    def warmup(
        self, references_per_core: Optional[int] = None, memo: Optional[WarmupMemo] = None
    ) -> None:
        """Functionally warm the caches and directory before timed simulation.

        The full instruction footprint is installed in the LLC (it fits in
        the 8 MB cache, mirroring the paper's warmed checkpoints), and each
        core replays a short reference stream to warm its private L1s and
        the shared-region directory state.  ``references_per_core``
        defaults to :class:`~repro.experiments.harness.RunSettings`'.

        Installs go in bulk but leave the state one install per address
        would: the footprint goes bank by bank through
        :meth:`SetAssociativeCache.insert_stripe`, which logs it; a set
        takes the blocks that map to it, in increasing address order, when
        it is first touched; each core's L1 lines go in one
        ``insert_all`` batch per cache, in reference order.  Every bank and
        every L1 is its own tag array, so only the order within one array
        matters.

        The per-core part does not depend on the fabric, so it goes
        through ``memo`` (a fresh dict when none is given): an entry keyed
        on every core's stream identity holds the warmed L1 contents, the
        shared-region fills and each stream's end state.  A hit installs
        the L1s, replays the fills through this chip's directories (their
        homes are the fabric's) and resumes each stream where the original
        draw left it, which is bit for bit what drawing again would do.
        """
        if references_per_core is None:
            # repro.experiments imports this module, so not at the top.
            from repro.experiments.harness import RunSettings

            references_per_core = RunSettings().warmup_references
        memo = {} if memo is None else memo
        if not self.core_nodes:
            return
        system_map = self.system_map
        home_node = system_map.home_node
        directories = self.directories
        shared = CacheLineState.SHARED

        # One footprint per tenant (homogeneous chips share a single
        # region); sorted so the fill order is deterministic.
        instruction_regions = sorted(
            {node.core.stream.instruction_region for node in self.core_nodes.values()}
        )
        for instr_base, instr_size in instruction_regions:
            for stripe in system_map.mapper.bank_stripes(instr_base, instr_size):
                first = stripe[0]
                bank = directories[home_node(first)].bank_for(first)
                bank.array.insert_stripe(stripe, shared)

        caches = self.config.caches
        key = (
            references_per_core,
            caches.block_size,
            caches.l1i,
            caches.l1d,
            tuple(node.core.stream.identity() for node in self.core_nodes.values()),
        )
        # Hit or miss, the install below is what warms this chip: a miss
        # only draws the product first.
        product = memo.get(key)
        if product is None:
            product = memo[key] = self._draw_warm_cores(references_per_core)
        for (core_id, node), warm in zip(self.core_nodes.items(), product):
            node.l1i.array.install_packed(warm.l1i_tags, warm.l1i_states)
            node.l1d.array.install_packed(warm.l1d_tags, warm.l1d_states)
            for addr, is_write in zip(warm.fill_addrs, warm.fill_writes):
                directories[home_node(addr)].warm_fill(addr, sharer=core_id, writable=is_write)
            node.core.stream.restore(warm.rng_words, warm.gauss_next, warm.pc)

    def _draw_warm_cores(self, references_per_core: int) -> Tuple[WarmCore, ...]:
        """Draw every core's warm-up references into its L1s; return the product.

        Shared-region data accesses are recorded as fills, in order, for
        :meth:`warmup` to replay into the directories.
        """
        # L1 lines are keyed by the chip's block address, whatever the L1's
        # own block size.
        block_mask = -self.config.caches.block_size
        shared = CacheLineState.SHARED
        modified = CacheLineState.MODIFIED
        product = []
        for node in self.core_nodes.values():
            stream = node.core.stream
            shared_base, shared_size = stream.shared_region
            shared_end = shared_base + shared_size
            instruction_lines = []
            data_lines = []
            fill_addrs = []
            fill_writes = []
            for addr, is_instruction, is_write in stream.functional_references(references_per_core):
                if is_instruction:
                    instruction_lines.append((addr & block_mask, shared))
                elif shared_base <= addr < shared_end:
                    data_lines.append((addr & block_mask, modified if is_write else shared))
                    fill_addrs.append(addr)
                    fill_writes.append(is_write)
                else:
                    # Private lines that are ever written end up modified in
                    # steady state; warming them writable avoids a long
                    # upgrade transient.
                    data_lines.append((addr & block_mask, modified))
            node.l1i.array.insert_all(instruction_lines)
            node.l1d.array.insert_all(data_lines)
            product.append(
                WarmCore(
                    *node.l1i.array.packed_lines(),
                    *node.l1d.array.packed_lines(),
                    array("q", fill_addrs),
                    bytearray(fill_writes),
                    *stream.packed_state(),
                )
            )
        return tuple(product)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def start_cores(self) -> None:
        """Begin executing the workload on every active core."""
        if self._started:
            return
        self._started = True
        for offset, node in enumerate(self.core_nodes.values()):
            node.core.start(delay=offset % 4)
        for generator in self.tenant_traffic.values():
            generator.start()

    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` cycles."""
        self.sim.run(cycles)

    def reset_statistics(self) -> None:
        """Zero every measured statistic (called between warm-up and measurement).

        Every component registers its counters and histograms under
        ``sim.stats``, so resetting that one tree covers the whole chip.
        """
        self.sim.stats.reset()

    def run_experiment(
        self,
        warmup_references: Optional[int] = None,
        detailed_warmup_cycles: Optional[int] = None,
        measure_cycles: Optional[int] = None,
        memo: Optional[WarmupMemo] = None,
    ) -> SimulationResults:
        """Warm up, run a timed warm window, then measure and return results.

        A window left as ``None`` takes
        :class:`~repro.experiments.harness.RunSettings`' default; ``memo``
        is passed to :meth:`warmup`.
        """
        from repro.experiments.harness import RunSettings

        defaults = RunSettings()
        if detailed_warmup_cycles is None:
            detailed_warmup_cycles = defaults.detailed_warmup_cycles
        if measure_cycles is None:
            measure_cycles = defaults.measure_cycles
        self.warmup(warmup_references, memo)
        self.start_cores()
        if detailed_warmup_cycles:
            self.sim.run(detailed_warmup_cycles)
        self.reset_statistics()
        self.sim.run(measure_cycles)
        return self.collect_results(measure_cycles)

    def close(self) -> None:
        """Break the chip's reference cycles once its results are collected.

        See :meth:`Simulator.close`; the chip also drops its own
        attributes, so reference counting frees the whole model.  Neither
        the chip nor any of its components may be used afterwards.
        """
        self.sim.close()
        self.__dict__.clear()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def collect_results(self, cycles: int) -> SimulationResults:
        per_core_instructions = {
            core_id: int(node.core.instructions_committed.value)
            for core_id, node in self.core_nodes.items()
        }
        total_instructions = sum(per_core_instructions.values())

        llc_accesses = sum(d.llc_accesses.value for d in self.directories.values())
        llc_hits = sum(d.llc_hits.value for d in self.directories.values())
        snoop_triggers = sum(d.snoop_triggering_accesses.value for d in self.directories.values())
        snoops_sent = sum(d.snoops_sent.value for d in self.directories.values())
        bank_conflicts = sum(d.bank_conflicts.value for d in self.directories.values())
        memory_reads = sum(
            int(mc.requests_serviced.value) for mc in self.memory_controllers.values()
        )

        l1i_accesses = sum(n.l1i.accesses for n in self.core_nodes.values())
        l1i_misses = sum(n.l1i.misses for n in self.core_nodes.values())
        l1d_accesses = sum(n.l1d.accesses for n in self.core_nodes.values())
        l1d_misses = sum(n.l1d.misses for n in self.core_nodes.values())

        from repro.noc.message import MessageClass as MC

        placement = ""
        per_tenant_latency: Dict[str, Dict[str, float]] = {}
        workload_label = self.workload.name
        if self.workload_map is not None:
            from repro.analysis.metrics import tail_summary

            placement = self.workload_map.placement
            workload_label = self.workload_map.describe()
            per_tenant_latency = {
                label: tail_summary(histogram)
                for label, histogram in self.network.tenant_latency_histograms().items()
            }

        return SimulationResults(
            workload=workload_label,
            topology=topology_key(self.config.noc.topology),
            num_cores=self.config.num_cores,
            active_cores=len(self.active_core_ids),
            cycles=cycles,
            total_instructions=total_instructions,
            per_core_instructions=per_core_instructions,
            network_mean_latency=self.network.mean_latency(),
            network_request_latency=self.network.mean_latency(MC.REQUEST),
            network_response_latency=self.network.mean_latency(MC.RESPONSE),
            network_mean_hops=self.network.mean_hops(),
            messages_delivered=int(self.network.messages_delivered.value),
            llc_accesses=int(llc_accesses),
            llc_hit_rate=llc_hits / llc_accesses if llc_accesses else 0.0,
            snoop_rate=snoop_triggers / llc_accesses if llc_accesses else 0.0,
            snoops_sent=int(snoops_sent),
            memory_reads=memory_reads,
            l1i_miss_rate=l1i_misses / l1i_accesses if l1i_accesses else 0.0,
            l1d_miss_rate=l1d_misses / l1d_accesses if l1d_accesses else 0.0,
            l1i_mpki=(
                1000.0 * l1i_misses / total_instructions if total_instructions else 0.0
            ),
            bank_conflicts=int(bank_conflicts),
            network_activity=self.network.activity(),
            placement=placement,
            per_tenant_latency=per_tenant_latency,
        )
