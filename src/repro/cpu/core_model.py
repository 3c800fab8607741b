"""Trace-driven core timing model (ARM Cortex-A15-like).

The core consumes *fetch blocks* produced by a synthetic workload stream.
Each block is a run of instructions between taken branches together with
its data accesses.  The timing rules mirror the behaviour the paper relies
on:

* an L1-I miss stalls the core until the fill returns from the LLC (the key
  sensitivity that makes scale-out workloads NoC-latency bound);
* data misses overlap up to the workload's memory-level parallelism;
* otherwise instructions retire at the core's effective issue width.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Set

from repro.config.core import CoreConfig
from repro.config.workload import WorkloadConfig
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.workloads.base import FetchBlock, WorkloadStream


class CoreModel(Component):
    """One core executing a synthetic instruction/data stream."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        core_id: int,
        core_config: CoreConfig,
        workload_config: WorkloadConfig,
        stream: WorkloadStream,
        node: "repro.cpu.core_node.CoreNode",  # noqa: F821 - documented circular link
    ) -> None:
        super().__init__(sim, name)
        self.core_id = core_id
        self.core_config = core_config
        self.workload_config = workload_config
        self.stream = stream
        self.node = node

        self.effective_issue_width = min(core_config.issue_width, workload_config.issue_width)
        self.effective_mlp = min(core_config.max_outstanding_data_misses, workload_config.mlp)

        self.active = False
        self._current_block: Optional[FetchBlock] = None
        self._waiting_ifetch = False
        self._completing = False
        self._compute_done_cycle = 0
        self._outstanding_data: Set[int] = set()
        self._miss_queue: Deque = deque()

        stats = self.stats
        self.instructions_committed = stats.counter("instructions_committed")
        self.blocks_executed = stats.counter("blocks_executed")
        self.ifetch_stalls = stats.counter("ifetch_stalls")
        self.ifetch_stall_cycles = stats.counter("ifetch_stall_cycles")
        self.data_misses_issued = stats.counter("data_misses_issued")
        self._ifetch_stall_start = 0

    # ------------------------------------------------------------------ #
    # Control
    # ------------------------------------------------------------------ #
    def start(self, delay: int = 0) -> None:
        """Begin executing the workload stream."""
        if self.active:
            return
        self.active = True
        self.sim.schedule(self._advance, delay)

    # ------------------------------------------------------------------ #
    # Block execution
    # ------------------------------------------------------------------ #
    def _advance(self) -> None:
        if not self.active:
            return
        block = self.stream.next_block()
        self._current_block = block
        self._waiting_ifetch = False
        self._completing = False
        if not self.node.access_instruction(block.iaddr):
            self._waiting_ifetch = True
            self.ifetch_stalls.add()
            self._ifetch_stall_start = self.sim.cycle
            return
        self._execute_block(block)

    def ifetch_ready(self) -> None:
        """Called by the core node when the pending instruction fill arrives."""
        if not self._waiting_ifetch or self._current_block is None:
            return
        self._waiting_ifetch = False
        self.ifetch_stall_cycles.add(self.sim.cycle - self._ifetch_stall_start)
        self._execute_block(self._current_block)

    def _execute_block(self, block: FetchBlock) -> None:
        compute_cycles = max(1, math.ceil(block.n_instructions / self.effective_issue_width))
        hit_cycles = 0
        misses = []
        seen_blocks: Set[int] = set()
        for addr, is_write in block.data_accesses:
            if self.node.probe_data(addr, is_write):
                hit_cycles += 1  # L1 hit latency, mostly hidden by the OoO window
                continue
            line = self.node.block_address(addr)
            if line in seen_blocks:
                continue
            seen_blocks.add(line)
            misses.append((addr, is_write))

        self._compute_done_cycle = self.sim.cycle + compute_cycles + hit_cycles // max(
            1, self.effective_issue_width
        )
        self._outstanding_data.clear()
        self._miss_queue = deque(misses)
        self._issue_data_misses()
        if not self._outstanding_data and not self._miss_queue:
            self._schedule_completion(self._compute_done_cycle)

    def _issue_data_misses(self) -> None:
        while self._miss_queue and len(self._outstanding_data) < self.effective_mlp:
            addr, is_write = self._miss_queue.popleft()
            line = self.node.block_address(addr)
            if line in self._outstanding_data:
                continue
            self._outstanding_data.add(line)
            self.data_misses_issued.add()
            self.node.issue_data_miss(addr, is_write)

    def data_ready(self, block_addr: int) -> None:
        """Called by the core node when a data fill arrives."""
        self._outstanding_data.discard(block_addr)
        self._issue_data_misses()
        if (
            self._current_block is not None
            and not self._waiting_ifetch
            and not self._outstanding_data
            and not self._miss_queue
        ):
            self._schedule_completion(max(self.sim.cycle, self._compute_done_cycle))

    def _schedule_completion(self, cycle: int) -> None:
        if self._completing:
            return
        self._completing = True
        self.sim.schedule_at(self._complete_block, max(cycle, self.sim.cycle))

    def _complete_block(self) -> None:
        block = self._current_block
        if block is None:
            return
        self.instructions_committed.add(block.n_instructions)
        self.blocks_executed.add()
        self._current_block = None
        self._advance()

    # ------------------------------------------------------------------ #
    @property
    def outstanding_data_misses(self) -> int:
        return len(self._outstanding_data)

    def _tick(self) -> None:  # pragma: no cover - event driven, never ticks
        pass
