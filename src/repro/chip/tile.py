"""Network endpoints: tiles that receive messages and dispatch them."""

from __future__ import annotations

from typing import Optional

from repro.cache.coherence import CacheRequest, MemoryRequest, Response, ResponseType, SnoopRequest
from repro.cache.directory import DirectoryController
from repro.cache.memory_controller import MemoryController
from repro.cpu.core_node import CoreNode
from repro.noc.message import Message
from repro.tenancy.traffic import TenantProbe


class Tile:
    """One network endpoint and the components living behind it.

    In the tiled organizations a tile holds a core *and* an LLC slice with
    its directory; in NOC-Out a tile holds either a core, an LLC tile (two
    banks plus directory), or a memory controller.  Messages delivered by
    the network are dispatched to the right component based on their
    protocol-level payload.
    """

    def __init__(
        self,
        node_id: int,
        core_node: Optional[CoreNode] = None,
        directory: Optional[DirectoryController] = None,
        memory_controller: Optional[MemoryController] = None,
    ) -> None:
        if core_node is None and directory is None and memory_controller is None:
            raise ValueError("a tile must contain at least one component")
        self.node_id = node_id
        self.core_node = core_node
        self.directory = directory
        self.memory_controller = memory_controller

    # ------------------------------------------------------------------ #
    def receive_message(self, message: Message) -> None:
        """Dispatch a delivered network message to the owning component."""
        payload = message.payload
        if isinstance(payload, CacheRequest):
            self._require(self.directory, "directory", payload).handle_request(payload)
        elif isinstance(payload, SnoopRequest):
            self._require(self.core_node, "core", payload).handle_snoop(payload)
        elif isinstance(payload, MemoryRequest):
            self._require(self.memory_controller, "memory controller", payload).handle_memory_request(
                payload
            )
        elif isinstance(payload, Response):
            if payload.resp_type is ResponseType.DATA:  # the rest go to the home directory
                self._require(self.core_node, "core", payload).handle_response(payload)
            else:
                self._require(self.directory, "directory", payload).handle_response(payload)
        elif isinstance(payload, TenantProbe):
            # Open-loop tenant probes ride the fabric but never touch
            # cache state; hand them back to the owning generator.
            payload.sink(message)
        else:
            raise TypeError(f"tile {self.node_id}: unknown payload {type(payload).__name__}")

    def _require(self, component, kind: str, payload):
        if component is None:
            raise RuntimeError(
                f"tile {self.node_id} received a {type(payload).__name__} but has no {kind}"
            )
        return component

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        parts = []
        if self.core_node is not None:
            parts.append("core")
        if self.directory is not None:
            parts.append("llc")
        if self.memory_controller is not None:
            parts.append("mc")
        return f"Tile(node={self.node_id}, {'+'.join(parts)})"
