"""Network messages, packets and flit accounting.

The coherence protocol produces :class:`Message` objects; the network layer
wraps each message in a :class:`Packet` whose flit count depends on the
link (flit) width.  Three message classes provide protocol-level deadlock
freedom exactly as in the paper: data requests, snoop requests, and
responses (data and snoop responses share a class).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Optional


class MessageClass(IntEnum):
    """Virtual-network / message classes used for deadlock avoidance."""

    REQUEST = 0
    SNOOP = 1
    RESPONSE = 2


#: Every message class in value order.  Per-interface and per-map setup
#: iterates this tuple: iterating the enum class itself is about 5x slower.
MESSAGE_CLASSES = tuple(MessageClass)

#: Header size of every network message (address, ids, command), in bits.
HEADER_BITS = 128
#: Payload of a message carrying a full 64-byte cache block, in bits.
CACHE_BLOCK_BITS = 64 * 8


def control_message_bits() -> int:
    """Size of an address-only (control) message."""
    return HEADER_BITS


def data_message_bits(block_size_bytes: int = 64) -> int:
    """Size of a message carrying a cache block of ``block_size_bytes``."""
    return HEADER_BITS + block_size_bytes * 8


_NEXT_MESSAGE_ID = [0]


@dataclass
class Message:
    """A protocol-level message travelling between two network nodes.

    ``src`` and ``dst`` are *network node identifiers* (tiles, LLC tiles or
    memory controllers), assigned by :class:`repro.chip.system_map.SystemMap`.
    """

    src: int
    dst: int
    msg_class: MessageClass
    size_bits: int
    payload: Any = None
    created_cycle: int = 0
    message_id: int = field(default_factory=lambda: _next_message_id())

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError("message size must be positive")

    @property
    def carries_data(self) -> bool:
        """Whether this message carries a full cache block."""
        return self.size_bits > HEADER_BITS


def _next_message_id() -> int:
    _NEXT_MESSAGE_ID[0] += 1
    return _NEXT_MESSAGE_ID[0]


class Packet:
    """A message segmented into flits for a particular link width."""

    __slots__ = ("message", "num_flits", "injected_cycle", "hops", "flit_bits")

    def __init__(self, message: Message, link_width_bits: int, injected_cycle: int = 0) -> None:
        if link_width_bits <= 0:
            raise ValueError("link_width_bits must be positive")
        self.message = message
        self.flit_bits = link_width_bits
        self.num_flits = max(1, math.ceil(message.size_bits / link_width_bits))
        self.injected_cycle = injected_cycle
        self.hops = 0

    @property
    def msg_class(self) -> MessageClass:
        return self.message.msg_class

    @property
    def dst(self) -> int:
        return self.message.dst

    @property
    def src(self) -> int:
        return self.message.src

    def latency(self, delivered_cycle: int) -> int:
        """End-to-end latency measured from message creation."""
        return delivered_cycle - self.message.created_cycle

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Packet(id={self.message.message_id}, {self.src}->{self.dst}, "
            f"{self.msg_class.name}, flits={self.num_flits})"
        )
