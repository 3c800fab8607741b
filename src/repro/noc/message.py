"""Network messages and flit accounting.

The coherence protocol produces :class:`Message` objects and the network
carries them as they are: injection stamps each message with its flit
count for the link (flit) width.  Three message classes provide
protocol-level deadlock freedom exactly as in the paper: data requests,
snoop requests, and responses (data and snoop responses share a class).
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import Any


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


def control_message_bits() -> int:
    """Size of an address-only (control) message."""
    return HEADER_BITS


def data_message_bits(block_size_bytes: int = 64) -> int:
    """Size of a message carrying a cache block of ``block_size_bytes``."""
    return HEADER_BITS + block_size_bytes * 8


class Message:
    """A protocol-level message, and the one object that travels the network.

    ``src`` and ``dst`` are *network node identifiers* (tiles, LLC tiles or
    memory controllers), assigned by :class:`repro.chip.system_map.SystemMap`.
    The network stamps ``created_cycle`` when the message is sent and
    ``num_flits`` (see :func:`flit_count`) when it is injected; every router
    it crosses adds one to ``hops``.
    """

    __slots__ = (
        "src", "dst", "msg_class", "size_bits", "payload",
        "created_cycle", "num_flits", "hops",
    )

    def __init__(
        self, src: int, dst: int, msg_class: MessageClass, size_bits: int, payload: Any = None
    ) -> None:
        if size_bits <= 0:
            raise ValueError("message size must be positive")
        self.src = src
        self.dst = dst
        self.msg_class = msg_class
        self.size_bits = size_bits
        self.payload = payload
        self.created_cycle = 0
        self.num_flits = 0
        self.hops = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Message({self.src}->{self.dst}, {self.msg_class.name}, "
            f"{self.size_bits} bits, flits={self.num_flits})"
        )


def flit_count(size_bits: int, link_width_bits: int) -> int:
    """Flits a ``size_bits`` message occupies on ``link_width_bits`` links."""
    if link_width_bits <= 0:
        raise ValueError("link_width_bits must be positive")
    return max(1, math.ceil(size_bits / link_width_bits))
