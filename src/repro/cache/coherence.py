"""Coherence protocol message payloads, directory state and the MSI rules.

The protocol is a directory-based MSI protocol with the three stable
directory states the paper's traffic analysis needs (I, S, M) and the three
network message classes it relies on for deadlock freedom:

* **requests** (core -> directory): GetS, GetX, PutM;
* **snoops** (directory -> core): invalidate, forward, forward-invalidate;
* **responses** (both directions): data, invalidation acks, forwarded data,
  and memory fills.

Cache-to-cache transfers are resolved through the directory (3-hop), which
matches the paper's observation that such transfers are triggered by fewer
than 2 % of LLC accesses.

:func:`on_request`, :func:`on_complete` and :func:`on_putm` are the only
home of the directory's rules. Each reads and updates just the entry it is
given; the timed directory and the functional warm-up apply their results.
:func:`on_snoop` and :func:`on_evict`, functions of L1 line states, are the
only home of a core's rules; the core node applies them to its L1 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Set, Tuple

from repro.cache.set_assoc import CacheLineState


class CoherenceRequestType(Enum):
    """Core-originated request types."""

    GETS = "GetS"  # read (instruction fetch or load)
    GETX = "GetX"  # write / upgrade
    PUTM = "PutM"  # dirty writeback


class SnoopType(Enum):
    """Directory-originated snoop types."""

    INVALIDATE = "Inv"
    FORWARD = "Fwd"          # owner supplies data and downgrades to shared
    FORWARD_INV = "FwdInv"   # owner supplies data and invalidates

    @property
    def is_forward(self) -> bool:
        """Whether the owner answers with the block (the LLC is not read)."""
        return self is not SnoopType.INVALIDATE


class ResponseType(Enum):
    """Response types (shared network class)."""

    DATA = "Data"            # directory -> requesting core (carries a block)
    INV_ACK = "InvAck"       # core -> directory
    FWD_DATA = "FwdData"     # owner core -> directory (carries a block)
    MEM_DATA = "MemData"     # memory controller -> directory (carries a block)


@dataclass
class CacheRequest:
    """A request from a core's L1 to the home directory."""

    req_type: CoherenceRequestType
    addr: int
    requester_node: int
    requester_core: int
    is_instruction: bool = False


@dataclass
class SnoopRequest:
    """A snoop from the home directory to a core's L1."""

    snoop_type: SnoopType
    addr: int
    home_node: int
    target_core: int


@dataclass
class Response:
    """A response message (data or acknowledgement)."""

    resp_type: ResponseType
    addr: int
    target_core: Optional[int] = None
    is_instruction: bool = False
    grants_exclusive: bool = False


@dataclass
class MemoryRequest:
    """A fill request from the home directory to a memory controller."""

    addr: int
    home_node: int


class DirectoryState(Enum):
    """Stable directory states."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


@dataclass
class DirectoryEntry:
    """Directory bookkeeping for one cache block."""

    state: DirectoryState = DirectoryState.INVALID
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None

    def check_invariants(self) -> None:
        """Raise if the entry violates the protocol invariants."""
        if self.state == DirectoryState.MODIFIED:
            if self.owner is None:
                raise AssertionError("M state requires an owner")
            if self.sharers - {self.owner}:
                raise AssertionError("M state cannot have other sharers")
        if self.state == DirectoryState.INVALID and (self.sharers or self.owner is not None):
            raise AssertionError("I state cannot have sharers or an owner")
        if self.state == DirectoryState.SHARED and self.owner is not None:
            raise AssertionError("S state cannot have an owner")


def on_request(
    entry: DirectoryEntry, is_write: bool, requester: int
) -> Tuple[Optional[SnoopType], List[int]]:
    """The snoops a GetS (or, if ``is_write``, a GetX) needs: ``(type, target cores)``.

    Another core's M copy is forwarded (Fwd, or FwdInv on a GetX) from its
    owner; a GetX invalidates the other sharers, in core order. The LLC is
    read unless the result is a forward.
    """
    if entry.state is DirectoryState.MODIFIED and entry.owner != requester:
        return (SnoopType.FORWARD_INV if is_write else SnoopType.FORWARD), [entry.owner]
    others = sorted(entry.sharers - {requester}) if is_write else []
    return (SnoopType.INVALIDATE if others else None), others


def on_complete(
    entry: DirectoryEntry, is_write: bool, requester: int, forwarded_from: Optional[int] = None
) -> None:
    """Grant the requester M on a GetX, else S (a forwarding owner stays a sharer).

    An owner re-reading its own M block keeps it.
    """
    if is_write:
        entry.state = DirectoryState.MODIFIED
        entry.owner = requester
        entry.sharers = {requester}
    elif entry.state is not DirectoryState.MODIFIED or entry.owner != requester:
        entry.state = DirectoryState.SHARED
        entry.owner = None
        entry.sharers.add(requester)
        if forwarded_from is not None:
            entry.sharers.add(forwarded_from)
    entry.check_invariants()


def on_putm(entry: DirectoryEntry, core: int) -> None:
    """A PutM: the owner's writeback leaves the block I; any other core just
    leaves the sharers."""
    if entry.state is DirectoryState.MODIFIED and entry.owner == core:
        entry.state = DirectoryState.INVALID
        entry.owner = None
        entry.sharers.clear()
    else:
        entry.sharers.discard(core)


def on_snoop(
    snoop_type: SnoopType, l1d_state: CacheLineState, l1i_present: bool
) -> Tuple[CacheLineState, bool, ResponseType, bool]:
    """``(new L1-D state, L1-I keeps the block, reply type, reply carries data)``.

    An Inv drops the block from both L1s and is acked without data. A Fwd
    downgrades an M line to S, a FwdInv drops the L1-D line; both reply
    FwdData, with data, whether or not the line is still held."""
    if snoop_type is SnoopType.INVALIDATE:
        return CacheLineState.INVALID, False, ResponseType.INV_ACK, False
    if snoop_type is SnoopType.FORWARD_INV or l1d_state is CacheLineState.INVALID:
        return CacheLineState.INVALID, l1i_present, ResponseType.FWD_DATA, True
    return CacheLineState.SHARED, l1i_present, ResponseType.FWD_DATA, True


def on_evict(state: CacheLineState) -> bool:
    """Whether a victim in ``state`` sends a PutM: only an M line does."""
    return state is CacheLineState.MODIFIED
