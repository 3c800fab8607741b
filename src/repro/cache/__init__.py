"""Cache hierarchy and coherence substrate.

The paper's chips have per-core L1-I/L1-D caches, a shared NUCA LLC with an
embedded directory, and four memory channels.  This package provides all of
those pieces plus the MSI directory protocol with the three message
classes (requests, snoops, responses) the NOC designs rely on for deadlock
freedom.
"""

from repro.cache.address import AddressMapper
from repro.cache.set_assoc import CacheLineState, SetAssociativeCache
from repro.cache.mshr import MshrFile
from repro.cache.l1 import L1Cache
from repro.cache.llc import LLCBank
from repro.cache.coherence import (
    CacheRequest,
    CoherenceRequestType,
    MemoryRequest,
    Response,
    ResponseType,
    SnoopRequest,
    SnoopType,
)
from repro.cache.directory import DirectoryController
from repro.cache.dram import DramChannel
from repro.cache.memory_controller import MemoryController

__all__ = [
    "AddressMapper",
    "CacheLineState",
    "SetAssociativeCache",
    "MshrFile",
    "L1Cache",
    "LLCBank",
    "CacheRequest",
    "CoherenceRequestType",
    "MemoryRequest",
    "Response",
    "ResponseType",
    "SnoopRequest",
    "SnoopType",
    "DirectoryController",
    "DramChannel",
    "MemoryController",
]
