"""Set-associative cache arrays with true LRU replacement."""

from __future__ import annotations

from array import array
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config.cache import CacheConfig


class CacheLineState(Enum):
    """MESI-style stable states tracked in the private caches."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"

    @property
    def is_valid(self) -> bool:
        return self != CacheLineState.INVALID

    @property
    def is_writable(self) -> bool:
        return self in (CacheLineState.EXCLUSIVE, CacheLineState.MODIFIED)


#: One-byte codes for line states in :meth:`SetAssociativeCache.packed_lines`.
_STATES = tuple(CacheLineState)
_STATE_CODES = {state: code for code, state in enumerate(_STATES)}


class SetAssociativeCache:
    """A tag array with per-line state and true-LRU replacement.

    Only tags and states are modelled (no data values); the simulator tracks
    timing and protocol behaviour, not program semantics.
    """

    def __init__(self, config: CacheConfig, name: str = "cache", index_divisor: int = 1) -> None:
        if index_divisor < 1:
            raise ValueError("index_divisor must be >= 1")
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._block_shift = config.block_size.bit_length() - 1
        # Banked caches (the NUCA LLC) interleave consecutive blocks across
        # banks; dividing the block number by the bank count before indexing
        # keeps all sets of each bank usable.
        self._index_divisor = index_divisor
        # One plain dict per set: tag -> state, in insertion order from LRU
        # to MRU.  A hit re-inserts its tag to make it MRU; the LRU victim is
        # the first key.
        self._sets: List[Dict[int, CacheLineState]] = [{} for _ in range(self.num_sets)]

    # ------------------------------------------------------------------ #
    def _index_and_tag(self, addr: int) -> Tuple[int, int]:
        """Set index and line key for ``addr``.

        The "tag" returned here is the full block number, which keeps victim
        address reconstruction exact even for banked (interleaved) caches.
        """
        block = addr >> self._block_shift
        local = block // self._index_divisor
        return local % self.num_sets, block

    def block_address(self, addr: int) -> int:
        return (addr >> self._block_shift) << self._block_shift

    # ------------------------------------------------------------------ #
    def lookup(self, addr: int, update_lru: bool = True) -> Optional[CacheLineState]:
        """Return the line state if ``addr`` is present, else ``None``."""
        index, tag = self._index_and_tag(addr)
        cache_set = self._sets[index]
        if not update_lru:
            return cache_set.get(tag)
        state = cache_set.pop(tag, None)
        if state is not None:
            cache_set[tag] = state
        return state

    def probe(self, addr: int) -> Optional[CacheLineState]:
        """Like :meth:`lookup` but without touching LRU order."""
        index, tag = self._index_and_tag(addr)
        return self._sets[index].get(tag)

    def insert(
        self, addr: int, state: CacheLineState = CacheLineState.SHARED
    ) -> Optional[Tuple[int, CacheLineState]]:
        """Install ``addr`` with ``state``; returns the victim, if any.

        The victim is reported as ``(block_address, state)`` so the caller
        can issue a writeback for modified lines.
        """
        if state == CacheLineState.INVALID:
            raise ValueError("cannot insert a line in the INVALID state")
        index, tag = self._index_and_tag(addr)
        cache_set = self._sets[index]
        victim = None
        if cache_set.pop(tag, None) is None and len(cache_set) >= self.associativity:
            victim_tag = next(iter(cache_set))
            victim = (victim_tag << self._block_shift, cache_set.pop(victim_tag))
        cache_set[tag] = state
        return victim

    def insert_all(self, lines: Iterable[Tuple[int, CacheLineState]]) -> None:
        """Install every ``(addr, state)`` pair in order, discarding victims.

        Leaves exactly the sets, LRU order and states that one :meth:`insert`
        per pair would; functional warm-up installs through this.
        """
        sets = self._sets
        shift = self._block_shift
        divisor = self._index_divisor
        num_sets = self.num_sets
        ways = self.associativity
        invalid = CacheLineState.INVALID
        for addr, state in lines:
            if state is invalid:
                raise ValueError("cannot insert a line in the INVALID state")
            tag = addr >> shift
            cache_set = sets[tag // divisor % num_sets]
            # A resident tag is popped and re-added as MRU; a new one evicts
            # the LRU line of a full set first.
            if cache_set.pop(tag, None) is None and len(cache_set) >= ways:
                del cache_set[next(iter(cache_set))]
            cache_set[tag] = state

    def insert_stripe(self, stripe: range, state: CacheLineState) -> None:
        """Install every address of a bank stripe in order, discarding victims.

        ``stripe`` is a range of addresses stepping by exactly
        ``index_divisor`` blocks (one bank's share of a region, see
        :meth:`AddressMapper.bank_stripes`), so its blocks map to consecutive
        sets: the set ``offset`` places after the first block's receives the
        tags ``tags[offset::num_sets]``.  An empty set ends up holding the
        last ``associativity`` of those, in order, which is what one
        :meth:`insert` per address would leave; a set that already holds
        lines (another region's) goes through :meth:`insert_all` instead.
        """
        if state is CacheLineState.INVALID:
            raise ValueError("cannot insert a line in the INVALID state")
        if stripe.step != self._index_divisor << self._block_shift:
            raise ValueError(
                f"stripe step {stripe.step} is not index_divisor x block size "
                f"({self._index_divisor << self._block_shift})"
            )
        divisor = self._index_divisor
        shift = self._block_shift
        first_tag = stripe.start >> shift
        tags = range(first_tag, first_tag + len(stripe) * divisor, divisor)
        sets = self._sets
        num_sets = self.num_sets
        ways = self.associativity
        first_set = first_tag // divisor
        for offset in range(min(num_sets, len(tags))):
            index = (first_set + offset) % num_sets
            chunk = tags[offset::num_sets]
            if sets[index]:
                self.insert_all((tag << shift, state) for tag in chunk)
            else:
                sets[index] = dict.fromkeys(chunk[-ways:], state)

    def packed_lines(self) -> Tuple[array, bytearray]:
        """Every resident line as ``(tags, state codes)``, set by set from LRU to MRU.

        Tags (block numbers) go in an ``array('q')`` and states in a
        ``bytearray``, neither of which the garbage collector tracks;
        :meth:`install_packed` puts exactly these lines back.
        """
        sets = self._sets
        # Built from lists, so both buffers are allocated at their exact size.
        tags = array("q", [tag for cache_set in sets for tag in cache_set])
        codes = bytearray(
            [_STATE_CODES[state] for cache_set in sets for state in cache_set.values()]
        )
        return tags, codes

    def install_packed(self, tags: array, codes: bytearray) -> None:
        """Replace the contents with the lines of :meth:`packed_lines`' output.

        Lines of one set arrive from LRU to MRU, so appending them in order
        restores each set's LRU order.
        """
        sets = self._sets
        for cache_set in sets:
            cache_set.clear()
        divisor = self._index_divisor
        num_sets = self.num_sets
        for tag, code in zip(tags, codes):
            sets[tag // divisor % num_sets][tag] = _STATES[code]

    def update_state(self, addr: int, state: CacheLineState) -> None:
        """Change the state of a resident line (or invalidate it)."""
        index, tag = self._index_and_tag(addr)
        cache_set = self._sets[index]
        if tag not in cache_set:
            return
        if state == CacheLineState.INVALID:
            del cache_set[tag]
        else:
            cache_set[tag] = state

    def invalidate(self, addr: int) -> Optional[CacheLineState]:
        """Remove ``addr`` if present; returns its previous state."""
        index, tag = self._index_and_tag(addr)
        cache_set = self._sets[index]
        return cache_set.pop(tag, None)

    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.associativity

    def resident_blocks(self) -> Dict[int, CacheLineState]:
        """All resident blocks and their states (for invariant checking)."""
        result: Dict[int, CacheLineState] = {}
        for cache_set in self._sets:
            for tag, state in cache_set.items():
                result[tag << self._block_shift] = state
        return result
