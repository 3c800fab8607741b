"""Set-associative cache arrays with true LRU replacement."""

from __future__ import annotations

from array import array
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config.cache import CacheConfig


class CacheLineState(Enum):
    """MSI stable states tracked in the private caches."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


#: A set stores each line's one-letter state value, not the member: the
#: garbage collector does not track a dict of int keys and str values.
_STATE_OF = {state._value_: state for state in CacheLineState}


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
        # One plain dict per set: tag -> state value, in insertion order from
        # LRU to MRU.  A hit re-inserts its tag to make it MRU; the LRU victim
        # is the first key.
        self._sets: List[Dict[int, str]] = [{} for _ in range(self.num_sets)]
        # Stripes installed by insert_stripe, as (tags, state value), and how
        # many of them each set has applied (an array('I') once one exists).
        # A set applies the rest before any access, so it always holds what
        # installing every stripe eagerly would have left.
        self._log: List[Tuple[range, str]] = []
        self._applied: Optional[array] = None

    # ------------------------------------------------------------------ #
    def _index_and_tag(self, addr: int) -> Tuple[int, int]:
        """Set index and line key for ``addr``, with the set brought up to date.

        The "tag" returned here is the full block number, which keeps victim
        address reconstruction exact even for banked (interleaved) caches.
        """
        block = addr >> self._block_shift
        index = block // self._index_divisor % self.num_sets
        if self._log and self._applied[index] != len(self._log):
            self._catch_up(index)
        return index, block

    def _catch_up(self, index: int) -> None:
        """Apply to set ``index`` the logged stripes it has not seen, in order.

        A stripe's tags map to consecutive sets, so the set ``offset`` places
        after the first tag's receives ``tags[offset::num_sets]``.  An empty
        set ends up holding the last ``associativity`` of those, in order,
        which is what one :meth:`insert` per tag would leave; a set that
        already holds lines takes them one by one in :meth:`insert_all`'s way.
        """
        num_sets = self.num_sets
        ways = self.associativity
        cache_set = self._sets[index]
        for tags, code in self._log[self._applied[index] :]:
            chunk = tags[(index - tags.start // self._index_divisor) % num_sets :: num_sets]
            if not cache_set:
                cache_set = self._sets[index] = dict.fromkeys(chunk[-ways:], code)
                continue
            for tag in chunk:
                if cache_set.pop(tag, None) is None and len(cache_set) >= ways:
                    del cache_set[next(iter(cache_set))]
                cache_set[tag] = code
        self._applied[index] = len(self._log)

    def _catch_up_all(self) -> None:
        """Bring every set up to date, for readers of the whole array."""
        if self._log:
            logged = len(self._log)
            for index, applied in enumerate(self._applied):
                if applied != logged:
                    self._catch_up(index)

    def block_address(self, addr: int) -> int:
        return (addr >> self._block_shift) << self._block_shift

    # ------------------------------------------------------------------ #
    def lookup(self, addr: int, update_lru: bool = True) -> Optional[CacheLineState]:
        """Return the line state if ``addr`` is present, else ``None``."""
        index, tag = self._index_and_tag(addr)
        cache_set = self._sets[index]
        if not update_lru:
            return _STATE_OF.get(cache_set.get(tag))
        code = cache_set.pop(tag, None)
        if code is not None:
            cache_set[tag] = code
        return _STATE_OF.get(code)

    def probe(self, addr: int) -> Optional[CacheLineState]:
        """Like :meth:`lookup` but without touching LRU order."""
        index, tag = self._index_and_tag(addr)
        return _STATE_OF.get(self._sets[index].get(tag))

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
            victim = (victim_tag << self._block_shift, _STATE_OF[cache_set.pop(victim_tag)])
        cache_set[tag] = state._value_
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
        logged = len(self._log)
        for addr, state in lines:
            if state is invalid:
                raise ValueError("cannot insert a line in the INVALID state")
            tag = addr >> shift
            index = tag // divisor % num_sets
            if logged and self._applied[index] != logged:
                self._catch_up(index)
            cache_set = sets[index]
            # A resident tag is popped and re-added as MRU; a new one evicts
            # the LRU line of a full set first.
            if cache_set.pop(tag, None) is None and len(cache_set) >= ways:
                del cache_set[next(iter(cache_set))]
            cache_set[tag] = state._value_

    def insert_stripe(self, stripe: range, state: CacheLineState) -> None:
        """Install every address of a bank stripe in order, discarding victims.

        ``stripe`` is a range of addresses stepping by exactly
        ``index_divisor`` blocks (one bank's share of a region, see
        :meth:`AddressMapper.bank_stripes`), so its blocks map to consecutive
        sets.  The install is logged, not applied: each set applies it when
        first accessed (see :meth:`_catch_up`), which leaves what one
        :meth:`insert` per address, made now, would have left.
        """
        if state is CacheLineState.INVALID:
            raise ValueError("cannot insert a line in the INVALID state")
        if stripe.step != self._index_divisor << self._block_shift:
            raise ValueError(
                f"stripe step {stripe.step} is not index_divisor x block size "
                f"({self._index_divisor << self._block_shift})"
            )
        if not stripe:
            return
        if not self._log:
            self._applied = array("I", [0]) * self.num_sets
        divisor = self._index_divisor
        first_tag = stripe.start >> self._block_shift
        tags = range(first_tag, first_tag + len(stripe) * divisor, divisor)
        self._log.append((tags, state._value_))

    def packed_lines(self) -> Tuple[array, bytearray]:
        """Every resident line as ``(tags, state codes)``, set by set from LRU to MRU.

        Tags (block numbers) go in an ``array('q')`` and the one-letter state
        values, as ASCII, in a ``bytearray``, neither of which the garbage
        collector tracks; :meth:`install_packed` puts exactly these lines back.
        """
        self._catch_up_all()
        sets = self._sets
        # Built from lists, so both buffers are allocated at their exact size.
        tags = array("q", [tag for cache_set in sets for tag in cache_set])
        codes = "".join([code for cache_set in sets for code in cache_set.values()])
        return tags, bytearray(codes, "ascii")

    def install_packed(self, tags: array, codes: bytearray) -> None:
        """Replace the contents with the lines of :meth:`packed_lines`' output.

        Lines of one set arrive from LRU to MRU, so appending them in order
        restores each set's LRU order.  Logged stripes are dropped.
        """
        sets = self._sets
        for cache_set in sets:
            cache_set.clear()
        self._log = []
        divisor = self._index_divisor
        num_sets = self.num_sets
        for tag, code in zip(tags, codes.decode("ascii")):
            sets[tag // divisor % num_sets][tag] = code

    def update_state(self, addr: int, state: CacheLineState) -> None:
        """Change the state of a resident line (or invalidate it)."""
        index, tag = self._index_and_tag(addr)
        cache_set = self._sets[index]
        if tag not in cache_set:
            return
        if state == CacheLineState.INVALID:
            del cache_set[tag]
        else:
            cache_set[tag] = state._value_

    def invalidate(self, addr: int) -> Optional[CacheLineState]:
        """Remove ``addr`` if present; returns its previous state."""
        index, tag = self._index_and_tag(addr)
        return _STATE_OF.get(self._sets[index].pop(tag, None))

    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        self._catch_up_all()
        return sum(len(s) for s in self._sets)

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.associativity

    def resident_blocks(self) -> Dict[int, CacheLineState]:
        """All resident blocks and their states (for invariant checking)."""
        self._catch_up_all()
        result: Dict[int, CacheLineState] = {}
        for cache_set in self._sets:
            for tag, code in cache_set.items():
                result[tag << self._block_shift] = _STATE_OF[code]
        return result
