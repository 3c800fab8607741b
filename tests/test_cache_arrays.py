"""Unit tests for address mapping, cache arrays, MSHRs and L1 caches."""

import copy
import gc
import random
from collections import OrderedDict
from itertools import repeat

import pytest

from repro.cache.address import AddressMapper
from repro.cache.l1 import L1Cache
from repro.cache.llc import LLCBank
from repro.cache.mshr import MshrFile
from repro.cache.set_assoc import CacheLineState, SetAssociativeCache
from repro.chip.chip import Chip
from repro.config.cache import CacheConfig
from repro.experiments.harness import RunSettings
from repro.scenarios import build_system, workload
from repro.sim.stats import StatGroup


class TestAddressMapper:
    def test_block_alignment(self):
        mapper = AddressMapper(block_size=64)
        assert mapper.block_address(0x1234) == 0x1200
        assert mapper.block_address(0x1200) == 0x1200

    def test_block_number(self):
        assert AddressMapper(64).block_number(0x1000) == 0x40

    def test_home_bank_interleaves_consecutive_blocks(self):
        mapper = AddressMapper(64, num_llc_banks=16)
        homes = [mapper.home_bank(block * 64) for block in range(16)]
        assert homes == list(range(16))

    def test_home_bank_is_stable_within_a_block(self):
        mapper = AddressMapper(64, num_llc_banks=16)
        assert mapper.home_bank(0x1000) == mapper.home_bank(0x103F)

    def test_memory_channel_interleaves_pages(self):
        mapper = AddressMapper(64, num_memory_channels=4)
        assert mapper.memory_channel(0x0000) == 0
        assert mapper.memory_channel(0x1000) == 1
        assert mapper.memory_channel(0x4000) == 0

    def test_same_block(self):
        mapper = AddressMapper(64)
        assert mapper.block_number(0x100) == mapper.block_number(0x13F)
        assert mapper.block_number(0x100) != mapper.block_number(0x140)

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError):
            AddressMapper(block_size=48)

    @pytest.mark.parametrize(
        "base, size",
        [(0x1000, 64 * 100), (0x1010, 64 * 37 + 5), (0x2000, 64 * 3), (0x40, 64 * 16)],
    )
    def test_bank_stripes_partition_the_range_by_home_bank(self, base, size):
        mapper = AddressMapper(64, num_llc_banks=16)
        stripes = list(mapper.bank_stripes(base, size))
        assert sorted(addr for stripe in stripes for addr in stripe) == list(
            range(base, base + size, 64)
        )
        for stripe in stripes:
            assert list(stripe) == sorted(stripe)
            assert {mapper.home_bank(addr) for addr in stripe} == {mapper.home_bank(stripe[0])}
        assert len({mapper.home_bank(stripe[0]) for stripe in stripes}) == len(stripes)


def small_cache(size=1024, assoc=2, block=64):
    return SetAssociativeCache(CacheConfig(size, assoc, block), name="test")


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0x1000) is None
        cache.insert(0x1000, CacheLineState.SHARED)
        assert cache.lookup(0x1000) == CacheLineState.SHARED

    def test_capacity_is_bounded(self):
        cache = small_cache()
        for i in range(100):
            cache.insert(i * 64)
        assert cache.occupancy <= cache.capacity_blocks

    def test_lru_eviction_order(self):
        cache = small_cache(size=2 * 64, assoc=2, block=64)  # one set, two ways
        cache.insert(0 * 64)
        cache.insert(1 * 64)
        cache.lookup(0)  # touch block 0, making block 1 the LRU victim
        victim = cache.insert(2 * 64)
        assert victim is not None
        assert victim[0] == 1 * 64

    def test_insert_existing_updates_state_without_eviction(self):
        cache = small_cache()
        cache.insert(0x40, CacheLineState.SHARED)
        victim = cache.insert(0x40, CacheLineState.MODIFIED)
        assert victim is None
        assert cache.probe(0x40) == CacheLineState.MODIFIED

    def test_victim_address_is_reconstructed_exactly(self):
        cache = SetAssociativeCache(CacheConfig(2 * 64, 2, 64), "banked", index_divisor=16)
        base = 0x1_0000_0000
        addresses = [base + i * 64 * 16 for i in range(3)]  # same bank, same set
        cache.insert(addresses[0])
        cache.insert(addresses[1])
        victim = cache.insert(addresses[2])
        assert victim is not None
        assert victim[0] == addresses[0]

    def test_index_divisor_spreads_interleaved_blocks(self):
        # Blocks striped across 16 banks: bank 0 sees blocks 0, 16, 32, ...
        config = CacheConfig(64 * 64, 2, 64)  # 32 sets
        aliased = SetAssociativeCache(config, "aliased")
        spread = SetAssociativeCache(config, "spread", index_divisor=16)
        for i in range(64):
            addr = i * 16 * 64
            aliased.insert(addr)
            spread.insert(addr)
        assert spread.occupancy > aliased.occupancy

    def test_invalidate(self):
        cache = small_cache()
        cache.insert(0x80, CacheLineState.MODIFIED)
        assert cache.invalidate(0x80) == CacheLineState.MODIFIED
        assert cache.probe(0x80) is None
        assert cache.invalidate(0x80) is None

    def test_update_state(self):
        cache = small_cache()
        cache.insert(0x80, CacheLineState.SHARED)
        cache.update_state(0x80, CacheLineState.MODIFIED)
        assert cache.probe(0x80) == CacheLineState.MODIFIED
        cache.update_state(0x80, CacheLineState.INVALID)
        assert cache.probe(0x80) is None

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("index_divisor", [1, 3, 16])
    def test_insert_all_matches_repeated_insert(self, seed, index_divisor):
        # 48 distinct blocks over 16 lines of capacity: tags are re-inserted
        # while resident, full sets evict, and states change on re-insert.
        rng = random.Random(seed)
        states = [CacheLineState.SHARED, CacheLineState.MODIFIED]
        lines = [
            (rng.randrange(48) * 64 + rng.randrange(64), rng.choice(states))
            for _ in range(400)
        ]
        config = CacheConfig(1024, 2, 64)
        one_by_one = SetAssociativeCache(config, index_divisor=index_divisor)
        victims = [one_by_one.insert(addr, state) for addr, state in lines]
        bulk = SetAssociativeCache(config, index_divisor=index_divisor)
        bulk.insert_all(iter(lines))
        assert any(victim is not None for victim in victims)
        assert list(bulk.resident_blocks().items()) == list(
            one_by_one.resident_blocks().items()
        )

    def test_insert_all_continues_from_existing_contents(self):
        cache, reference = small_cache(), small_cache()
        for target in (cache, reference):
            target.insert(0x0, CacheLineState.MODIFIED)
            target.insert(0x200, CacheLineState.SHARED)
        lines = [(0x400, CacheLineState.SHARED), (0x0, CacheLineState.SHARED)]
        for addr, state in lines:
            reference.insert(addr, state)
        cache.insert_all(lines)
        assert list(cache.resident_blocks().items()) == list(
            reference.resident_blocks().items()
        )

    @pytest.mark.parametrize(
        "base, size, preload",
        [
            # Empty banks, fewer blocks per bank than sets.
            (0x1_0000_0000, 16 * 20 * 64, 0),
            # Several times the bank's capacity: each set sees more blocks
            # than it has ways and keeps only the last ones.
            (0x1_0000_0000, 16 * 200 * 64, 0),
            # Banks already holding lines, from the stripe and from another
            # region; sets get fewer stripe blocks than ways, so some of the
            # other region's lines survive.
            (0x1_0000_0000, 16 * 20 * 64, 40),
            # First block on bank 3 and set 5, unaligned, wrapping past the
            # last set back to set 0.
            (0x1_0000_0000 + (37 * 16 + 3) * 64 + 8, 16 * 70 * 64 + 100, 0),
            (0x1_0000_0000 + (37 * 16 + 3) * 64 + 8, 16 * 40 * 64 + 100, 60),
        ],
    )
    def test_insert_stripe_matches_insert_all(self, base, size, preload):
        mapper = AddressMapper(64, num_llc_banks=16)
        config = CacheConfig(32 * 2 * 64, 2, 64)  # 32 sets, 2 ways

        def banks():
            arrays = [SetAssociativeCache(config, index_divisor=16) for _ in range(16)]
            rng = random.Random(preload)
            for _ in range(preload):
                addr = rng.choice((base, base + (1 << 30))) + rng.randrange(size)
                arrays[mapper.home_bank(addr)].insert(addr, CacheLineState.MODIFIED)
            return arrays

        striped, reference = banks(), banks()
        for stripe in mapper.bank_stripes(base, size):
            bank = mapper.home_bank(stripe[0])
            striped[bank].insert_stripe(stripe, CacheLineState.SHARED)
            reference[bank].insert_all(zip(stripe, repeat(CacheLineState.SHARED)))
        for got, want in zip(striped, reference):
            assert list(got.resident_blocks().items()) == list(want.resident_blocks().items())
        if preload:
            survivors = [
                state
                for bank in reference
                for state in bank.resident_blocks().values()
                if state is CacheLineState.MODIFIED
            ]
            assert survivors

    def test_insert_stripe_rejects_wrong_step_and_invalid_state(self):
        cache = SetAssociativeCache(CacheConfig(32 * 2 * 64, 2, 64), index_divisor=16)
        with pytest.raises(ValueError, match="step"):
            cache.insert_stripe(range(0, 64 * 100, 64), CacheLineState.SHARED)
        with pytest.raises(ValueError, match="step"):
            cache.insert_stripe(range(0, 64 * 800, 64 * 8), CacheLineState.SHARED)
        with pytest.raises(ValueError):
            cache.insert_stripe(range(0, 64 * 800, 64 * 16), CacheLineState.INVALID)
        cache.insert_stripe(range(0, 0, 64 * 16), CacheLineState.SHARED)
        assert cache.occupancy == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_lru_matches_ordered_dict_model(self, seed):
        # 5,000 mixed calls on one 4-way set, checked call by call against
        # an OrderedDict model; the set's dict goes through many deletions
        # and re-insertions.
        cache = SetAssociativeCache(CacheConfig(4 * 64, 4, 64))
        model = OrderedDict()
        states = [CacheLineState.SHARED, CacheLineState.MODIFIED]
        rng = random.Random(seed)
        victims = 0
        for _ in range(5000):
            tag = rng.randrange(7)
            addr = tag * 64 + rng.randrange(64)
            op = rng.randrange(6)
            if op == 0:
                state = rng.choice(states)
                expected = None
                if tag in model:
                    model.move_to_end(tag)
                elif len(model) >= 4:
                    victim_tag, victim_state = model.popitem(last=False)
                    expected = (victim_tag * 64, victim_state)
                    victims += 1
                model[tag] = state
                assert cache.insert(addr, state) == expected
            elif op == 1:
                expected = model.get(tag)
                if tag in model:
                    model.move_to_end(tag)
                assert cache.lookup(addr) == expected
            elif op == 2:
                assert cache.lookup(addr, update_lru=False) == model.get(tag)
            elif op == 3:
                assert cache.probe(addr) == model.get(tag)
            elif op == 4:
                assert cache.invalidate(addr) == model.pop(tag, None)
            else:
                state = rng.choice(states + [CacheLineState.INVALID])
                if tag in model:
                    if state is CacheLineState.INVALID:
                        del model[tag]
                    else:
                        model[tag] = state
                cache.update_state(addr, state)
            assert list(cache.resident_blocks().items()) == [
                (t * 64, s) for t, s in model.items()
            ]
        assert victims > 50

    def test_insert_all_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            small_cache().insert_all([(0x1000, CacheLineState.INVALID)])

    def test_cannot_insert_invalid_state(self):
        with pytest.raises(ValueError):
            small_cache().insert(0x80, CacheLineState.INVALID)

    def test_statistics(self):
        cache = small_cache()
        assert cache.lookup(0) is None
        cache.insert(0)
        assert cache.lookup(0) == CacheLineState.SHARED

    def test_resident_blocks_roundtrip(self):
        cache = small_cache()
        cache.insert(0x100, CacheLineState.SHARED)
        cache.insert(0x2000, CacheLineState.MODIFIED)
        resident = cache.resident_blocks()
        assert resident[0x100] == CacheLineState.SHARED
        assert resident[0x2000] == CacheLineState.MODIFIED


def resident(array):
    """``array``'s lines in order, read from a copy so its own log stays pending."""
    return list(copy.deepcopy(array).resident_blocks().items())


class TestStripeLog:
    """``insert_stripe`` logs the footprint; each set applies it on first touch."""

    STATES = [CacheLineState.SHARED, CacheLineState.MODIFIED]

    @pytest.mark.parametrize("seed", range(9))
    def test_lazy_install_matches_eager_install(self, seed):
        # Four banks of 16 sets x 4 ways.  The lazy banks take each region's
        # stripes through insert_stripe; the eager model installs the same
        # addresses at once with insert_all.  Preloaded lines, random calls
        # between regions and sets touched between two of their stripes must
        # all leave both sides returning and holding the same, call by call.
        rng = random.Random(seed)
        mapper = AddressMapper(64, num_llc_banks=4)
        config = CacheConfig(16 * 4 * 64, 4, 64)
        lazy = [SetAssociativeCache(config, index_divisor=4) for _ in range(4)]
        eager = [SetAssociativeCache(config, index_divisor=4) for _ in range(4)]
        base = 0x1_0000_0000
        # Unaligned starts.  Small regions leave some sets nothing and others
        # fewer blocks than ways; large ones reach three times the capacity,
        # so their stripes wrap past the last set.
        regions = [
            (
                base + r * (1 << 20) + rng.randrange(64 * 64),
                rng.choice((rng.randrange(1, 160), rng.randrange(160, 800))) * 64 + 5,
            )
            for r in range(1 + seed % 3)
        ]
        pool = [start + rng.randrange(size) for start, size in regions for _ in range(8)]
        pool += [base + (7 << 20) + rng.randrange(64 * 64) for _ in range(8)]

        def check(bank):
            assert resident(lazy[bank]) == list(eager[bank].resident_blocks().items())

        def random_call():
            addr = rng.choice(pool)
            bank = mapper.home_bank(addr)
            op = rng.randrange(6)
            if op == 5:
                lines = [(rng.choice(pool), rng.choice(self.STATES)) for _ in range(6)]
                for bank in range(4):
                    mine = [line for line in lines if mapper.home_bank(line[0]) == bank]
                    lazy[bank].insert_all(mine)
                    eager[bank].insert_all(mine)
                    check(bank)
                return
            if op == 0:
                state = rng.choice(self.STATES)
                assert lazy[bank].insert(addr, state) == eager[bank].insert(addr, state)
            elif op == 1:
                update = rng.random() < 0.5
                assert lazy[bank].lookup(addr, update) == eager[bank].lookup(addr, update)
            elif op == 2:
                assert lazy[bank].probe(addr) == eager[bank].probe(addr)
            elif op == 3:
                assert lazy[bank].invalidate(addr) == eager[bank].invalidate(addr)
            else:
                state = rng.choice(self.STATES + [CacheLineState.INVALID])
                lazy[bank].update_state(addr, state)
                eager[bank].update_state(addr, state)
            check(bank)

        for _ in range(rng.randrange(30)):
            addr = rng.choice(pool)
            bank = mapper.home_bank(addr)
            lazy[bank].insert(addr, CacheLineState.MODIFIED)
            eager[bank].insert(addr, CacheLineState.MODIFIED)
        for start, size in regions:
            state = rng.choice(self.STATES)
            for stripe in mapper.bank_stripes(start, size):
                bank = mapper.home_bank(stripe[0])
                lazy[bank].insert_stripe(stripe, state)
                eager[bank].insert_all(zip(stripe, repeat(state)))
                check(bank)
            # Touch the sets holding each stripe's first and last blocks
            # before the next region's stripes arrive.
            for stripe in mapper.bank_stripes(start, size):
                bank = mapper.home_bank(stripe[0])
                foreign = stripe[0] + (5 << 20)
                assert lazy[bank].insert(foreign, CacheLineState.MODIFIED) == eager[
                    bank
                ].insert(foreign, CacheLineState.MODIFIED)
                assert lazy[bank].invalidate(stripe[-1]) == eager[bank].invalidate(stripe[-1])
                check(bank)
            for _ in range(40):
                random_call()
        if len(regions) > 1:
            # Some set saw the first region's stripe but not yet the last's.
            assert any(
                0 < applied < len(bank._log) for bank in lazy for applied in bank._applied
            )
        for got, want in zip(lazy, eager):
            assert got.occupancy == want.occupancy
            assert list(got.resident_blocks().items()) == list(want.resident_blocks().items())

    def test_fresh_bank_fills_only_the_sets_it_touches(self):
        mapper = AddressMapper(64, num_llc_banks=16)
        bank = SetAssociativeCache(CacheConfig(32 * 2 * 64, 2, 64), index_divisor=16)
        stripe = next(iter(mapper.bank_stripes(0x1_0000_0000, 16 * 200 * 64)))
        bank.insert_stripe(stripe, CacheLineState.SHARED)
        assert not any(bank._sets)
        assert bank.probe(stripe[-1]) is CacheLineState.SHARED
        touched = [index for index, cache_set in enumerate(bank._sets) if cache_set]
        assert touched == [(stripe[-1] >> 6) // 16 % 32]

    def test_warmed_chip_tag_sets_are_not_tracked_by_the_collector(self):
        config = build_system("mesh", num_cores=64, seed=42).with_workload(
            workload("Data Serving")
        )
        chip = Chip(config)
        chip.warmup(RunSettings(seed=42).scaled(0.1).warmup_references)
        arrays = [bank.array for directory in chip.directories.values() for bank in directory.banks]
        arrays += [l1.array for node in chip.core_nodes.values() for l1 in (node.l1i, node.l1d)]
        assert len(arrays) == 64 + 2 * 64
        assert not any(gc.is_tracked(cache_set) for array in arrays for cache_set in array._sets)
        # Applying every logged stripe fills the LLC sets, still untracked.
        assert sum(array.occupancy for array in arrays[:64]) > 0
        assert not any(gc.is_tracked(cache_set) for array in arrays for cache_set in array._sets)


class TestMshrFile:
    def test_allocate_and_release(self):
        mshr = MshrFile(4)
        entry = mshr.allocate(0x100, is_instruction=True, wants_exclusive=False, issue_cycle=5)
        assert mshr.lookup(0x100) is entry
        assert mshr.outstanding == 1
        released = mshr.release(0x100)
        assert released is entry
        assert mshr.outstanding == 0

    def test_merge_accumulates(self):
        mshr = MshrFile(4)
        mshr.allocate(0x100, False, False, 0)
        entry = mshr.merge(0x100, wants_exclusive=True)
        assert entry.merged_accesses == 2
        assert entry.wants_exclusive

    def test_duplicate_allocation_rejected(self):
        mshr = MshrFile(4)
        mshr.allocate(0x100, False, False, 0)
        with pytest.raises(RuntimeError):
            mshr.allocate(0x100, False, False, 0)

    def test_full_file_rejects_new_allocations(self):
        mshr = MshrFile(1)
        mshr.allocate(0x100, False, False, 0)
        assert mshr.full
        with pytest.raises(RuntimeError):
            mshr.allocate(0x200, False, False, 0)

    def test_release_unknown_rejected(self):
        with pytest.raises(KeyError):
            MshrFile(2).release(0x500)


def make_l1(is_instruction=False):
    return L1Cache(
        CacheConfig(32 * 1024, 4, 64), "l1", StatGroup("l1"), is_instruction=is_instruction
    )


class TestL1Cache:
    def test_read_miss_then_fill_then_hit(self):
        l1 = make_l1()
        assert not l1.read(0x1000)
        l1.fill(0x1000, writable=False)
        assert l1.read(0x1000)
        assert l1.read_misses.value == 1
        assert l1.read_hits.value == 1

    def test_write_to_shared_line_needs_upgrade(self):
        l1 = make_l1()
        l1.fill(0x1000, writable=False)
        assert l1.write(0x1000) is False
        assert l1.array.probe(0x1000) == CacheLineState.SHARED  # still resident
        assert l1.write_misses.value == 1
        assert l1.write_hits.value == 0

    def test_write_to_writable_line_hits(self):
        l1 = make_l1()
        l1.fill(0x1000, writable=True)
        assert l1.write(0x1000) is True
        assert l1.write_hits.value == 1
        assert l1.write_misses.value == 0

    def test_instruction_cache_rejects_writes(self):
        with pytest.raises(RuntimeError):
            make_l1(is_instruction=True).write(0x1000)

    def test_instruction_fills_are_never_writable(self):
        l1 = make_l1(is_instruction=True)
        l1.fill(0x1000, writable=True)
        assert l1.array.probe(0x1000) == CacheLineState.SHARED

    def test_miss_rate(self):
        l1 = make_l1()
        l1.read(0x0)
        l1.fill(0x0, writable=False)
        l1.read(0x0)
        assert l1.misses / l1.accesses == pytest.approx(0.5)


class TestLLCBank:
    def test_fill_then_contains(self):
        bank = LLCBank(CacheConfig(512 * 1024, 16, 64), "bank")
        assert not bank.contains(0x1000)
        bank.fill(0x1000)
        assert bank.contains(0x1000)

    def test_bank_occupancy_serializes_accesses(self):
        bank = LLCBank(CacheConfig(512 * 1024, 16, 64, hit_latency=8), "bank")
        first_done = bank.schedule_access(now=0)
        second_done = bank.schedule_access(now=0)
        assert first_done == 8
        assert second_done == 16

    def test_idle_bank_has_no_conflicts(self):
        bank = LLCBank(CacheConfig(512 * 1024, 16, 64, hit_latency=8), "bank")
        bank.schedule_access(now=0)
        assert bank.schedule_access(now=100) == 108

    def test_writeback_installs_block(self):
        bank = LLCBank(CacheConfig(512 * 1024, 16, 64), "bank")
        bank.writeback(0x2000)
        assert bank.probe(0x2000)
