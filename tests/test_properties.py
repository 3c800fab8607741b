"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import geometric_mean, normalize
from repro.cache.address import AddressMapper
from repro.cache.set_assoc import CacheLineState, SetAssociativeCache
from repro.config.cache import CacheConfig
from repro.noc.buffer import VirtualChannelBuffer
from repro.noc.arbiter import ArbitrationCandidate, RoundRobinArbiter, StaticPriorityArbiter
from repro.noc.message import Message, MessageClass, Packet

from tests._fixtures import private_region

addresses = st.integers(min_value=0, max_value=2**40)


@given(st.lists(addresses, min_size=1, max_size=200))
def test_cache_occupancy_never_exceeds_capacity(addrs):
    cache = SetAssociativeCache(CacheConfig(4 * 1024, 4, 64), "prop")
    for addr in addrs:
        cache.insert(addr, CacheLineState.SHARED)
        assert cache.occupancy <= cache.capacity_blocks


@given(st.lists(addresses, min_size=1, max_size=100))
def test_most_recent_insert_always_hits(addrs):
    cache = SetAssociativeCache(CacheConfig(4 * 1024, 4, 64), "prop")
    for addr in addrs:
        cache.insert(addr, CacheLineState.SHARED)
        assert cache.probe(addr) is not None


@given(addresses, st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=8))
def test_home_bank_is_stable_and_in_range(addr, banks, channels):
    mapper = AddressMapper(64, num_llc_banks=banks, num_memory_channels=channels)
    bank = mapper.home_bank(addr)
    assert 0 <= bank < banks
    assert mapper.home_bank(addr) == bank
    assert 0 <= mapper.memory_channel(addr) < channels
    assert mapper.block_address(addr) % 64 == 0
    assert mapper.home_bank(mapper.block_address(addr)) == bank


@given(st.integers(min_value=1, max_value=4096), st.integers(min_value=8, max_value=512))
def test_packet_flit_count_covers_message(size_bits, width):
    message = Message(src=0, dst=1, msg_class=MessageClass.REQUEST, size_bits=size_bits)
    packet = Packet(message, width)
    assert packet.num_flits >= 1
    assert packet.num_flits * width >= size_bits
    assert (packet.num_flits - 1) * width < size_bits


@given(
    st.lists(
        st.tuples(st.sampled_from(["reserve", "pop"]), st.integers(min_value=1, max_value=6)),
        max_size=60,
    )
)
def test_vc_buffer_never_overflows_or_underflows(operations):
    vc = VirtualChannelBuffer(capacity_flits=8)
    for op, flits in operations:
        if op == "reserve":
            if vc.can_reserve(flits):
                vc.reserve(flits)
                packet = Packet(
                    Message(src=0, dst=1, msg_class=MessageClass.REQUEST, size_bits=flits * 128),
                    128,
                )
                vc.push(packet)
        else:
            if not vc.empty:
                vc.pop()
        assert 0 <= vc.occupancy_flits
        assert vc.reserved_flits >= vc.occupancy_flits - 8


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=10, unique=True))
def test_round_robin_arbiter_always_picks_a_candidate(ports):
    arbiter = RoundRobinArbiter()
    candidates = []
    for port in ports:
        packet = Packet(
            Message(src=0, dst=1, msg_class=MessageClass.REQUEST, size_bits=128), 128
        )
        candidates.append(
            ArbitrationCandidate(in_port=port, vc_index=0, buffer=None, packet=packet)
        )
    for _ in range(5):
        winner = arbiter.choose(candidates)
        assert winner in candidates


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(MessageClass)),
            st.booleans(),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_static_priority_never_prefers_request_over_response(entries):
    arbiter = StaticPriorityArbiter()
    candidates = []
    for index, (msg_class, is_local, port) in enumerate(entries):
        packet = Packet(
            Message(src=0, dst=1, msg_class=msg_class, size_bits=128), 128
        )
        candidates.append(
            ArbitrationCandidate(
                in_port=port, vc_index=index, buffer=None, packet=packet, is_local=is_local
            )
        )
    winner = arbiter.choose(candidates)
    has_response = any(c.packet.msg_class == MessageClass.RESPONSE for c in candidates)
    if has_response:
        assert winner.packet.msg_class == MessageClass.RESPONSE


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20))
def test_geometric_mean_bounded_by_extremes(values):
    mean = geometric_mean(values)
    assert min(values) <= mean * 1.0000001
    assert mean <= max(values) * 1.0000001


@given(
    st.dictionaries(
        st.sampled_from(["mesh", "fbfly", "nocout", "ideal"]),
        st.floats(min_value=0.1, max_value=10.0),
        min_size=1,
    )
)
def test_normalize_sets_baseline_to_one(values):
    baseline = sorted(values)[0]
    normalised = normalize(values, baseline)
    assert normalised[baseline] == 1.0
    for key, value in values.items():
        assert normalised[key] * values[baseline] == value or abs(
            normalised[key] * values[baseline] - value
        ) < 1e-9


@settings(max_examples=25)
@given(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=2**30),
)
def test_workload_stream_respects_regions(core_id, seed):
    from repro.config.workload import WorkloadConfig
    from repro.workloads.base import SyntheticWorkloadStream

    config = WorkloadConfig(name="prop", instruction_footprint_bytes=1024 * 1024)
    stream = SyntheticWorkloadStream(config, core_id, 64, seed=seed)
    instr_base, instr_size = stream.instruction_region
    private_base, private_size = private_region(config, core_id, 64)
    shared_base, shared_size = stream.shared_region
    for _ in range(20):
        block = stream.next_block()
        assert instr_base <= block.iaddr < instr_base + instr_size
        for addr, _w in block.data_accesses:
            assert (
                private_base <= addr < private_base + private_size
                or shared_base <= addr < shared_base + shared_size
            )
