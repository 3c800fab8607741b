"""Unit tests for virtual-channel buffers and input ports."""

import pytest

from repro.config.noc import NocConfig, Topology
from repro.config.system import SystemConfig
from repro.core.reduction_tree import tree_input_port
from repro.noc.buffer import InputPort, VirtualChannelBuffer, unbounded_input_port
from repro.noc.mesh import MeshNetwork
from repro.noc.message import Message, MessageClass, flit_count
from repro.sim.kernel import Simulator
from repro.workloads.traffic import UniformRandomTrafficGenerator


def make_packet(flits=1, msg_class=MessageClass.REQUEST):
    message = Message(src=0, dst=1, msg_class=msg_class, size_bits=flits * 128)
    message.num_flits = flit_count(message.size_bits, link_width_bits=128)
    return message


class TestVirtualChannelBuffer:
    def test_reserve_then_push_then_pop(self):
        vc = VirtualChannelBuffer(capacity_flits=5)
        packet = make_packet(3)
        assert vc.can_reserve(3)
        vc.reserve(3)
        vc.push(packet)
        assert vc.occupancy_flits == 3
        assert vc.peek() is packet
        assert vc.pop() is packet
        assert vc.occupancy_flits == 0
        assert vc.reserved_flits == 0

    def test_cannot_overflow_capacity(self):
        vc = VirtualChannelBuffer(capacity_flits=5)
        vc.reserve(4)
        assert not vc.can_reserve(2)
        with pytest.raises(RuntimeError):
            vc.reserve(2)

    def test_oversized_packet_allowed_only_when_empty(self):
        vc = VirtualChannelBuffer(capacity_flits=3)
        assert vc.can_reserve(5)  # empty VC admits an oversized packet
        vc.reserve(5)
        assert not vc.can_reserve(1)

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeError):
            VirtualChannelBuffer(3).pop()

    def test_errors_name_the_port_and_vc(self):
        port = InputPort(num_vcs=3, vc_depth_flits=5, name="r7.in.N")
        with pytest.raises(RuntimeError, match=r"^r7\.in\.N\.vc2: pop from empty VC$"):
            port.vcs[2].pop()
        port.vcs[1].reserve(5)
        with pytest.raises(RuntimeError, match=r"^r7\.in\.N\.vc1: reservation overflow"):
            port.vcs[1].reserve(1)

    def test_fifo_order(self):
        vc = VirtualChannelBuffer(capacity_flits=10)
        first, second = make_packet(1), make_packet(1)
        vc.reserve(1)
        vc.push(first)
        vc.reserve(1)
        vc.push(second)
        assert vc.pop() is first
        assert vc.pop() is second

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            VirtualChannelBuffer(0)

    def test_reserve_accounts_before_arrival(self):
        vc = VirtualChannelBuffer(capacity_flits=5)
        vc.reserve(5)
        assert len(vc) == 0  # reserved but nothing buffered yet
        assert not vc.can_reserve(1)


class TestSpaceWaiters:
    def _full_vc(self, flits=5):
        vc = VirtualChannelBuffer(capacity_flits=flits)
        packet = make_packet(flits)
        vc.reserve(flits)
        vc.push(packet)
        return vc

    def test_listener_dict_exists_only_while_someone_waits(self):
        vc = self._full_vc()
        assert vc._space_waiters is None
        vc.wait_for_space(lambda: None)
        assert vc._space_waiters is not None
        vc.pop()
        assert vc._space_waiters is None

    def test_order_deduplication_and_one_shot_together(self):
        vc = VirtualChannelBuffer(capacity_flits=10)
        for _ in range(2):
            vc.reserve(5)
            vc.push(make_packet(5))
        fired = []

        def first():
            fired.append("first")

        def second():
            fired.append("second")

        vc.wait_for_space(first)
        vc.wait_for_space(second)
        vc.wait_for_space(first)  # already registered: keeps its place
        vc.pop()
        assert fired == ["first", "second"]
        vc.pop()
        assert fired == ["first", "second"]

    def test_waiter_fires_once_on_pop(self):
        vc = self._full_vc()
        fired = []
        vc.wait_for_space(lambda: fired.append(1))
        assert fired == []
        vc.pop()
        assert fired == [1]

    def test_waiter_is_one_shot(self):
        vc = VirtualChannelBuffer(capacity_flits=10)
        for _ in range(2):
            vc.reserve(5)
            vc.push(make_packet(5))
        fired = []
        vc.wait_for_space(lambda: fired.append(1))
        vc.pop()
        vc.pop()
        assert fired == [1]  # the second pop has no registered waiter left

    def test_waiters_are_deduplicated(self):
        vc = self._full_vc()
        fired = []

        def waiter():
            fired.append(1)

        vc.wait_for_space(waiter)
        vc.wait_for_space(waiter)
        vc.pop()
        assert fired == [1]

    def test_multiple_distinct_waiters_fire_in_registration_order(self):
        vc = self._full_vc()
        fired = []
        vc.wait_for_space(lambda: fired.append("a"))
        vc.wait_for_space(lambda: fired.append("b"))
        vc.pop()
        assert fired == ["a", "b"]

    def test_waiter_may_rearm_during_notification(self):
        vc = VirtualChannelBuffer(capacity_flits=10)
        for _ in range(2):
            vc.reserve(5)
            vc.push(make_packet(5))
        fired = []

        def waiter():
            fired.append(len(fired))
            vc.wait_for_space(waiter)  # still blocked: re-register

        vc.wait_for_space(waiter)
        vc.pop()
        vc.pop()
        assert fired == [0, 1]


class TestInputPort:
    def test_default_vc_map_assigns_one_vc_per_class(self):
        port = InputPort(num_vcs=3, vc_depth_flits=5)
        assert port.vc_index_for(MessageClass.REQUEST) == 0
        assert port.vc_index_for(MessageClass.SNOOP) == 1
        assert port.vc_index_for(MessageClass.RESPONSE) == 2

    def test_two_vc_port_shares_a_vc(self):
        port = InputPort(
            num_vcs=2,
            vc_depth_flits=3,
            vc_map={MessageClass.REQUEST: 0, MessageClass.SNOOP: 0, MessageClass.RESPONSE: 1},
        )
        assert port.vc_index_for(MessageClass.REQUEST) == port.vc_index_for(MessageClass.SNOOP)
        assert port.vc_index_for(MessageClass.RESPONSE) == 1

    def test_vc_for_returns_matching_buffer(self):
        port = InputPort(num_vcs=3, vc_depth_flits=5)
        assert port.vc_for(MessageClass.RESPONSE) is port.vcs[2]

    def test_occupancy_and_empty(self):
        port = InputPort(num_vcs=2, vc_depth_flits=5)
        assert all(len(vc) == 0 for vc in port.vcs)
        assert port.occupancy_flits == 0
        packet = make_packet(2)
        vc = port.vc_for(MessageClass.REQUEST)
        vc.reserve(2)
        vc.push(packet)
        assert not all(len(vc) == 0 for vc in port.vcs)
        assert port.occupancy_flits == 2

    def test_invalid_vc_map_rejected(self):
        with pytest.raises(ValueError):
            InputPort(num_vcs=2, vc_depth_flits=3, vc_map={MessageClass.REQUEST: 5})
        with pytest.raises(ValueError, match="out of range"):
            InputPort(num_vcs=2, vc_depth_flits=3, vc_map={MessageClass.SNOOP: -1})

    def test_default_map_is_one_shared_object_per_vc_count(self):
        three = [InputPort(num_vcs=3, vc_depth_flits=5, name=f"p{i}") for i in range(3)]
        assert all(port._vc_map is three[0]._vc_map for port in three)
        two = InputPort(num_vcs=2, vc_depth_flits=5)
        assert two._vc_map is not three[0]._vc_map
        assert two.vc_index_for(MessageClass.RESPONSE) == 1

    def test_tree_ports_share_one_map(self):
        config = SystemConfig(num_cores=64, noc=NocConfig(topology=Topology.NOC_OUT))
        first, second = tree_input_port(config, "a"), tree_input_port(config, "b")
        assert first._vc_map is second._vc_map
        assert first.vc_index_for(MessageClass.SNOOP) == 0
        assert first.vc_index_for(MessageClass.RESPONSE) == 1

    def test_invalid_num_vcs_rejected(self):
        with pytest.raises(ValueError):
            InputPort(num_vcs=0, vc_depth_flits=3)

    def test_unbounded_port_never_backpressures(self):
        port = unbounded_input_port()
        vc = port.vc_for(MessageClass.RESPONSE)
        assert vc.can_reserve(10_000)


def test_router_vcs_never_hold_more_packets_than_their_capacity(monkeypatch):
    """The list queue's cheap head removal relies on short router queues.

    Reservation admits a packet only while the reserved flits fit, or into
    an empty VC, so a router VC's packets fit its flit slots (or it holds
    one oversized packet) and it never holds more packets than it has
    slots.  Checked after every push of an 8x8 mesh driven past saturation.
    """
    longest = {}
    overfull = []
    push = VirtualChannelBuffer.push

    def checked_push(vc, packet):
        push(vc, packet)
        longest[vc] = max(longest.get(vc, 0), len(vc))
        if vc.occupancy_flits > vc.capacity_flits and len(vc) > 1:
            overfull.append(vc.name)

    monkeypatch.setattr(VirtualChannelBuffer, "push", checked_push)
    sim = Simulator(seed=3)
    config = SystemConfig(
        num_cores=64, noc=NocConfig(topology=Topology.MESH, link_width_bits=64), seed=3
    )
    coords = {i: (i % 8, i // 8) for i in range(64)}
    network = MeshNetwork(sim, config, coords)
    generator = UniformRandomTrafficGenerator(sim, network, list(coords), 0.25, seed=5)
    generator.start()
    sim.run(3_000)

    # Past saturation: packets wait to enter, and router VCs queue.
    assert sum(ni.injection_backlog for ni in network.interfaces.values()) > 1_000
    router_vcs = [
        vc for router in network.routers for port in router.input_ports for vc in port.vcs
    ]
    assert max(longest.get(vc, 0) for vc in router_vcs) >= 2
    assert overfull == []
    for vc in router_vcs:
        assert longest.get(vc, 0) <= vc.capacity_flits, vc.name
    # An ejection VC is popped as soon as it is pushed.
    eject_vcs = [vc for ni in network.interfaces.values() for vc in ni.input_ports[0].vcs]
    assert max(longest.get(vc, 0) for vc in eject_vcs) == 1
