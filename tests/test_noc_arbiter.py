"""Unit tests for the round-robin and static-priority arbitration policies."""

from types import SimpleNamespace

from repro.noc.arbiter import round_robin, static_priority
from repro.noc.message import Message, MessageClass


def candidate(in_port, vc_index, msg_class=MessageClass.REQUEST, is_local=False):
    """The attributes a router's per-VC state offers for arbitration."""
    packet = Message(src=0, dst=1, msg_class=msg_class, size_bits=128)
    return SimpleNamespace(key=(in_port, vc_index), packet=packet, is_local=is_local)


def rounds(policy, candidates, count):
    """Winners of ``count`` rounds, each recorded as the next rotation point."""
    winners, last_winner = [], None
    for _ in range(count):
        winner = policy(candidates, last_winner)
        winners.append(winner)
        last_winner = winner.key
    return winners


class TestRoundRobin:
    def test_single_candidate_wins(self):
        only = candidate(0, 0)
        assert round_robin([only], None) is only
        assert round_robin([only], (3, 0)) is only

    def test_rotates_across_calls(self):
        a, b, c = candidate(0, 0), candidate(1, 0), candidate(2, 0)
        winners = rounds(round_robin, [a, b, c], 4)
        assert [w.key[0] for w in winners] == [0, 1, 2, 0]

    def test_skips_missing_candidates(self):
        a, c = candidate(0, 0), candidate(2, 0)
        assert rounds(round_robin, [a, c], 3) == [a, c, a]

    def test_order_is_by_key_not_by_position(self):
        a, b, c = candidate(0, 1), candidate(1, 0), candidate(1, 2)
        assert round_robin([c, b, a], None) is a
        assert round_robin([c, b, a], (1, 0)) is c
        assert round_robin([c, b, a], (1, 2)) is a


class TestStaticPriority:
    def test_responses_beat_requests(self):
        request = candidate(0, 0, MessageClass.REQUEST)
        response = candidate(1, 1, MessageClass.RESPONSE)
        assert static_priority([request, response], None) is response

    def test_network_beats_local_within_class(self):
        local = candidate(0, 0, MessageClass.REQUEST, is_local=True)
        network = candidate(1, 0, MessageClass.REQUEST, is_local=False)
        assert static_priority([local, network], None) is network

    def test_paper_priority_order(self):
        # Highest to lowest: network responses, local responses,
        # network requests, local requests (Section 4.1).
        network_response = candidate(1, 1, MessageClass.RESPONSE, is_local=False)
        local_response = candidate(0, 1, MessageClass.RESPONSE, is_local=True)
        network_request = candidate(1, 0, MessageClass.REQUEST, is_local=False)
        local_request = candidate(0, 0, MessageClass.REQUEST, is_local=True)
        pool = [local_request, network_request, local_response, network_response]
        assert static_priority(pool, None) is network_response
        pool.remove(network_response)
        assert static_priority(pool, (1, 1)) is local_response
        pool.remove(local_response)
        assert static_priority(pool, (0, 1)) is network_request
        pool.remove(network_request)
        assert static_priority(pool, (1, 0)) is local_request

    def test_snoops_share_request_priority(self):
        snoop = candidate(1, 0, MessageClass.SNOOP)
        response = candidate(0, 1, MessageClass.RESPONSE)
        assert static_priority([snoop, response], None) is response
        request = candidate(0, 0, MessageClass.REQUEST)
        assert static_priority([snoop, request], None) is request
