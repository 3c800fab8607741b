"""Arbitration policies for router output ports.

Two policies are used in the paper's designs:

* conventional routers (mesh, flattened butterfly, LLC network) use
  round-robin arbitration among the competing input VCs;
* the NOC-Out reduction/dispersion tree nodes use *static priority*
  arbitration, preferring network traffic over the local port and
  responses over requests (Section 4.1).

A policy is a function ``(candidates, last_winner) -> winner``.  A
candidate is one input VC competing for the output port this round (the
router's per-VC state): it carries ``key == (in_port, vc_index)``, its head
``packet`` and ``is_local``.  ``candidates`` is never empty, and
``last_winner`` is the key of the port's previous winner (``None`` before
the first), which the router records after every round.
"""

from __future__ import annotations

from operator import attrgetter

from repro.noc.message import MessageClass

_key = attrgetter("key")


def round_robin(candidates, last_winner):
    """The first candidate after ``last_winner`` in key order, wrapping."""
    if last_winner is not None:
        after = [c for c in candidates if c.key > last_winner]
        if after:
            return min(after, key=_key)
    return min(candidates, key=_key)


#: Static-priority class rank (lower wins).  Snoop requests share the
#: priority level of requests.
_CLASS_RANK = {
    MessageClass.RESPONSE: 0,
    MessageClass.SNOOP: 1,
    MessageClass.REQUEST: 1,
}


def static_priority(candidates, last_winner):
    """Network responses, local responses, network requests, local requests.

    Ties within a level go to the lowest key; ``last_winner`` is unused.
    """
    return min(
        candidates,
        key=lambda c: (_CLASS_RANK[c.packet.msg_class], c.is_local, c.key),
    )
