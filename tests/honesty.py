"""The honesty audit: every state change is paid for by a message.

DESIGN.md's Honesty rules say every inter-node hop is one counted
``MessageBus.send``.  :func:`audit` checks the count half of that over one
synchronous operation: it records the receiver of every message the op
sends, digests every peer before and after, and reports each peer that
existed before the op and changed although no counted message reached
it — an *unpaid write*.  A peer the op creates is its subject.

The op's entry peer counts as reached: the client leg that hands it the
operation (a join's contact, an insert's entry point, a repair's
coordinator) is not on the bus.

Mirrors (the replication extension's ``replicas`` and ``replica_anchor``)
are held to a stricter rule: a mirror is written (a new entry, an entry's
keys changed, a new anchor) only at a peer that sent or received a
``REPLICATE`` or a key hand-over's transfer, whose mirrors ride it.
Dropping them (a departing peer's) falls under the plain rule above.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.core.links import RoutingTable
from repro.core.storage import LocalStore
from repro.net.address import Address
from repro.net.message import MsgType

#: What may carry a mirror edit: a write-through, refresh or hand-over
#: ``REPLICATE``, or a key hand-over's transfer.
MIRROR_CARRIERS = {
    MsgType.REPLICATE, MsgType.JOIN_TRANSFER, MsgType.LEAVE_TRANSFER,
    MsgType.BALANCE, MsgType.RESPONSE,
}


def digest(peer) -> tuple:
    """Everything a peer holds, with its store reduced to a size."""
    names = getattr(type(peer), "__slots__", None) or sorted(vars(peer))
    return tuple(_value(getattr(peer, name)) for name in names)


def _value(value):
    if isinstance(value, LocalStore):
        return len(value)
    if isinstance(value, RoutingTable):
        return tuple(value.entries)
    return repr(value)


def _mirrors(peer) -> dict:
    """A peer's mirrors (owner -> sorted keys) and where its own lives."""
    held = {owner: tuple(sorted(keys)) for owner, keys in getattr(peer, "replicas", {}).items()}
    anchor = getattr(peer, "replica_anchor", None)
    return held if anchor is None else {**held, "anchor": anchor}


@contextmanager
def audit(net, entry: Optional[Address] = None) -> Iterator[List[Address]]:
    """Audit the synchronous op run inside the ``with`` block: the list it
    yields holds the op's unpaid writes once the block exits."""
    before = {address: digest(peer) for address, peer in net.peers.items()}
    mirrors = {a: _mirrors(p) for a, p in net.peers.items()}
    reached = {entry}
    carried = {entry}
    send = net.bus.send

    def recording(src, dst, mtype):
        reached.add(dst)
        if mtype in MIRROR_CARRIERS:
            carried.update((src, dst))
        return send(src, dst, mtype)

    net.bus.send = recording
    unpaid: List[Address] = []
    try:
        yield unpaid
    finally:
        del net.bus.send
    unpaid.extend(
        sorted(
            address
            for address, peer in net.peers.items()
            if address in before
            and (
                (address not in reached and before[address] != digest(peer))
                or (address not in carried and _mirrors(peer).items() - mirrors[address].items())
            )
        )
    )


def unpaid_writes(net, op: Callable[[], object], entry=None) -> List[Address]:
    """The unpaid writes of ``op()``, one synchronous op entered at ``entry``."""
    with audit(net, entry) as unpaid:
        op()
    return unpaid
