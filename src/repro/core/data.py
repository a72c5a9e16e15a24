"""Data operations: insert and delete (§IV-C).

Both ride the exact-match routing; an insert that falls outside the covered
domain reaches the leftmost (or rightmost) peer, which expands its range to
cover the new key and spends an extra O(log N) round of routing-table
updates — the special case called out in §IV-C.  Inserts may then trigger
load balancing (§IV-D) at the receiving peer.  Every key that changes
owner moves through :func:`hand_over`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.core import balance as balance_protocol
from repro.core import replication
from repro.core import search as search_protocol
from repro.core.peer import BatonPeer
from repro.core.ranges import Range
from repro.core.results import DataOpResult
from repro.net.address import Address
from repro.net.bus import Trace
from repro.net.message import MsgType
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError, ProtocolError
from repro.util.stepper import MessageSteps

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def data_op_steps(
    net: "BatonNetwork",
    start: Address,
    key: int,
    mtype: MsgType,
    trace: Trace,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """The insert or delete both facades run; returns a :class:`DataOpResult`.

    Routes to ``key``'s owner and applies the write there
    (:func:`apply_steps`).  An insert then runs §IV-D balancing at the
    owner; its result's ``trace`` is cut before that (``Trace.frozen``),
    so the balancing cost is reported once, in ``balance_trace``, although
    the op's own trace saw it too — every episode's, including one whose
    probes found nothing to move.  (The owner can vanish during an async
    replicate hop; ``maybe_balance`` skips a dead peer — it has no load
    left to balance.)
    """
    owner, _ = yield from search_protocol.route_steps(
        net, start, key, mtype, degraded
    )
    applied = yield from apply_steps(net, owner, key, mtype)
    if mtype is not MsgType.INSERT:
        return DataOpResult(applied=applied, owner=owner, trace=trace)
    result = DataOpResult(
        applied=applied, owner=owner, trace=trace.frozen("insert")
    )
    outcome = balance_protocol.maybe_balance(net, owner)
    if outcome is not None:
        result.balance_trace = outcome.trace
        result.balance_moves = outcome.shift_size
    return result


def apply_steps(
    net: "BatonNetwork", owner_address: Address, key: int, mtype: MsgType
) -> MessageSteps:
    """Apply a routed ``INSERT``/``DELETE`` at its owner; returns ``applied``.

    The post-routing half of §IV-C: an insert beyond the covered domain
    first expands the extreme peer's range, then the key is stored (or one
    occurrence removed).  With replication on, the write-through to the
    mirror is a hop of its own — the operation completes only once the
    replica is confirmed — and an insert into a subscribed slice pushes
    one ``NOTIFY`` hop per matching subscription.
    """
    owner = net.peer(owner_address)
    if mtype is MsgType.INSERT:
        if not owner.range.contains(key):
            expand_extreme_range(net, owner, key)
        owner.store.insert(key)
        if net.config.replication:
            yield from replication.write_through_steps(net, owner, key, True)
        if owner.subscriptions:
            from repro.pubsub.subscribe import notify_steps

            yield from notify_steps(net, owner, key)
        return True
    applied = owner.store.delete(key)
    if applied and net.config.replication:
        yield from replication.write_through_steps(net, owner, key, False)
    return applied


def hand_over(
    net: "BatonNetwork", src: BatonPeer, dst: BatonPeer, keys: Sequence[int],
    mtype: MsgType, *, range_: Optional[Range] = None,
    sender: Optional[Address] = None, departing: bool = False,
) -> List[Hop]:
    """Move ``keys`` from ``src``'s store to ``dst``'s: the one way a key
    changes owner (join split, forced join, leave, transplant, shift and
    the repair's restore).

    One counted ``mtype`` transfer from ``sender`` (``src`` unless a
    repair's coordinator or a mirror's holder speaks for it; none to
    itself); a ghost ``dst`` inside a repair is paid for and carries the
    content into its own repair.  Then ``range_`` merges into ``dst``'s,
    the keys land in its store, the subscription entries covering them
    follow (a table ``dst`` already shares needs none) and, with
    replication on, so do the mirrors (``departing``: ``src`` leaves).
    Returns the ``REPLICATE`` hops of that mirror upkeep
    (:func:`repro.core.replication.follow_hand_over`).
    """
    sender = src.address if sender is None else sender
    if sender != dst.address:
        try:
            net.bus.send(sender, dst.address, mtype)
        except PeerNotFoundError:
            pass
    if range_ is not None:
        dst.range = dst.range.merge(range_)
    dst.store.extend(keys)
    if src.subscriptions and src.subscriptions is not dst.subscriptions:
        from repro.pubsub.subscribe import transfer_subscriptions

        transfer_subscriptions(net, src, dst)
    if not net.config.replication:
        return []
    return replication.follow_hand_over(net, src, dst, keys, sender, departing)


def expand_extreme_range(net: "BatonNetwork", owner, key: int) -> None:
    """Extreme-node range expansion for out-of-domain inserts.

    Only the leftmost peer (no left adjacent) may grow downward and only the
    rightmost (no right adjacent) upward; anything else reaching here means
    routing failed and we must not paper over it.
    """
    if key < owner.range.low and owner.left_adjacent is None:
        owner.range = owner.range.extend_to_include(key)
    elif key >= owner.range.high and owner.right_adjacent is None:
        owner.range = owner.range.extend_to_include(key)
    else:
        raise ProtocolError(
            f"insert of {key} routed to non-covering peer {owner.position} "
            f"{owner.range}"
        )
    # "It takes an additional log N step for updating its routing tables."
    net.broadcast_update(owner)
