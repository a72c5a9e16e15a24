"""The subscription layer: range subscriptions and insert notifications.

A peer subscribes to a key range; the subscription is installed at every
peer *owning* part of that range (the natural home: the owner is the
first to know when a key lands in its slice).  Installation runs the
§IV-B range search's own interval walk — route to the owner of the
range's low end, then walk right adjacents — one counted ``SUBSCRIBE``
message per hop.  From then on, an insert into a subscribed slice pushes
one ``NOTIFY`` hop per matching subscription from the owner to the
subscriber, stamped with a fresh dissemination id so a duplicated hop is
applied once (:mod:`repro.pubsub.state`).

Subscription tables are *owner state tied to the range, not the peer*:
every restructure that moves keys must move the overlapping subscription
entries with them, or notifications silently stop after a leave or a load
balance.  :func:`transfer_subscriptions` is that hook — the one key
hand-over (:func:`repro.core.data.hand_over`) calls it alongside the key
movement, and the entries ride the handover's one hop (DESIGN.md,
"Dissemination contract").  Crash *loses* the owner's entries like it
loses its keys: subscriptions are soft state, and durability for them is
out of scope (re-subscribe is the recovery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING, Tuple

from repro.core.peer import BatonPeer
from repro.core.ranges import Range
from repro.core.search import interval_walk_steps, walk_steps
from repro.net.address import Address
from repro.net.message import MsgType
from repro.pubsub.state import apply_delivery
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork
    from repro.net.bus import Trace


@dataclass(frozen=True)
class Subscription:
    """One standing range subscription, as stored at each range owner."""

    sub_id: int
    subscriber: Address
    range: Range


@dataclass
class SubscribeResult:
    """Where a subscription landed; what installing it cost is on ``trace``."""

    sub_id: int
    subscriber: Address
    range: Range
    #: Owners holding the entry after the walk, in key order.
    owners: Tuple[Address, ...]
    #: False when a dead adjacent, a vanished carrier or a degraded route
    #: cut the walk short — some owners lack the entry until re-subscribed.
    complete: bool
    trace: Optional["Trace"] = None


def install_subscription(peer: BatonPeer, sub: Subscription) -> bool:
    """Record ``sub`` in ``peer``'s table; False if already present.

    The table is lazily allocated so peers outside any subscribed range
    carry ``None`` and cost nothing.
    """
    table = peer.subscriptions
    if table is None:
        table = peer.subscriptions = {}
    if sub.sub_id in table:
        return False
    table[sub.sub_id] = sub
    return True


def subscribe_steps(
    net: "BatonNetwork",
    subscriber: Address,
    low: int,
    high: int,
    *,
    degraded=None,
    trace: Optional["Trace"] = None,
):
    """Install a subscription for ``[low, high)`` at every range owner.

    Routes to the owner of ``low`` on the bare walk, then installs the
    entry at each overlapping owner range search's interval walk
    (:func:`repro.core.search.interval_walk_steps`) stands on."""
    if low >= high:
        raise ValueError(f"empty subscription range [{low}, {high})")
    state = net.pubsub
    sub = Subscription(state.new_subscription_id(), subscriber, Range(low, high))
    anchor, _ = yield from walk_steps(
        net, subscriber, low, MsgType.SUBSCRIBE, degraded
    )
    owners: List[Address] = []

    def visit(peer: BatonPeer) -> None:
        if peer.range.overlaps(sub.range):
            state.subscriptions_installed += install_subscription(peer, sub)
            owners.append(peer.address)

    complete = yield from interval_walk_steps(
        net, anchor, low, high, MsgType.SUBSCRIBE, visit
    )
    return SubscribeResult(
        sub_id=sub.sub_id,
        subscriber=subscriber,
        range=sub.range,
        owners=tuple(owners),
        complete=complete,
        trace=trace,
    )


def notify_steps(net: "BatonNetwork", owner: BatonPeer, key: int):
    """Push notifications for an insert of ``key`` at ``owner``.

    One ``NOTIFY`` hop per matching subscription, each stamped with
    its own dissemination id and applied at the subscriber exactly once.
    A subscriber that died is paid for (the send is counted before the
    bus raises) and its entry pruned — soft state, like the subscription
    tables themselves.  Returns the number of notifications delivered.
    """
    table = owner.subscriptions
    if not table:
        return 0
    state = net.pubsub
    sent = 0
    for sub in list(table.values()):
        if not sub.range.contains(key):
            continue
        message_id = state.new_message_id()
        try:
            net.bus.send(owner.address, sub.subscriber, MsgType.NOTIFY)
        except PeerNotFoundError:
            del table[sub.sub_id]
            continue
        yield Hop(owner.address, sub.subscriber)
        subscriber = net.peers.get(sub.subscriber)
        if subscriber is not None:
            apply_delivery(state, subscriber, message_id)
        state.notifications += 1
        sent += 1
    return sent


def transfer_subscriptions(
    net: "BatonNetwork", source: BatonPeer, target: BatonPeer
) -> int:
    """Re-home subscription entries after keys moved from source to target.

    Called by the key hand-over (:func:`repro.core.data.hand_over`)
    *after* the ranges have been updated: every source entry overlapping
    the target's new range is copied over (an entry spanning both ranges
    legitimately lives at both owners), and entries that no longer overlap
    the source's own range are dropped from it.  Returns the number of
    entries newly installed at the target (``subscription_moves``).
    """
    table = source.subscriptions
    if not table:
        return 0
    moved = 0
    for sub in list(table.values()):
        if sub.range.overlaps(target.range):
            if install_subscription(target, sub):
                moved += 1
        if not sub.range.overlaps(source.range):
            del table[sub.sub_id]
    net.pubsub.subscription_moves += moved
    return moved
