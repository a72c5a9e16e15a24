"""Data operations: insert and delete (§IV-C).

Both ride the exact-match routing; an insert that falls outside the covered
domain reaches the leftmost (or rightmost) peer, which expands its range to
cover the new key and spends an extra O(log N) round of routing-table
updates — the special case called out in §IV-C.  Inserts may then trigger
load balancing (§IV-D) at the receiving peer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import balance as balance_protocol
from repro.core import replication
from repro.core import search as search_protocol
from repro.core.results import DataOpResult
from repro.net.address import Address
from repro.net.message import MsgType
from repro.util.errors import ProtocolError
from repro.util.stepper import MessageSteps, drive

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def insert(net: "BatonNetwork", start: Address, key: int) -> DataOpResult:
    """Route ``key`` to its owner and store it there."""
    with net.open_trace("insert") as trace:
        owner, _ = drive(search_protocol.route_steps(net, start, key, MsgType.INSERT))
        drive(apply_steps(net, owner, key, MsgType.INSERT))
    result = DataOpResult(applied=True, owner=owner, trace=trace)
    return balance_after_insert(net, result)


def delete(net: "BatonNetwork", start: Address, key: int) -> DataOpResult:
    """Route to the owner of ``key`` and remove one occurrence of it."""
    with net.open_trace("delete") as trace:
        owner, _ = drive(search_protocol.route_steps(net, start, key, MsgType.DELETE))
        applied = drive(apply_steps(net, owner, key, MsgType.DELETE))
    return DataOpResult(applied=applied, owner=owner, trace=trace)


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
            yield from replication.replicate_insert_steps(net, owner, key)
        if owner.subscriptions:
            from repro.pubsub.subscribe import notify_steps

            yield from notify_steps(net, owner, key)
        return True
    applied = owner.store.delete(key)
    if applied and net.config.replication:
        yield from replication.replicate_delete_steps(net, owner, key)
    return applied


def balance_after_insert(net: "BatonNetwork", result: DataOpResult) -> DataOpResult:
    """Run §IV-D balancing at the insert's owner; fold the cost into ``result``.

    (The owner can vanish during an async replicate hop; ``maybe_balance``
    skips a dead peer — it has no load left to balance.)
    """
    outcome = balance_protocol.maybe_balance(net, result.owner)
    if outcome is not None:
        result.balance_trace = outcome.trace
        result.balance_moves = outcome.shift_size
    return result


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
