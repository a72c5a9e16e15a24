"""Node failure and repair (§III-C).

A failed peer simply stops answering: senders pay for the undelivered
message and route around it (see :mod:`repro.core.search`).  Repair is
coordinated by the failed node's parent (with §III-D fallbacks to adjacents
or children when the parent is gone too).  The coordinator regenerates the
missing routing state by contacting the children of the nodes in *its own*
routing tables — Theorem 2: the failed child's sideways neighbours are
exactly those children — and then makes the failed node leave as if it had
left gracefully, running :mod:`repro.core.leave`'s own code on its behalf:
a dead leaf that may depart simply goes through ``depart_leaf``, any other
dead node gets Algorithm 2's replacement (``descend_steps``, the
replacement's ``depart_leaf``, then ``transplant`` into the dead slot).
The coordinator sends the messages the dead peer would have sent, so every
peer the repair rewires hears of it through a counted message.  What lived
only at the dead peer — its keys, subscriptions and dedup window — is lost
(the paper does not replicate data), but its *range* is handed on so the
key-space partition stays complete.

Repair is written as a step generator (:func:`repair_steps`) so the
event-driven runtime can price it: the structural surgery runs as one
atomic segment (no other operation can observe a half-repaired tree), and
— when the replication extension is enabled — the replica pull that
restores the dead peer's keys follows as per-link hops
(:func:`repro.core.replication.restore_from_replica_steps`).  Both
facades run it through ``BatonNetwork.repair_steps``: the synchronous
``BatonNetwork.repair`` drives it to exhaustion.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.core import join as join_protocol
from repro.core import leave as leave_protocol
from repro.core.links import LEFT, RIGHT
from repro.core.peer import BatonPeer
from repro.core.results import RepairResult
from repro.net.address import Address
from repro.net.bus import Trace
from repro.net.message import MsgType
from repro.util.errors import PeerNotFoundError, ProtocolError
from repro.util.stepper import MessageSteps, drive

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def fail(net: "BatonNetwork", address: Address) -> None:
    """Kill the peer at ``address`` abruptly (no protocol runs).

    The peer's last state is retained as a *ghost*: it stands in for the
    routing knowledge that survives at its linkers (parent, neighbours),
    which is what the repair coordinator reconstructs.  Its slot stays in
    the position map until repair so the hole is visible.
    """
    peer = net.peers.get(address)
    if peer is None:
        raise PeerNotFoundError(address)
    del net.peers[address]
    net.bus.unregister(address)
    net.ghosts[address] = peer


def repair_in_passes(
    net: "BatonNetwork",
    attempt: Callable[[Address], Optional[RepairResult]],
) -> List[RepairResult]:
    """The retry-in-passes loop behind both ``repair_all`` facades.

    ``attempt(address)`` runs one ghost's repair — atomically for the
    synchronous network, as a priced operation for the runtime — and
    returns None when it is blocked on another ghost (a later pass
    retries in the new order); a pass that repairs nothing is a deadlock
    and raises, so the loop ends with every ghost repaired or an error.
    """
    results: List[RepairResult] = []
    while net.ghosts:
        progress = False
        for address in sorted(net.ghosts):
            if address not in net.ghosts:
                continue
            result = attempt(address)
            if result is not None:
                results.append(result)
                progress = True
        if not progress:
            raise ProtocolError(
                f"repairs deadlocked on ghosts {sorted(net.ghosts)}"
            )
    return results


def repair_steps(
    net: "BatonNetwork", failed: Address, trace: Trace
) -> MessageSteps:
    """The §III-C repair as a step generator.

    The coordinator lookup, table regeneration and structural surgery all
    run in the first segment — between submission and the first yield no
    other operation can observe a half-repaired tree.  The only yielded
    hops are the replication extension's replica pull (request, bulk
    reply, batched onward re-mirror), so under the event-driven runtime
    recovery *latency* includes the wire time of moving the dead peer's
    data, while the tree itself is whole from the moment the repair runs.

    ``trace`` is recorded on the result; callers attribute the messages
    (the synchronous wrapper drives inside an open trace, the runtime
    pushes the operation's own trace per segment).
    """
    ghost = net.ghosts.get(failed)
    if ghost is None:
        raise PeerNotFoundError(failed)
    coordinator = _find_coordinator(net, ghost)
    if coordinator is None:
        if net.size == 0:
            # The sole peer died: nothing to reconnect.
            net.unregister_peer(failed)
            del net.ghosts[failed]
            net.stats.repairs += 1
            return RepairResult(failed=failed, replacement=None, trace=trace)
        # Every neighbour is dead too: block until another repair
        # revives one (repair_all retries in passes).
        raise ProtocolError(
            f"repair of {ghost.position} blocked: no live coordinator"
        )
    _regenerate_tables(net, coordinator, ghost)
    # What lived only at the dead peer died with it; replication restores
    # the keys below.  Its range and slot are what the departure hands on.
    ghost.store.clear()
    ghost.subscriptions = None
    ghost.seen_messages = None
    # The same safe-departure test as a graceful leave, evaluated on the
    # regenerated link state.
    if leave_protocol.can_depart_simply(ghost):
        absorber = net.peers.get(ghost.parent.address)  # None: parent dead too
        leave_protocol.depart_leaf(net, ghost, coordinator=coordinator.address)
        replacement: Optional[BatonPeer] = None
    else:
        replacement = absorber = _replace(net, coordinator, ghost)
    del net.ghosts[failed]
    recovered = 0
    if net.config.replication and absorber is not None:
        from repro.core import replication

        recovered = yield from replication.restore_from_replica_steps(
            net, ghost, absorber
        )
    net.stats.repairs += 1
    return RepairResult(
        failed=failed,
        replacement=replacement.address if replacement else None,
        trace=trace,
        keys_recovered=recovered,
    )


def _find_coordinator(net: "BatonNetwork", ghost: BatonPeer) -> Optional[BatonPeer]:
    """The live peer that manages the repair: parent first, §III-D fallbacks."""
    candidates = [
        ghost.parent,
        ghost.left_adjacent,
        ghost.right_adjacent,
        ghost.left_child,
        ghost.right_child,
    ]
    for info in candidates:
        if info is not None and info.address in net.peers:
            return net.peers[info.address]
    # The ghost's snapshots may all be stale (its neighbours were repaired
    # under new addresses); fall back to the current slot occupants.
    slots = [
        ghost.position.parent(),
        ghost.position.left_child(),
        ghost.position.right_child(),
    ]
    for slot in slots:
        if slot is None:
            continue
        address = net.occupant(slot)
        if address is not None and address in net.peers:
            return net.peers[address]
    return None


def _regenerate_tables(
    net: "BatonNetwork", coordinator: BatonPeer, ghost: BatonPeer
) -> None:
    """Recreate the failed node's links at the coordinator, *current*.

    The coordinator queries each live node in its own routing tables for the
    relevant child (request + response, two counted messages per neighbour).
    Crucially the answers reflect the network as it is **now** — joins and
    repairs that happened after the crash — not the dead node's last view;
    repairing against a stale snapshot can remove a slot whose neighbours
    have since gained children and break Theorem 1.  The refreshed state is
    written into the ghost object, which stands in for the regenerated
    tables for the rest of the repair; reading the answers off the position
    map is the one map read repair keeps, and it writes only the ghost.
    """
    for side in (LEFT, RIGHT):
        for _, info in coordinator.table_on(side).occupied():
            if info.address not in net.peers:
                continue
            net.bus.send(coordinator.address, info.address, MsgType.REPAIR)
            net.bus.send(info.address, coordinator.address, MsgType.RESPONSE)
    from repro.core.restructure import MapView, refresh_links_from_map

    # Ghost-held slots stay visible: a dead child still owns its slot and
    # its slice of the key space, so the dead parent must not be mistaken
    # for a leaf (its repair would skip the child's range).
    refresh_links_from_map(MapView(net, include_ghosts=True), ghost)


def _replace(
    net: "BatonNetwork", coordinator: BatonPeer, ghost: BatonPeer
) -> BatonPeer:
    """Algorithm 2 on the dead node's behalf: a replacement leaf departs
    gracefully and takes over the dead slot; returns the replacement."""
    start = _live_descent_entry(net, ghost)
    if start is None:
        raise ProtocolError(
            f"cannot repair {ghost.position}: no live entry into its subtree"
        )
    if start != coordinator.address:
        net.bus.send(coordinator.address, start, MsgType.LEAVE_FIND)
    # Algorithm 2's descent, paying for and skipping dead hops: the repair
    # exists because part of this subtree is dead.
    found = drive(leave_protocol.descend_steps(net, start, tolerate_dead=True))
    if found is None:
        raise ProtocolError("repair replacement walk did not terminate")
    replacement = net.peer(found)
    if not leave_protocol.can_depart_simply(replacement) or (
        replacement.parent.address not in net.peers
        and replacement.parent.address != ghost.address
    ):
        # Cornered by other unrepaired failures (a dead child whose slot
        # would be orphaned, or a dead parent that would swallow the
        # replacement's keys): block; repair_all retries after the
        # blocking ghosts are handled.  A replacement hanging directly
        # under the dead node keeps its keys through the ghost.
        raise ProtocolError(
            f"repair of {ghost.position} blocked: replacement "
            f"{replacement.position} cannot depart safely yet"
        )
    net.updates.drain(found)
    leave_protocol.depart_leaf(net, replacement, coordinator=coordinator.address)
    # The departure changed the dead slot's neighbourhood (the
    # replacement's parent grew): regenerate the view the slot inherits.
    if coordinator is replacement:
        coordinator = _find_coordinator(net, ghost)
    if coordinator is not None:
        _regenerate_tables(net, coordinator, ghost)
    leave_protocol.transplant(
        net, ghost, replacement, coordinator=(coordinator or replacement).address
    )
    # Joins that ran while the node was dead could not relay through it:
    # the slot's children get the join's table relay from their new parent.
    for info in (replacement.left_child, replacement.right_child):
        child = net.peers.get(info.address) if info is not None else None
        if child is not None:
            join_protocol.fill_child_tables(net, replacement, child)
    return replacement


def _live_descent_entry(net: "BatonNetwork", ghost: BatonPeer) -> Optional[Address]:
    """A live node from which the replacement walk can descend.

    For a dead leaf the natural entries are the children of its sideways
    neighbours (the same entry point graceful leave uses); for a dead
    internal node, its adjacents sit in its own subtree.
    """
    candidates: list[Optional[Address]] = []
    if ghost.is_leaf:
        neighbours = (
            ghost.left_table.nodes_with_children()
            + ghost.right_table.nodes_with_children()
        )
        for info in sorted(
            neighbours,
            key=lambda i: abs(i.position.number - ghost.position.number),
        ):
            candidates.append(info.left_child or info.right_child)
    for info in (
        ghost.left_adjacent,
        ghost.right_adjacent,
        ghost.left_child,
        ghost.right_child,
    ):
        if info is not None:
            candidates.append(info.address)
    for address in candidates:
        if address is not None and address in net.peers:
            return address
    return None
