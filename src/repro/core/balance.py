"""Load balancing (§IV-D): adjacent data shifts and leaf rejoins.

A peer is overloaded when its store exceeds the configured capacity.

* A **non-leaf** peer only balances with its adjacent nodes: it shifts part
  of its keys across the shared range boundary (cheap, and its adjacents are
  its in-order neighbours so the partition stays contiguous).
* A **leaf** first tries the same adjacent shift; if both adjacents are
  themselves loaded, it recruits a *lightly loaded leaf* found by probing
  through its routing tables.  The recruit hands its range and keys to its
  own right adjacent, departs (with a forced restructuring shift if its
  departure would unbalance the tree), and rejoins as a child of the
  overloaded peer, taking half its content — again with forced
  restructuring when Theorem 1 would be violated.

The paper's claim, which Figures 8(g) and 8(h) quantify: shifts are short
with exponentially decaying length, and the amortized cost per insertion is
O(log N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.core.links import LEFT, RIGHT, NodeInfo
from repro.core.peer import BatonPeer
from repro.core.results import BalanceEvent
from repro.net.address import Address
from repro.net.bus import Trace
from repro.net.message import MsgType

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork

#: A leaf below this share of ``capacity`` is *lightly loaded*: a recruit.
LOW_WATERMARK = 0.25
#: An adjacent absorbs shifted keys only while it stays under this share of
#: ``capacity``.
ABSORB_FACTOR = 0.75
#: Probes one search for a light leaf may spend.
PROBE_LIMIT = 16


@dataclass
class BalanceOutcome:
    """What a balancing episode did (internal; summarised in BalanceEvent).

    ``kind`` is None when the episode probed but moved nothing.
    """

    kind: Optional[str]
    trace: Trace
    shift_size: int = 0


def maybe_balance(net: "BatonNetwork", address: Address) -> Optional[BalanceOutcome]:
    """Run one §IV-D balancing episode if the peer is overloaded.

    Returns None when no episode starts (balancing off, the peer gone or
    not overloaded, or backing off).  An episode that starts returns its
    outcome even when nothing moved (``kind=None``): its probes were
    sent, so its trace must reach the insert's result.  Only episodes
    that moved something count as ``net.stats.balance_events``.

    A peer whose last balancing attempt found nothing to do (all neighbours
    loaded, no light recruit) backs off until its store has grown another
    ~10%: retrying on every insert would turn the probe traffic itself into
    the hot-spot.
    """
    config = net.config.balance
    if not config.enabled:
        return None
    peer = net.peers.get(address)
    if peer is None or len(peer.store) <= config.capacity:
        return None
    stuck_at = net._balance_backoff.get(address)
    if stuck_at is not None and len(peer.store) < 1.1 * stuck_at:
        return None
    with net.bus.trace("balance") as trace:
        kind, shift = _balance_with_adjacent(net, peer, config.capacity), 0
        if kind is None and peer.is_leaf:
            rejoin = _balance_by_rejoin(net, peer, config.capacity)
            if rejoin is not None:
                kind, shift = "rejoin", rejoin
    if kind is None:
        net._balance_backoff[address] = len(peer.store)
    else:
        net._balance_backoff.pop(address, None)
        net.stats.balance_events.append(
            BalanceEvent(kind=kind, messages=trace.total, shift_size=shift)
        )
    return BalanceOutcome(kind=kind, trace=trace, shift_size=shift)


# ---------------------------------------------------------------------------
# Adjacent-node balancing
# ---------------------------------------------------------------------------


def _balance_with_adjacent(
    net: "BatonNetwork", peer: BatonPeer, capacity: int
) -> Optional[str]:
    """Shift keys across a range boundary to a lighter adjacent node."""
    best: Optional[tuple[int, str, BatonPeer]] = None
    for side in (RIGHT, LEFT):
        info = peer.adjacent_on(side)
        if info is None:
            continue
        neighbor = net.peers.get(info.address)
        if neighbor is None:
            continue
        net.bus.send(peer.address, info.address, MsgType.BALANCE)  # load probe
        headroom = int(ABSORB_FACTOR * capacity) - len(neighbor.store)
        if headroom <= 0:
            continue
        if best is None or headroom > best[0]:
            best = (headroom, side, neighbor)
    if best is None:
        return None
    headroom, side, neighbor = best
    surplus = (len(peer.store) - len(neighbor.store)) // 2
    amount = min(surplus, headroom)
    if amount <= 0:
        return None
    moved = _shift_keys(net, peer, neighbor, side, amount)
    if moved == 0:
        return None
    return "adjacent"


def _shift_keys(
    net: "BatonNetwork",
    donor: BatonPeer,
    receiver: BatonPeer,
    side: str,
    amount: int,
) -> int:
    """Move ~``amount`` boundary keys from donor to its ``side`` adjacent.

    The boundary between the two ranges moves with the keys; duplicates are
    never split across the boundary.  Returns the number of keys moved.
    """
    keys = list(donor.store)
    # Keys below the boundary lie left of it, keys at or above it right, so
    # a run of duplicates never straddles it.
    boundary = keys[-amount] if side == RIGHT else keys[amount - 1] + 1
    if not keys[0] < boundary <= keys[-1]:
        return 0  # the donor would keep no key
    low, high = donor.range.split_at(boundary)
    if side == RIGHT:
        moved = donor.store.split_at_or_above(boundary)
        donor.range, handed = low, high
    else:
        moved = donor.store.split_below(boundary)
        handed, donor.range = low, high
    receiver.store.extend(moved)
    receiver.range = receiver.range.merge(handed)
    if donor.subscriptions:
        # The boundary moved: subscriptions covering the handed slice follow.
        from repro.pubsub.subscribe import transfer_subscriptions

        transfer_subscriptions(net, donor, receiver)
    net.bus.send(donor.address, receiver.address, MsgType.BALANCE)
    # Both ranges changed: linkers of both peers must refresh.
    net.broadcast_update(donor, mtype=MsgType.TABLE_UPDATE)
    net.broadcast_update(receiver, mtype=MsgType.TABLE_UPDATE)
    return len(moved)


# ---------------------------------------------------------------------------
# Remote-leaf rejoin balancing
# ---------------------------------------------------------------------------


def _balance_by_rejoin(
    net: "BatonNetwork", overloaded: BatonPeer, capacity: int
) -> Optional[int]:
    """Recruit a lightly loaded leaf to share the overloaded leaf's load.

    Returns the forced-restructuring shift size, or None if no recruit was
    found within the probe budget.
    """
    if not overloaded.range.can_split:
        # A width-1 range cannot hand half of itself to the recruit; raising
        # mid-episode would strand the recruit after it departed its slot.
        return None
    victim = _probe_for_light_leaf(net, overloaded, capacity)
    if victim is None:
        return None

    from repro.core import leave as leave_protocol
    from repro.core import restructure as restructure_protocol

    # The recruit hands its range and keys to its right adjacent (its left
    # one at the right edge), then leaves its slot (shifting the tree if
    # its departure is unsafe).
    absorber = (victim.right_adjacent or victim.left_adjacent).address
    shift = 0
    if leave_protocol.can_depart_simply(victim):
        detached = leave_protocol.depart_leaf(net, victim, absorber)
    else:
        shift += restructure_protocol.depart_with_restructure(net, victim, absorber)
        detached = victim
    # ... and rejoins as a child of the overloaded peer, taking half its
    # content; forced restructuring may shift the tree again.
    side = LEFT if overloaded.child_on(LEFT) is None else RIGHT
    shift += restructure_protocol.forced_add_child(net, overloaded, side, detached)
    return shift


def _probe_for_light_leaf(
    net: "BatonNetwork", overloaded: BatonPeer, capacity: int
) -> Optional[BatonPeer]:
    """Probe sideways-table neighbours (and their children) for a light leaf.

    The paper's footnote: neighbour tables suffice to find *a* lighter
    loaded node, even if not the lightest.  Each probe is one message.
    """
    threshold = max(1, int(LOW_WATERMARK * capacity))
    candidates: List[NodeInfo] = []
    for side in (LEFT, RIGHT):
        for _, info in overloaded.table_on(side).occupied():
            candidates.append(info)
    probes = 0
    seen: set[Address] = {overloaded.address}
    queue = list(candidates)
    while queue and probes < PROBE_LIMIT:
        info = queue.pop(0)
        if info.address in seen:
            continue
        seen.add(info.address)
        target = net.peers.get(info.address)
        if target is None:
            continue
        net.bus.send(overloaded.address, info.address, MsgType.BALANCE)
        probes += 1
        if (
            target.is_leaf
            and len(target.store) < threshold
            and target.parent is not None
            and not _bad_recruit(overloaded, target)
        ):
            return target
        for child in (target.left_child, target.right_child):
            if child is not None and child.address not in seen:
                queue.append(child)
    return None


def _bad_recruit(overloaded: BatonPeer, candidate: BatonPeer) -> bool:
    """Recruits whose hand-over would interact with the overloaded peer.

    A candidate that is one of the overloaded peer's adjacents — or whose
    own right adjacent *is* the overloaded peer — would hand its keys right
    back into the hot spot; the probe skips those, there are plenty of other
    leaves.
    """
    adjacents = {
        info.address
        for info in (overloaded.left_adjacent, overloaded.right_adjacent)
        if info is not None
    }
    if candidate.address in adjacents:
        return True
    return (
        candidate.right_adjacent is not None
        and candidate.right_adjacent.address == overloaded.address
    )
