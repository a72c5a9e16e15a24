"""Range multicast over the tree, with its unicast and flood baselines.

One message must reach *every* peer owning part of a key range.  The tree
already maintains exactly the links that make this cheap (§III's
parent/child/adjacent/sideways set): the primitive here routes the message
to the owner of the range midpoint — the peer sitting nearest the range's
subtree LCA — and then **delegates disjoint sub-intervals** outward.  At
each hop the carrier splits the part of the interval it does not own at
the advertised range boundaries of its same-side links (sideways table
entries, child, adjacent) and hands each slice to the link whose range
anchors it, so in a quiescent network every owner receives exactly one
message: an O(log N)-hop route plus |owners| − 1 fan-out messages, in a
tree of O(log N) structural depth (the sideways entries at distance 2^i act
as its skip list; the runtime runs an op's hops in series, so latency is
ingress + route + fan-out hops).  This is the dissemination of "Optimally
Efficient Prefix Search and Multicast in Structured P2P Networks" on BATON.

Under churn the advertised boundaries can be stale, so a peer may be
reached twice; the per-dissemination id (:mod:`repro.pubsub.state`) makes
re-delivery harmless.  Dead delegates cost their counted message and drop
their slice (``complete=False``), the same best-effort semantics the
search path has while repair runs.

Two honest baselines calibrate the claim: :func:`unicast_steps` routes one
message per owner from the same entry point (owner *discovery* is an
oracle enumeration — see :func:`range_owners` — a cost-model substitution
that favors the baseline), and :func:`flood_steps` is first-receipt gossip
over every link, the no-structure price.  All three are step generators:
the sync facades drive them atomically, the event runtime prices each
yielded hop per link, and both execute the same code (DESIGN.md,
serialized equivalence).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, TYPE_CHECKING, Tuple

from repro.core.links import LEFT, RIGHT, NodeInfo
from repro.core.peer import BatonPeer
from repro.core.ranges import Range
from repro.core.search import walk_steps
from repro.net.address import Address
from repro.net.message import MsgType
from repro.pubsub.state import apply_delivery
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork
    from repro.net.bus import Trace


@dataclass
class MulticastResult:
    """What one dissemination did: who got it, and what it cost."""

    message_id: int
    range: Range
    #: Owners that applied the message, in delivery order.
    delivered: Tuple[Address, ...]
    #: Protocol messages delivered (route + fan-out; attempts to peers
    #: that died concurrently are still counted on the bus/trace).
    messages: int
    route_hops: int
    fanout_messages: int
    #: Structural depth in hops below the anchor (fan-out rounds for the
    #: tree strategy, the longest single route for unicast, BFS radius for
    #: flood) — not a latency: the runtime runs an op's hops in series.
    depth: int
    #: False when a slice of the range was dropped at a dead delegate or
    #: the route gave up in a degraded network.
    complete: bool
    #: Arrivals the per-peer dedup window suppressed (stale links, multi-
    #: path flooding) — counted as traffic, never applied twice.
    duplicates_suppressed: int
    trace: Optional["Trace"] = None


def _side_candidates(peer: BatonPeer, side: str) -> List[NodeInfo]:
    """The ``side`` links a carrier can delegate to, deduplicated."""
    infos: dict[Address, NodeInfo] = {}
    for _, info in peer.table_on(side).occupied():
        infos.setdefault(info.address, info)
    child = peer.child_on(side)
    if child is not None:
        infos.setdefault(child.address, child)
    adjacent = peer.adjacent_on(side)
    if adjacent is not None:
        infos.setdefault(adjacent.address, adjacent)
    return list(infos.values())


def _partition(
    peer: BatonPeer, remainder: Range, side: str
) -> List[Tuple[Address, Range]]:
    """Split ``remainder`` among ``peer``'s ``side`` links.

    Cut points are the links' advertised range boundaries, so each slice
    starts inside (or at the near edge of) its delegate's own range: the
    delegate applies the message locally and recurses on what is left,
    which is what makes the fan-out one message per owner.  The slice
    touching the near edge goes to the link closest to it from outside
    (the adjacent node in a consistent network), covering any gap the
    same-level entries leave.
    """
    candidates = _side_candidates(peer, side)
    coverer: Optional[NodeInfo] = None
    inside: List[NodeInfo] = []
    if side == RIGHT:
        candidates.sort(key=lambda info: (info.range.low, int(info.address)))
        for info in candidates:
            if info.range.low <= remainder.low:
                coverer = info  # last wins: largest low at or below the edge
            elif info.range.low < remainder.high:
                inside.append(info)
        selected = ([coverer] if coverer is not None else []) + inside
        parts: List[Tuple[Address, Range]] = []
        for index, info in enumerate(selected):
            start = remainder.low if index == 0 else info.range.low
            end = (
                selected[index + 1].range.low
                if index + 1 < len(selected)
                else remainder.high
            )
            if start < end:
                parts.append((info.address, Range(start, end)))
        return parts
    candidates.sort(key=lambda info: (-info.range.high, int(info.address)))
    for info in candidates:
        if info.range.high >= remainder.high:
            coverer = info  # last wins: smallest high at or above the edge
        elif info.range.high > remainder.low:
            inside.append(info)
    selected = ([coverer] if coverer is not None else []) + inside
    parts = []
    for index, info in enumerate(selected):
        end = remainder.high if index == 0 else info.range.high
        start = (
            selected[index + 1].range.high
            if index + 1 < len(selected)
            else remainder.low
        )
        if start < end:
            parts.append((info.address, Range(start, end)))
    return parts


def _remainders(peer: BatonPeer, interval: Range) -> List[Tuple[Range, str]]:
    """The parts of ``interval`` strictly outside ``peer``'s own range."""
    out: List[Tuple[Range, str]] = []
    left_end = min(interval.high, peer.range.low)
    if interval.low < left_end:
        out.append((Range(interval.low, left_end), LEFT))
    right_start = max(interval.low, peer.range.high)
    if right_start < interval.high:
        out.append((Range(right_start, interval.high), RIGHT))
    return out


def multicast_steps(
    net: "BatonNetwork",
    start: Address,
    low: int,
    high: int,
    *,
    degraded: Optional[Callable[[], bool]] = None,
    trace: Optional["Trace"] = None,
):
    """Deliver one message to every peer owning part of ``[low, high)``.

    Route to the owner of the range midpoint, then breadth-first delegate
    disjoint sub-intervals over the same-side links (see the module
    docstring for why this is |owners| − 1 fan-out messages at O(log N)
    depth).  Every delegation is a counted ``MULTICAST`` message and a
    yielded hop; application is deduplicated per dissemination id.
    ``trace`` (the op's; never read here) rides on the result.
    """
    if low >= high:
        raise ValueError(f"empty multicast range [{low}, {high})")
    state = net.pubsub
    message_id = state.new_message_id()
    target = Range(low, high)
    anchor_key = low + (high - low) // 2
    # The bare §IV-A walk: dissemination bypasses the route cache.
    anchor, route_hops = yield from walk_steps(
        net, start, anchor_key, MsgType.MULTICAST, degraded
    )
    delivered: List[Address] = []
    suppressed = 0
    fanout = 0
    depth_max = 0
    complete = True
    queue: deque = deque()
    queue.append((anchor, target, 0))
    while queue:
        address, interval, depth = queue.popleft()
        peer = net.peers.get(address)
        if peer is None:
            complete = False  # died after the delegation was sent
            continue
        if depth > depth_max:
            depth_max = depth
        if peer.range.overlaps(interval):
            if apply_delivery(state, peer, message_id):
                delivered.append(address)
            else:
                suppressed += 1
        for remainder, side in _remainders(peer, interval):
            parts = _partition(peer, remainder, side)
            if not parts:
                # No link on that side: at the extreme peers the slice is
                # beyond the covered domain (no owners exist there); any
                # other linkless corner means owners were unreachable.
                if peer.adjacent_on(side) is not None:
                    complete = False
                continue
            for delegate, part in parts:
                try:
                    net.bus.send(address, delegate, MsgType.MULTICAST)
                except PeerNotFoundError:
                    complete = False  # paid for, slice dropped (§III-D style)
                    continue
                fanout += 1
                yield Hop(address, delegate)
                queue.append((delegate, part, depth + 1))
    return MulticastResult(
        message_id=message_id,
        range=target,
        delivered=tuple(delivered),
        messages=route_hops + fanout,
        route_hops=route_hops,
        fanout_messages=fanout,
        depth=depth_max,
        complete=complete,
        duplicates_suppressed=suppressed,
        trace=trace,
    )


def range_owners(net: "BatonNetwork", low: int, high: int) -> List[BatonPeer]:
    """Every live peer owning part of ``[low, high)``, in key order.

    Oracle enumeration through the global peer map — sanctioned by the
    honesty rules only as a *cost-model substitution*: the unicast baseline
    gets owner discovery for free, so the tree multicast's measured
    advantage is a lower bound, and tests use it as the ground truth the
    dissemination must match.
    """
    target = Range(low, high)
    owners = [peer for peer in net.peers.values() if peer.range.overlaps(target)]
    owners.sort(key=lambda peer: peer.range.low)
    return owners


def unicast_steps(
    net: "BatonNetwork",
    start: Address,
    low: int,
    high: int,
    *,
    degraded: Optional[Callable[[], bool]] = None,
):
    """Per-owner unicast baseline: one full route per owner.

    Owner discovery is free (see :func:`range_owners`), so the whole cost
    is Σ route lengths ≈ |owners| · O(log N) messages — the price of
    ignoring the tree's fan-out structure.
    """
    if low >= high:
        raise ValueError(f"empty multicast range [{low}, {high})")
    state = net.pubsub
    message_id = state.new_message_id()
    target = Range(low, high)
    delivered: List[Address] = []
    suppressed = 0
    hops_total = 0
    depth_max = 0
    complete = True
    for owner in range_owners(net, low, high):
        key = max(low, owner.range.low)
        reached, hops = yield from walk_steps(
            net, start, key, MsgType.MULTICAST, degraded
        )
        hops_total += hops
        if hops > depth_max:
            depth_max = hops
        peer = net.peers.get(reached)
        if peer is None or not peer.range.overlaps(target):
            complete = False
            continue
        if apply_delivery(state, peer, message_id):
            delivered.append(reached)
        else:
            suppressed += 1
    return MulticastResult(
        message_id=message_id,
        range=target,
        delivered=tuple(delivered),
        messages=hops_total,
        route_hops=hops_total,
        fanout_messages=0,
        depth=depth_max,
        complete=complete,
        duplicates_suppressed=suppressed,
    )


def flood_steps(
    net: "BatonNetwork",
    start: Address,
    low: int,
    high: int,
):
    """Flood baseline: first-receipt gossip over every link.

    Each peer forwards the message to all of its links except the sender
    the first time it arrives; later arrivals are absorbed (and, at
    owners, suppressed by the dedup window — the multi-path duplicates are
    real traffic).  Total cost is one message per directed link touched,
    Θ(N · avg degree), independent of how small the target range is.
    """
    state = net.pubsub
    message_id = state.new_message_id()
    target = Range(low, high)
    delivered: List[Address] = []
    suppressed = 0
    messages = 0
    depth_max = 0
    forwarded: set[Address] = set()
    queue: deque = deque()
    queue.append((start, None, 0))
    while queue:
        address, sender, depth = queue.popleft()
        peer = net.peers.get(address)
        if peer is None:
            continue
        if peer.range.overlaps(target):
            if apply_delivery(state, peer, message_id):
                delivered.append(address)
            else:
                suppressed += 1
        if address in forwarded:
            continue  # duplicate arrival: absorbed, not re-forwarded
        forwarded.add(address)
        if depth > depth_max:
            depth_max = depth
        for neighbour in peer.link_addresses():
            if neighbour == sender:
                continue
            try:
                net.bus.send(address, neighbour, MsgType.MULTICAST)
            except PeerNotFoundError:
                continue
            messages += 1
            yield Hop(address, neighbour)
            queue.append((neighbour, address, depth + 1))
    return MulticastResult(
        message_id=message_id,
        range=target,
        delivered=tuple(delivered),
        messages=messages,
        route_hops=0,
        fanout_messages=messages,
        depth=depth_max,
        complete=True,
        duplicates_suppressed=suppressed,
    )
