"""Hot-range routing cache (locality extension; not in the paper).

ART (PAPERS.md) gets sub-logarithmic effective lookup cost by letting
peers shortcut the tree with cached coverage information; the RIB
next-hop cache in the gdp-multicast-simulator snippet (SNIPPETS.md) is
the same idiom one layer down.  This module applies it to BATON's §IV-A
walk: each peer keeps a small bounded map of recently-routed
``owner -> range`` entries, recorded when a walk it originated resolves.
A later lookup whose key falls inside a cached range pays **one** direct
message to the remembered owner instead of the O(log N) walk.

Staleness contract — *miss, never wrong* (DESIGN.md, "Locality
contract"):

* every shortcut is **verified at the landed peer**: if its range no
  longer covers the key (the tree restructured underneath the entry) the
  entry is invalidated and the normal walk continues from wherever the
  shortcut landed — the stale hint costs one message, it can never
  produce a wrong answer;
* a shortcut to a dead owner costs its (counted) send attempt, drops the
  entry, and falls back to the full walk from the entry peer;
* restructure traffic refreshes entries for free: a peer applying a
  counted ``TABLE_UPDATE`` snapshot (:meth:`BatonPeer.update_link_info`)
  corrects any cache entry it holds about the announcing peer, and a
  repair's ``replace_link_address`` drops entries about the dead address;
* the anti-entropy ``reconcile()`` sweep validates every surviving entry
  against ground truth (the same documented map substitution the link
  rebuild uses), so staleness is bounded by the maintenance interval.

With ``LocalityConfig.cache_size == 0`` (the default) none of this
exists: no cache objects are allocated, no branches send messages, and
runs are event-for-event identical to the uncached fast path (pinned).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.net.address import Address
from repro.net.message import MsgType
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError
from repro.util.stepper import MessageSteps

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork
    from repro.core.peer import BatonPeer

#: Capacity used when a surface enables the cache without choosing one
#: (the ``--cache`` CLI flag, the locality experiment grid).  Sized to
#: hold a hot range's owner set at experiment scale while keeping the
#: per-lookup linear scan trivial.
DEFAULT_CACHE_SIZE = 128


class CacheStats:
    """Network-wide hit/miss/invalidation counters.

    One instance per :class:`~repro.core.network.BatonNetwork`, shared by
    reference with every peer's :class:`RouteCache` so peer-local events
    (an entry corrected by a TABLE_UPDATE snapshot) land in the same
    counters the reports read.
    """

    __slots__ = ("hits", "misses", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> tuple:
        return (self.hits, self.misses, self.invalidations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations})"
        )


class RouteCache:
    """One peer's bounded ``owner -> (low, high)`` route memory.

    Keyed by owner address (a live peer owns exactly one range, so the
    key is also the dedup unit); lookup scans the bounded entry set for a
    covering range.  Insertion order doubles as LRU order: a hit moves
    its entry to the back, a record over capacity evicts the front.
    Capacity evictions are routine forgetting, not staleness, and are not
    counted as invalidations.
    """

    __slots__ = ("capacity", "stats", "_entries")

    def __init__(self, capacity: int, stats: CacheStats):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = stats
        self._entries: dict[Address, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def owners(self) -> List[Address]:
        return list(self._entries)

    def lookup(self, key: int) -> Optional[Address]:
        """The cached owner whose recorded range covers ``key``, if any."""
        for owner, (low, high) in self._entries.items():
            if low <= key < high:
                # LRU touch: re-insert at the back.
                self._entries[owner] = self._entries.pop(owner)
                return owner
        return None

    def record(self, owner: Address, low: int, high: int) -> None:
        entries = self._entries
        if owner in entries:
            del entries[owner]
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[owner] = (low, high)

    def invalidate(self, owner: Address) -> bool:
        """Drop a stale entry; counted, True when something was dropped."""
        if self._entries.pop(owner, None) is not None:
            self.stats.invalidations += 1
            return True
        return False

    def refresh(self, owner: Address, low: int, high: int) -> None:
        """Correct the entry for ``owner`` from a fresh snapshot.

        Called while applying counted update traffic (the snapshot already
        paid its message), so correcting in place is free and keeps the
        cache warm; a corrected range counts as one invalidation (the old
        entry was stale).
        """
        current = self._entries.get(owner)
        if current is not None and current != (low, high):
            self._entries[owner] = (low, high)
            self.stats.invalidations += 1


def cache_enabled(net: "BatonNetwork") -> bool:
    return net.config.locality.cache_size > 0


def peer_cache(
    net: "BatonNetwork", address: Address, create: bool = False
) -> Optional[RouteCache]:
    """The cache of the live peer at ``address`` (lazily created)."""
    peer = net.peers.get(address)
    if peer is None:
        return None
    cache = peer.route_cache
    if cache is None and create:
        cache = RouteCache(net.config.locality.cache_size, net.cache_stats)
        peer.route_cache = cache
    return cache


def record_route(net: "BatonNetwork", entry: Address, owner: "BatonPeer") -> None:
    """Remember a resolved walk's owner at the walk's entry peer.

    The record rides the (unmodeled) response leg back to the client's
    entry point — no extra message.  Recording the entry peer itself is
    pointless (a local range check beats any cache), so skipped.
    """
    if entry == owner.address:
        return
    cache = peer_cache(net, entry, create=True)
    if cache is None:
        return  # the entry peer vanished while the walk was in flight
    owner_range = owner.range
    cache.record(owner.address, owner_range.low, owner_range.high)


def consult_steps(
    net: "BatonNetwork", start: Address, key: int, mtype: MsgType
) -> MessageSteps:
    """Try the entry peer's cached shortcut; return where the walk starts.

    Yields the one direct ``start -> hint`` hop when a hint is tried.  On a
    verified hit the returned address *is* the owner (the caller's walk
    confirms immediately with zero further messages).  On a stale hint —
    or an owner that vanished while the hop was in flight — the walk
    continues from wherever the shortcut landed (the walk re-reads the
    peer, so a vanished carrier fails the op like any other mid-flight
    loss); on a dead or absent hint it starts at ``start``.  Exactly one
    of hit/miss is counted per consult.
    """
    stats = net.cache_stats
    peer = net.peers.get(start)
    cache = peer.route_cache if peer is not None else None
    hint = cache.lookup(key) if cache is not None else None
    if hint is None or hint == start:
        stats.misses += 1
        return start
    try:
        net.bus.send(start, hint, mtype)
    except PeerNotFoundError:
        stats.misses += 1
        cache.invalidate(hint)
        return start
    yield Hop(start, hint)
    target = net.peers.get(hint)
    if target is not None and target.range.contains(key):
        stats.hits += 1
    else:
        stats.misses += 1
        cache.invalidate(hint)
    return hint


def reconcile_peer(net: "BatonNetwork", peer: "BatonPeer") -> None:
    """Anti-entropy validation of one peer's cache against ground truth.

    Runs inside the ``reconcile()`` sweep, which already substitutes the
    position map for a peer-to-peer digest exchange (the documented cost
    model); dead owners are dropped, moved ranges corrected — both
    counted as invalidations.
    """
    cache = peer.route_cache
    if cache is None:
        return
    for owner in cache.owners():
        live = net.peers.get(owner)
        if live is None:
            cache.invalidate(owner)
        else:
            live_range = live.range
            cache.refresh(owner, live_range.low, live_range.high)
