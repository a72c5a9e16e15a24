"""Physical peer addresses.

A peer's *physical id* in the paper is its IP address; the logical id is its
(level, number) position in the tree.  We model the physical id as a plain
integer handed out by :class:`AddressAllocator`, which never reuses values so
a stale link to a departed peer can be detected (the address resolves to
nothing) rather than silently hitting a recycled peer.
"""

from __future__ import annotations

from typing import NewType

Address = NewType("Address", int)
"""Opaque physical identifier of a peer (stands in for an IP address)."""


class AddressPoolDict(dict):
    """An address-keyed dict that keeps a flat key pool for O(1) draws.

    Overlay networks hand out query/join entry points uniformly at random;
    sorting (or even listing) the node dict per draw is O(N log N) and was
    the dominant per-event cost of the workload driver beyond N≈10k.  This
    dict mirrors its keys into a swap-remove pool so
    :meth:`random_address` is a single O(1) index, while all read traffic
    stays plain-dict fast.  Only item assignment and deletion are
    intercepted — the overlay networks mutate their node maps exclusively
    through those two operations.
    """

    __slots__ = ("_pool", "_pool_index")

    def __init__(self) -> None:
        super().__init__()
        self._pool: list[Address] = []
        self._pool_index: dict[Address, int] = {}

    def __setitem__(self, address: Address, node: object) -> None:
        if address not in self._pool_index:
            self._pool_index[address] = len(self._pool)
            self._pool.append(address)
        super().__setitem__(address, node)

    def __delitem__(self, address: Address) -> None:
        super().__delitem__(address)
        index = self._pool_index.pop(address)
        last = self._pool.pop()
        if last != address:
            self._pool[index] = last
            self._pool_index[last] = index

    def pop(self, *args):  # pragma: no cover - guard against silent desync
        raise NotImplementedError("use `del` so the draw pool stays in sync")

    def __reduce__(self):
        # The default dict-subclass reduce replays items through
        # __setitem__ before slot state exists, and would re-derive the
        # pool in dict order — but swap-remove deletions leave the pool
        # in its own order, and random_address draws index into it, so a
        # restored network must get the pool back *verbatim* to drive
        # identically to the original (see experiments/snapshot.py).
        return (_restore_pool_dict, (dict(self), list(self._pool)))

    def random_address(self, rng) -> Address:
        """A uniformly random live key (``rng`` needs ``randint``)."""
        return self._pool[rng.randint(0, len(self._pool) - 1)]


def _restore_pool_dict(items: dict, pool: list) -> "AddressPoolDict":
    """Rebuild an :class:`AddressPoolDict` with its draw pool intact."""
    restored = AddressPoolDict()
    dict.update(restored, items)
    restored._pool = pool
    restored._pool_index = {address: i for i, address in enumerate(pool)}
    return restored


class AddressAllocator:
    """Hands out unique, never-reused peer addresses."""

    def __init__(self, start: int = 1):
        if start < 0:
            raise ValueError("address space must start at a non-negative value")
        self._next = start

    def allocate(self) -> Address:
        """Return a fresh address, distinct from every earlier one."""
        address = Address(self._next)
        self._next += 1
        return address
