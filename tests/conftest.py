"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core import BatonConfig, BatonNetwork, LoadBalanceConfig, check_invariants
from repro.core.ids import Position
from repro.core.links import LEFT
from repro.core.peer import BatonPeer


def make_network(n_peers: int, seed: int = 0, **config_kwargs) -> BatonNetwork:
    """A BATON network of ``n_peers``, invariants verified."""
    config = BatonConfig(**config_kwargs) if config_kwargs else None
    net = BatonNetwork.build(n_peers, seed=seed, config=config)
    check_invariants(net)
    return net


def balanced_config(capacity: int = 30) -> BatonConfig:
    """A config with load balancing switched on."""
    return BatonConfig(balance=LoadBalanceConfig(capacity=capacity, enabled=True))


def leftmost_peer(net: BatonNetwork) -> BatonPeer:
    """The peer owning the lowest range (no left adjacent)."""
    return min(net.peers.values(), key=lambda p: p.range.low)


def rightmost_peer(net: BatonNetwork) -> BatonPeer:
    """The peer owning the highest range (no right adjacent)."""
    return max(net.peers.values(), key=lambda p: p.range.high)


def table_slots(position: Position, side: str) -> list[Position]:
    """The §III routing-table slots on ``side``, nearest first: the level's
    numbers ``number ∓ 2^i`` that stay inside ``[1, 2^level]`` — written
    out here independently of ``RoutingTable``'s own geometry."""
    step = -1 if side == LEFT else 1
    slots, i = [], 0
    while 1 <= position.number + step * (1 << i) <= 1 << position.level:
        slots.append(Position(position.level, position.number + step * (1 << i)))
        i += 1
    return slots


@pytest.fixture(scope="session", autouse=True)
def hermetic_snapshot_cache(tmp_path_factory):
    """Keep the suite off ``~/.cache/repro/snapshots``.

    The experiment CLIs switch the snapshot cache on at its default root,
    so an unguarded run reads whatever an earlier checkout stored there
    (and leaves its own behind): a warm machine and CI then test different
    things.  ``tests/test_snapshot.py``'s ``cache`` fixture still picks its
    own root per test.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_SNAPSHOT_DIR", str(tmp_path_factory.mktemp("snapshots"))
        )
        yield


@pytest.fixture
def net20() -> BatonNetwork:
    """A 20-peer network (fresh per test)."""
    return make_network(20, seed=11)


@pytest.fixture
def net100() -> BatonNetwork:
    """A 100-peer network (fresh per test)."""
    return make_network(100, seed=7)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
