"""The honesty audit (``tests/honesty.py``) on every op kind it covers:
no op may change a peer that no counted message reached."""

import random
from collections import Counter

import pytest

from repro import overlays
from repro.core import BatonConfig, LoadBalanceConfig, check_invariants
from repro.core import failure
from repro.net.message import MsgType
from repro.util.errors import ProtocolError
from repro.util.stepper import drive

from tests.honesty import unpaid_writes

SEEDS = [0, 1, 2]


def assert_paid(net, op, entry=None):
    unpaid = unpaid_writes(net, op, entry)
    assert unpaid == [], f"changed without a message: {unpaid}"


def test_audit_flags_a_write_no_message_paid_for():
    net = overlays.get("baton").build(8, seed=0)
    peer, other = (net.peer(a) for a in sorted(net.addresses())[:2])

    def unpaid_write():
        net.bus.send(other.address, peer.address, MsgType.TABLE_UPDATE)
        peer.range, other.range = other.range, peer.range

    assert unpaid_writes(net, unpaid_write) == [other.address]
    assert unpaid_writes(net, unpaid_write, entry=other.address) == []


@pytest.mark.parametrize("name", ["baton", "chord", "multiway"])
@pytest.mark.parametrize("seed", SEEDS)
def test_membership_and_inserts_are_paid(name, seed):
    net = overlays.get(name).build(48, seed=seed)
    mix = random.Random(seed)
    for _ in range(10):
        via = net.random_peer_address()
        assert_paid(net, lambda: net.join(via=via), via)
        departing = net.random_peer_address()
        assert_paid(net, lambda: net.leave(departing), departing)
        via = net.random_peer_address()
        key = mix.randrange(net.domain.low, net.domain.high)
        assert_paid(net, lambda: net.insert(key, via=via), via)


@pytest.mark.parametrize("seed", SEEDS)
def test_baton_data_ops_with_balancing_are_paid(seed):
    config = BatonConfig(balance=LoadBalanceConfig(capacity=8, enabled=True))
    net = overlays.get("baton").build(48, seed=seed, config=config)
    mix = random.Random(seed)
    keys = []
    for _ in range(120):
        via = net.random_peer_address()
        keys.append(mix.randrange(1, 10**9))
        assert_paid(net, lambda: net.insert(keys[-1], via=via), via)
    for key in mix.sample(keys, 60):
        via = net.random_peer_address()
        assert_paid(net, lambda: net.delete(key, via=via), via)
    assert net.stats.balance_events
    check_invariants(net)


def fail_and_repair(net, victims):
    """Crash ``victims`` together, then repair each, auditing one repair
    at a time with its coordinator as the entry peer."""
    for victim in victims:
        net.fail(victim)
    while net.ghosts:
        for victim in sorted(net.ghosts):
            coordinator = failure._find_coordinator(net, net.ghosts[victim])
            entry = coordinator.address if coordinator else None
            try:
                assert_paid(net, lambda: net.repair(victim), entry)
            except ProtocolError:
                continue  # blocked on another ghost; a later pass retries
    check_invariants(net)


@pytest.mark.parametrize("seed", SEEDS)
def test_baton_fail_and_repair_is_paid(seed):
    net = overlays.get("baton").build(48, seed=seed)
    mix = random.Random(seed)
    for _ in range(12):
        fail_and_repair(net, [mix.choice(net.addresses())])
        net.join()


@pytest.mark.parametrize("seed", SEEDS)
def test_baton_parent_child_double_failure_repair_is_paid(seed):
    net = overlays.get("baton").build(48, seed=seed)
    mix = random.Random(seed)
    for _ in range(6):
        child = net.peer(mix.choice(net.addresses()))
        while child.parent is None:
            child = net.peer(mix.choice(net.addresses()))
        fail_and_repair(net, [child.address, child.parent.address])
        net.join()


@pytest.mark.parametrize("seed", SEEDS)
def test_baton_replica_refresh_after_churn_is_paid(seed):
    # Churn moves adjacents, so a refresh re-anchors a mirror and must
    # pay for dropping the stale copy at the previous anchor.
    net = overlays.get("baton").build(48, seed=seed, config=BatonConfig(replication=True))
    mix = random.Random(seed)
    net.bulk_load([mix.randrange(1, 10**9) for _ in range(480)])
    net.refresh_replicas()
    for _ in range(4):
        for _ in range(5):
            net.leave(net.random_peer_address())
            net.join()
        for address in net.addresses():
            assert_paid(net, lambda: drive(net.replica_refresh_steps(address, None)), address)
        # The stale copies are gone too: each stored key is mirrored once.
        peers = net.peers.values()
        mirrored = Counter(key for peer in peers for mirror in peer.replicas.values() for key in mirror)
        assert mirrored == Counter(key for peer in peers for key in peer.store)
    check_invariants(net)


@pytest.mark.parametrize("seed", SEEDS)
def test_baton_multicast_and_subscribe_are_paid(seed):
    net = overlays.get("baton").build(48, seed=seed)
    mix = random.Random(seed)
    for _ in range(60):
        low = mix.randrange(net.domain.low, net.domain.high - 10**8)
        high = low + mix.randrange(1, 10**8)
        via = net.random_peer_address()
        assert_paid(net, lambda: net.multicast(low, high, via=via), via)
        subscriber = net.random_peer_address()
        assert_paid(net, lambda: net.subscribe(subscriber, low, high), subscriber)
