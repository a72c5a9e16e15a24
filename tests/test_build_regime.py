"""One growth regime: every experiment builder runs its overlay's ``build``.

The oracle recipes below are the hand-written construction loops the
experiment builders used to carry, one per overlay (BATON and multiway:
bootstrap, hand the first peer the whole dataset, join the rest; Chord:
grow empty, then place by hash; the locality grid: BATON's loop on a
network that already knows its topology).  The builders now all run the
overlay's own ``build(..., keys=)`` — the one loop in
:class:`repro.net.overlay.OverlayNetwork` — and must produce the same
network: same addresses, same per-peer state, same message counts and the
same next rng draw.
"""

import pytest

from repro.chord.network import ChordNetwork
from repro.core.cache import DEFAULT_CACHE_SIZE
from repro.core.network import (
    BatonConfig,
    BatonNetwork,
    LoadBalanceConfig,
    LocalityConfig,
)
from repro.experiments.harness import (
    build_baton,
    build_chord,
    build_loaded,
    build_multiway,
    build_network,
    loaded_keys,
)
from repro.experiments.locality import (
    INTER_DELAY,
    INTRA_DELAY,
    JOIN_PROBES,
    REGIONS,
    build_locality_net,
)
from repro.multiway.network import MultiwayNetwork
from repro.sim.topology import ClusteredTopology
from repro.util.rng import derive_seed

SIZES = (1, 2, 37, 64)
LOADS = (0, 5)
SEEDS = (0, 3)


def _grown_around_data(net, root_store, n_peers, keys):
    """The loop BATON and multiway shared: data at the bootstrap peer."""
    if keys:
        root_store.extend(keys)
    for _ in range(n_peers - 1):
        net.join()
    return net


def oracle_baton(n_peers, seed, data_per_node):
    config = BatonConfig(
        balance=LoadBalanceConfig(
            capacity=max(4 * data_per_node, 16), enabled=False
        ),
        locality=LocalityConfig(),
    )
    net = BatonNetwork(config=config, seed=seed)
    root = net.bootstrap()
    keys = loaded_keys(n_peers, data_per_node, seed) if data_per_node else []
    return _grown_around_data(net, net.peer(root).store, n_peers, keys)


def oracle_multiway(n_peers, seed, data_per_node):
    net = MultiwayNetwork(seed=seed)
    root = net.bootstrap()
    keys = loaded_keys(n_peers, data_per_node, seed) if data_per_node else []
    return _grown_around_data(net, net.nodes[root].store, n_peers, keys)


def oracle_chord(n_peers, seed, data_per_node):
    net = ChordNetwork(seed=seed)
    net.bootstrap()
    for _ in range(n_peers - 1):
        net.join()
    if data_per_node:
        net.bulk_load(loaded_keys(n_peers, data_per_node, seed))
    return net


def oracle_locality(n_peers, seed, data_per_node, aware_join, cache):
    locality = LocalityConfig(
        join_probes=JOIN_PROBES if aware_join else 0,
        cache_size=DEFAULT_CACHE_SIZE if cache else 0,
    )
    net = BatonNetwork(config=BatonConfig(locality=locality), seed=seed)
    net.topology = ClusteredTopology(
        derive_seed(seed, "locality"),
        regions=REGIONS,
        intra_delay=INTRA_DELAY,
        inter_delay=INTER_DELAY,
        jitter=0.2,
        asymmetry=0.1,
    )
    root = net.bootstrap()
    net.peer(root).store.extend(loaded_keys(n_peers, data_per_node, seed))
    build_start = net.bus.stats.total
    for _ in range(n_peers - 1):
        net.join()
    per_join = (
        (net.bus.stats.total - build_start) / (n_peers - 1)
        if n_peers > 1
        else 0.0
    )
    return net, per_join


def built_state(net):
    """Everything a build decides, including where the rng stream stands.

    Reads (and so advances) ``net.rng`` — call once per network.
    """
    if isinstance(net, BatonNetwork):
        peers = {
            address: (
                str(peer.position),
                peer.range.low,
                peer.range.high,
                tuple(sorted(peer.store)),
            )
            for address, peer in net.peers.items()
        }
    elif isinstance(net, ChordNetwork):
        peers = {
            address: (node.node_id, tuple(sorted(node.store)))
            for address, node in net.nodes.items()
        }
    else:
        peers = {
            address: (
                node.level,
                node.range.low,
                node.range.high,
                tuple(sorted(node.store)),
            )
            for address, node in net.nodes.items()
        }
    return (
        sorted(peers),
        peers,
        net.bus.stats.total,
        dict(net.bus.stats.by_type),
        net.rng.random(),
    )


BUILDERS = {
    "baton": (build_baton, oracle_baton),
    "chord": (build_chord, oracle_chord),
    "multiway": (build_multiway, oracle_multiway),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("data_per_node", LOADS)
@pytest.mark.parametrize("n_peers", SIZES)
@pytest.mark.parametrize("overlay", sorted(BUILDERS))
def test_builder_matches_its_recipe(overlay, n_peers, data_per_node, seed):
    builder, oracle = BUILDERS[overlay]
    assert built_state(builder(n_peers, seed, data_per_node)) == built_state(
        oracle(n_peers, seed, data_per_node)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("data_per_node", LOADS)
@pytest.mark.parametrize("n_peers", SIZES)
@pytest.mark.parametrize("aware_join", (False, True))
def test_locality_grower_matches_its_recipe(
    aware_join, n_peers, data_per_node, seed
):
    net, per_join = build_locality_net(
        n_peers, seed, data_per_node, aware_join, cache=aware_join
    )
    expected_net, expected_per_join = oracle_locality(
        n_peers, seed, data_per_node, aware_join, aware_join
    )
    assert per_join == expected_per_join
    assert built_state(net) == built_state(expected_net)


@pytest.mark.parametrize("overlay", ("chord", "multiway"))
def test_bulk_refused_without_a_direct_build_path(overlay):
    with pytest.raises(TypeError, match="bulk"):
        build_network(overlay, 8, 0, 5, bulk=True)
    with pytest.raises(TypeError, match="bulk"):
        build_loaded(overlay, 8, 0, 5, bulk=True)
