"""Built-network snapshot cache: round-trip fidelity, keying, fallbacks.

The cache's contract (DESIGN.md, "Parallelism contract"): a restored
network is indistinguishable from a freshly built one — same invariants,
same event-for-event drive — and the key discriminates exactly the
inputs that shape the built state.  Corrupt or stale payloads fall back
to a clean build, never an error.
"""

from __future__ import annotations

import gc
import os
import pickle
import time

import pytest

from repro import overlays
from repro.core.invariants import check_invariants, collect_violations
from repro.core.network import BatonConfig, LoadBalanceConfig, LocalityConfig
from repro.experiments import snapshot
from repro.experiments.harness import build_baton, build_network, loaded_keys
from repro.experiments.parallel import cell, run_cells
from repro.util.rng import derive_seed
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload


@pytest.fixture
def cache(tmp_path):
    """An enabled snapshot cache rooted in a temp dir; always disabled after."""
    snapshot.configure(enabled=True, root=tmp_path)
    try:
        yield tmp_path
    finally:
        snapshot.configure(enabled=False)


def _baton_parts(n_peers: int, seed: int, data_per_node: int) -> dict:
    """The exact cache key ``build_baton`` uses (mirrors harness.py)."""
    config = BatonConfig(
        balance=LoadBalanceConfig(
            capacity=max(4 * data_per_node, 16), enabled=False
        ),
        locality=LocalityConfig(),
    )
    return {
        "builder": "baton",
        "n_peers": n_peers,
        "seed": seed,
        "data_per_node": data_per_node,
        "config": snapshot.describe(config),
    }


def _snapshot_file(root, parts: dict):
    """Where the disk tier under ``root`` stores the snapshot for ``parts``."""
    return root / f"v{snapshot.SNAPSHOT_SCHEMA}" / f"{snapshot.fingerprint(parts)}.snap"


def _drive_report(net, n_peers: int, seed: int, data_per_node: int):
    """A short deterministic churn+query drive; returns the event log."""
    anet = overlays.get("baton").wrap(net, record_events=True)
    keys = loaded_keys(n_peers, data_per_node, seed)
    config = ConcurrentConfig(
        duration=8.0, churn_rate=1.0, query_rate=8.0, range_fraction=0.2
    )
    run_concurrent_workload(
        anet, keys, config, seed=derive_seed(seed, "snapshot-test-driver")
    )
    return list(anet.event_log)


def test_round_trip_restores_equivalent_network(cache):
    """Restore == rebuild: invariants hold and the drive is event-for-event
    identical to a freshly built network's."""
    n, seed, dpn = 120, 3, 10
    snapshot.configure(enabled=False)
    fresh = build_baton(n, seed, dpn)
    snapshot.configure(enabled=True, root=cache)

    built = build_baton(n, seed, dpn)  # miss: builds and stores
    assert snapshot.stats.misses == 1 and snapshot.stats.stores == 1
    restored = build_baton(n, seed, dpn)  # hit: fresh copy from bytes
    assert snapshot.stats.hits == 1
    assert restored is not built  # never share mutable state

    check_invariants(restored)
    assert not collect_violations(restored)
    assert restored.size == fresh.size
    assert sorted(restored.addresses()) == sorted(fresh.addresses())

    assert _drive_report(restored, n, seed, dpn) == _drive_report(
        fresh, n, seed, dpn
    )


def test_key_discriminates_build_inputs(cache):
    """Config, seed and dataset changes miss; identical inputs hit."""
    base = dict(builder="baton", n_peers=50, seed=0, data_per_node=10,
                config=snapshot.describe(BatonConfig()))
    prints = {snapshot.fingerprint(base)}
    for variant in (
        {**base, "seed": 1},
        {**base, "n_peers": 51},
        {**base, "data_per_node": 11},
        {**base, "config": snapshot.describe(
            BatonConfig(balance=LoadBalanceConfig(capacity=7, enabled=True))
        )},
    ):
        prints.add(snapshot.fingerprint(variant))
    assert len(prints) == 5  # every variant keys differently
    assert snapshot.fingerprint(dict(base)) in prints  # and stably


def test_irrelevant_knobs_share_snapshots(cache):
    """Wrap-time/drive-only settings are not in the key: the same build
    feeds cells that differ only in how they drive it."""
    n, seed, dpn = 60, 0, 5
    build_baton(n, seed, dpn)
    assert snapshot.stats.misses == 1
    # A cell recording events (a wrap-time choice) reuses the snapshot.
    net = build_baton(n, seed, dpn)
    overlays.get("baton").wrap(net, record_events=True)
    assert snapshot.stats.hits == 1 and snapshot.stats.misses == 1


@pytest.mark.parametrize("name", overlays.available())
def test_registry_builds_bypass_the_cache(cache, name):
    """Only the experiments' ``build_network`` caches; the registry's
    ``build`` always builds fresh."""
    overlays.get(name).build(30, seed=0)
    assert snapshot.stats.as_dict() == snapshot.SnapshotStats().as_dict()


@pytest.mark.parametrize("name", overlays.available())
def test_build_network_misses_once_then_hits(cache, name):
    build_network(name, 30, 0)
    assert (snapshot.stats.misses, snapshot.stats.hits) == (1, 0)
    build_network(name, 30, 0)
    assert (snapshot.stats.misses, snapshot.stats.hits) == (1, 1)


def test_corrupt_snapshot_falls_back_to_clean_build(cache):
    n, seed, dpn = 40, 5, 5
    parts = _baton_parts(n, seed, dpn)
    build_baton(n, seed, dpn)
    path = _snapshot_file(cache, parts)
    assert path.exists()
    path.write_bytes(b"\x00garbage\xff" * 7)
    snapshot.configure(enabled=True, root=cache)  # drop the memory tier
    net = build_baton(n, seed, dpn)  # corrupt -> counted, clean rebuild
    assert snapshot.stats.corrupt == 1
    assert snapshot.stats.misses == 1
    check_invariants(net)
    # The rebuild overwrote the bad file: next call is a healthy hit.
    build_baton(n, seed, dpn)
    assert snapshot.stats.hits == 1


def test_digest_mismatch_is_never_unpickled(cache, monkeypatch):
    """One flipped body byte fails the stored SHA-256, so the blob is
    counted corrupt and rebuilt without ever reaching ``pickle.loads``."""
    n, seed, dpn = 40, 7, 5
    build_baton(n, seed, dpn)
    path = _snapshot_file(cache, _baton_parts(n, seed, dpn))
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    snapshot.configure(enabled=True, root=cache)  # drop the memory tier

    unpickled = []
    monkeypatch.setattr(snapshot.pickle, "loads", unpickled.append)
    net = build_baton(n, seed, dpn)
    assert not unpickled
    assert snapshot.stats.corrupt == 1
    assert snapshot.stats.misses == 1
    check_invariants(net)


def test_stale_schema_falls_back_to_clean_build(cache):
    n, seed, dpn = 40, 6, 5
    parts = _baton_parts(n, seed, dpn)
    build_baton(n, seed, dpn)
    path = _snapshot_file(cache, parts)
    payload = pickle.loads(path.read_bytes()[snapshot.DIGEST_BYTES :])
    payload["schema"] = snapshot.SNAPSHOT_SCHEMA - 1
    path.write_bytes(snapshot._seal(pickle.dumps(payload)))
    snapshot.configure(enabled=True, root=cache)
    net = build_baton(n, seed, dpn)
    assert snapshot.stats.stale == 1
    assert snapshot.stats.misses == 1
    check_invariants(net)


def test_schema_bump_removes_older_schema_directories(cache, monkeypatch):
    """Snapshots live under ``v<schema>/``; opening the cache after a
    schema bump removes the older schemas' directories and nothing else."""
    parts = _baton_parts(40, 8, 5)
    build_baton(40, 8, 5)
    old_dir = _snapshot_file(cache, parts).parent
    assert old_dir.name == f"v{snapshot.SNAPSHOT_SCHEMA}"
    assert any(old_dir.glob("*.snap")) and any(old_dir.glob("*.lock"))
    keep = [cache / "notes.txt", cache / "vault", cache / "v9x", cache / "v-1"]
    keep[0].write_text("not a schema")
    for directory in keep[1:]:
        directory.mkdir()
    monkeypatch.setattr(snapshot, "SNAPSHOT_SCHEMA", snapshot.SNAPSHOT_SCHEMA + 1)
    snapshot.configure(enabled=True, root=cache)
    assert not old_dir.exists()
    assert all(path.exists() for path in keep)
    build_baton(40, 8, 5)  # stale by schema: a miss, stored under the new one
    assert snapshot.stats.misses == 1
    assert _snapshot_file(cache, parts).exists()
    assert sorted(p.name for p in cache.iterdir() if p.is_dir()) == sorted(
        ["vault", "v9x", "v-1", f"v{snapshot.SNAPSHOT_SCHEMA}"]
    )


def test_kill_switch_disables_cache(cache, monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_CACHE", "0")
    snapshot.configure(enabled=True, root=cache)
    assert not snapshot.enabled()
    build_baton(40, 0, 5)
    assert snapshot.stats.misses == 0 and snapshot.stats.stores == 0


def test_lock_wait_coalesces_onto_peer_build(cache, monkeypatch):
    """A miss that queues on the build lock re-checks the disk after the
    lock is granted: if a sibling stored the snapshot meanwhile, serve
    it (a ``coalesced`` hit) instead of duplicating the build."""
    parts = {"builder": "probe", "n": 1}
    real_lock = snapshot._lock

    def lock_and_backfill(key):
        handle = real_lock(key)
        # Simulate the sibling finishing while we waited for the lock.
        snapshot._store(key, snapshot.header(parts), "peer-built")
        return handle

    monkeypatch.setattr(snapshot, "_lock", lock_and_backfill)
    built = []
    value = snapshot.cached(parts, lambda: built.append(1) or "self-built")
    assert value == "peer-built"
    assert not built  # our builder never ran
    assert snapshot.stats.coalesced == 1 and snapshot.stats.hits == 1
    assert snapshot.stats.misses == 0


def _stampede_cell(log_path: str, n: int) -> list:
    def builder():
        with open(log_path, "a") as handle:
            handle.write("build\n")
        time.sleep(0.2)  # widen the race window the lock must close
        return list(range(n))

    return snapshot.cached({"builder": "stampede", "n": n}, builder)


def test_cold_pool_stampede_builds_once(cache):
    """Four workers fanning out the same cold cell produce exactly one
    build: the rest block on the per-key lock and restore."""
    log_path = str(cache / "builds.log")
    cells = [
        cell(_stampede_cell, log_path=log_path, n=50) for _ in range(4)
    ]
    outputs = run_cells(cells, jobs=4)
    assert outputs == [list(range(50))] * 4
    builds = (cache / "builds.log").read_text().splitlines()
    assert len(builds) == 1


def _build_then_restore(n: int, seed: int, dpn: int):
    """Time a protocol build (cache miss), then its restore (hit).

    Only the measured code's own objects are in the collector's reach:
    whatever earlier tests left alive is frozen, and the first build's
    discarded network is collected before the restore is timed.
    Otherwise a full collection landing inside a timed region scans
    garbage the measured code did not make — in a full tier-1 run that
    alone tripled the N=2000 restore time.
    """
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        build_baton(n, seed, dpn)  # miss: the join-by-join build
        build_s = time.perf_counter() - started
        gc.collect()
        started = time.perf_counter()
        restored = build_baton(n, seed, dpn)  # hit
        restore_s = time.perf_counter() - started
    finally:
        gc.unfreeze()
    return build_s, restore_s, restored


def test_restore_beats_protocol_build_5x(cache):
    """The cache's reason to exist: restoring a protocol-grown network is
    at least 5x cheaper than growing it join by join.  N=2000 keeps the
    measured gap wide (~11x measured) while staying test-sized; the
    paper-scale N=10k ratio (~6-8x) runs under REPRO_SCALE_SMOKE below.
    """
    n, seed, dpn = 2000, 0, 5
    build_s, restore_s, restored = _build_then_restore(n, seed, dpn)
    assert snapshot.stats.hits == 1
    assert restored.size == n
    assert build_s >= 5 * restore_s, (
        f"restore ({restore_s:.3f}s) is not 5x cheaper than the protocol "
        f"build ({build_s:.3f}s)"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_SMOKE") != "1"
    and os.environ.get("REPRO_FULL_SCALE") != "1",
    reason="the N=10k build-vs-restore ratio runs in CI's scale-smoke job",
)
def test_restore_beats_protocol_build_5x_at_10k(cache):
    """The acceptance criterion at the paper's headline N."""
    n, seed, dpn = 10_000, 0, 5
    build_s, restore_s, restored = _build_then_restore(n, seed, dpn)
    assert restored.size == n
    assert not collect_violations(restored)
    assert build_s >= 5 * restore_s, (
        f"restore ({restore_s:.3f}s) is not 5x cheaper than the N=10k "
        f"protocol build ({build_s:.3f}s)"
    )
