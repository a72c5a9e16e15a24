"""Built-network snapshot cache: restore instead of rebuild.

BATON's construction is deterministic — the same (overlay, N, seed,
config, dataset) always grows the same network (§III invariants; the
property :mod:`repro.core.bulk_build` exploits).  That makes a built
network a perfectly cacheable artifact: serialize the post-build state
once, then every experiment cell sharing that base restores it instead
of re-simulating thousands of joins.  At N=10k a protocol build is ~14s
of wall-clock per cell; a restore is a fraction of a second.

Keying and safety:

* The cache key is a SHA-256 **fingerprint of the build inputs** —
  builder name, population, seed, data volume, and a canonical rendering
  of the config (``BatonConfig``/``LocalityConfig``/topology parameters).
  Anything that changes the built state must be in the fingerprint;
  anything that only affects *drives* (``record_events``, workload rates,
  wrap-time transports) must not be, so unrelated cells share snapshots.
* Every payload embeds :data:`SNAPSHOT_SCHEMA` and its own key header,
  and is stored behind a SHA-256 of its pickled bytes.  The digest is
  checked before anything is unpickled, so a corrupt, truncated or
  foreign blob is never handed to ``pickle.loads``.  A digest mismatch,
  a stale schema or a mismatched header (hash collision, hand-edited
  file) is counted and treated as a miss — the cell falls back to a
  clean build, never an error.
* A hit always re-deserializes from the stored bytes, so every caller
  gets a *fresh* network object — two cells never share mutable state.

The cache is off unless :func:`configure` enables it (the experiment
CLIs do; library callers opt in).  ``REPRO_SNAPSHOT_CACHE=0`` is a
global kill switch, ``REPRO_SNAPSHOT_DIR`` overrides the on-disk
location (default ``~/.cache/repro/snapshots``, XDG-aware; each schema
keeps its own ``v<schema>`` directory there).  Pool
workers inherit the parent's settings via :func:`exported_config` /
:func:`apply_config` (see ``experiments/parallel.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

try:  # POSIX: per-key build locks make concurrent misses single-flight
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Format marker embedded in every snapshot payload; bump whenever the
#: built-network object layout changes incompatibly (old snapshots then
#: read as stale and rebuild cleanly).  It is part of the key, so a bump
#: also stops old files being opened at all — which matters because a
#: payload whose classes merely changed shape unpickles fine and fails on
#: *use*, where "corrupt ⇒ rebuild" cannot catch it.
#: 2: ``BatonNetwork._positions`` keyed by heap code, ``NodeInfo`` a tuple.
#: 3: a SHA-256 of the pickled bytes precedes them.
#: 4: ``UpdateChannel`` holds the runtime's inbox-drain hook (``_drain``).
#: 5: ``UpdateChannel`` schedules refreshes itself (``_sim``, ``_inbox``).
#: 6: ``BatonNetwork.peers`` an ``AddressPoolDict``; no ``_address_pool``,
#:    ``_pool_index`` or deferred ``UpdateChannel`` queue.
#: 7: ``BatonConfig`` / ``MultiwayConfig`` lose the split-policy knob and
#:    ``LoadBalanceConfig`` keeps two fields; and a departing leaf tells
#:    its parent once, which moves balanced networks (whose keys, e.g.
#:    ``build_baton_equalized``'s, need not name the config).
#: 8: ``MessageBus`` has no level resolver, ``TrafficStats`` holds ``total``
#:    and ``by_type`` only, and ``Trace`` is slotted.
#: 9: a join mirrors the keys it hands over; snapshots live under
#:    ``<root>/v<schema>/``, and :func:`configure` removes other schemas'.
SNAPSHOT_SCHEMA = 9

#: Length of the digest that precedes every stored pickle.
DIGEST_BYTES = hashlib.sha256().digest_size

#: Cap on the number of blobs kept in process memory (each N=10k network
#: pickles to a few MB; the in-memory tier exists so a sequential sweep
#: over one base network never touches the disk twice).
MEMORY_LIMIT = 64


class SnapshotStats:
    """Counters for cache behaviour (reset by :func:`configure`)."""

    __slots__ = ("hits", "misses", "stale", "corrupt", "stores", "coalesced")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.corrupt = 0
        self.stores = 0
        self.coalesced = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


stats = SnapshotStats()

_enabled = False
_root: Optional[Path] = None
_memory: Dict[str, bytes] = {}

_MISS = object()


def default_root() -> Path:
    """Where snapshots live on disk unless overridden.

    ``REPRO_SNAPSHOT_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro/
    snapshots`` (``~/.cache`` when XDG is unset).
    """
    env = os.environ.get("REPRO_SNAPSHOT_DIR")
    if env:
        return Path(env)
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "snapshots"


def configure(
    enabled: bool = True, root: Optional[os.PathLike] = None
) -> None:
    """Turn the cache on or off for this process.

    ``root=None`` with ``enabled=True`` selects :func:`default_root`;
    the ``REPRO_SNAPSHOT_CACHE=0`` kill switch overrides ``enabled``.
    Resets the in-memory tier and the counters.
    """
    global _enabled, _root
    if os.environ.get("REPRO_SNAPSHOT_CACHE", "").strip() == "0":
        enabled = False
    _enabled = bool(enabled)
    base = Path(root) if root is not None else (
        default_root() if _enabled else None
    )
    _root = base / f"v{SNAPSHOT_SCHEMA}" if base is not None else None
    _memory.clear()
    stats.reset()
    # No build of this schema reads another schema's directory again.
    for stale in base.glob("v*") if _enabled and base is not None else ():
        if stale.name[1:].isdigit() and stale != _root:
            shutil.rmtree(stale, ignore_errors=True)


def enabled() -> bool:
    return _enabled


def exported_config() -> Dict[str, Optional[str]]:
    """The settings a pool worker needs to mirror the parent's cache."""
    return {"enabled": _enabled, "root": str(_root) if _root else None}


def apply_config(config: Optional[Mapping[str, Any]]) -> None:
    """Adopt a parent process's exported settings (worker initializer)."""
    global _enabled, _root
    if config is None:
        return
    _enabled = bool(config.get("enabled"))
    _root = Path(config["root"]) if config.get("root") else None
    _memory.clear()
    stats.reset()


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def describe(obj: Any) -> Any:
    """A canonical, order-stable rendering of a build input.

    Handles primitives, sequences, mappings, sets and (recursively)
    dataclasses such as ``BatonConfig``.  Anything else must be reduced
    to those by the caller — an unrecognized object raises rather than
    silently keying on ``repr`` (which could embed a memory address and
    defeat the cache, or worse, collide).
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, describe(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, Mapping):
        return tuple(sorted((str(k), describe(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(describe(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(repr(describe(item)) for item in obj))
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__!r} for the snapshot "
        "cache; reduce it to primitives/dataclasses first"
    )


def header(parts: Mapping[str, Any]) -> str:
    """The canonical key text embedded in (and verified against) payloads."""
    return repr(("repro-snapshot", SNAPSHOT_SCHEMA, describe(parts)))


def fingerprint(parts: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical key text — the snapshot's filename stem."""
    return hashlib.sha256(header(parts).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Cached builds
# ---------------------------------------------------------------------------


def cached(parts: Mapping[str, Any], builder: Callable[[], Any]) -> Any:
    """``builder()``, memoized on the fingerprint of ``parts``.

    A hit deserializes a fresh copy from the stored bytes; a miss (or a
    stale/corrupt payload) runs the builder and stores the result.  An
    unpicklable build result is returned uncached.

    Concurrent misses on the same key are **single-flight**: a miss
    takes a per-key ``flock`` before building, so when a cold pool fans
    identical cells out, one worker builds while its siblings block on
    the lock and then restore the freshly stored snapshot (counted as
    ``coalesced`` hits) — the cold-start stampede never duplicates a
    build.
    """
    if not _enabled:
        return builder()
    head = header(parts)
    key = hashlib.sha256(head.encode("utf-8")).hexdigest()
    blob = _memory.get(key)
    disk_file_seen = False
    if blob is None:
        blob = _read_disk(key)
        disk_file_seen = blob is not None
    if blob is not None:
        value = _decode(blob, head)
        if value is not _MISS:
            stats.hits += 1
            if disk_file_seen and len(_memory) < MEMORY_LIMIT:
                _memory[key] = blob
            return value
    lock_handle = _lock(key)
    try:
        if lock_handle is not None and not disk_file_seen:
            # The file was absent before we queued for the lock; a
            # sibling worker may have built and stored it while we
            # waited.  Serve their snapshot instead of duplicating the
            # build.  (A file that *was* present but decoded corrupt or
            # stale is not re-read — it needs the rebuild below.)
            blob = _read_disk(key)
            if blob is not None:
                value = _decode(blob, head)
                if value is not _MISS:
                    stats.hits += 1
                    stats.coalesced += 1
                    if len(_memory) < MEMORY_LIMIT:
                        _memory[key] = blob
                    return value
        stats.misses += 1
        value = builder()
        _store(key, head, value)
        return value
    finally:
        _unlock(lock_handle)


def _read_disk(key: str) -> Optional[bytes]:
    if _root is None:
        return None
    try:
        return (_root / f"{key}.snap").read_bytes()
    except OSError:
        return None


def _lock(key: str):
    """A blocking exclusive per-key build lock (None when unavailable)."""
    if _root is None or fcntl is None:
        return None
    try:
        _root.mkdir(parents=True, exist_ok=True)
        handle = open(_root / f"{key}.lock", "a+b")
    except OSError:
        return None
    try:
        fcntl.flock(handle, fcntl.LOCK_EX)
    except OSError:
        handle.close()
        return None
    return handle


def _unlock(handle) -> None:
    if handle is None:
        return
    try:
        fcntl.flock(handle, fcntl.LOCK_UN)
    except OSError:
        pass
    handle.close()


def _seal(body: bytes) -> bytes:
    """``body`` behind its SHA-256, the form every tier stores."""
    return hashlib.sha256(body).digest() + body


def _decode(blob: bytes, head: str) -> Any:
    body = blob[DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != blob[:DIGEST_BYTES]:
        # Truncated write or disk rot: never unpickle it; fall back to a
        # clean build (the store below overwrites the bad file).
        stats.corrupt += 1
        return _MISS
    try:
        payload = pickle.loads(body)
    except Exception:
        # A class that moved: same fallback.
        stats.corrupt += 1
        return _MISS
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != SNAPSHOT_SCHEMA
        or payload.get("header") != head
    ):
        stats.stale += 1
        return _MISS
    return payload.get("value", _MISS)


def _store(key: str, head: str, value: Any) -> None:
    try:
        blob = _seal(
            pickle.dumps(
                {"schema": SNAPSHOT_SCHEMA, "header": head, "value": value},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
    except Exception:
        return  # not snapshotable; the build result is still valid
    if len(_memory) < MEMORY_LIMIT:
        _memory[key] = blob
    if _root is None:
        return
    try:
        _root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=_root, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, _root / f"{key}.snap")
        stats.stores += 1
    except OSError:
        pass  # read-only or full disk: the in-memory tier still works
