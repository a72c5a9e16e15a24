"""The overlay registry: names to network classes.

Experiments, the CLI, benchmarks and the concurrent workload driver all
select overlays by name — ``overlays.get("baton")`` — so adding a fourth
overlay is one :func:`register` call, not a sweep through every harness.
An entry builds through its network class's ``build(n, seed, config,
keys)`` — the growth loop :class:`~repro.net.overlay.OverlayNetwork`
writes once — and builds uncached; the experiments' snapshot-cached
builder (``repro.experiments.harness.build_network``) runs the same
``build``, so a newcomer is constructed under the same regime everywhere.

Each entry **advertises** what its overlay can do (DESIGN.md, "The
``Overlay`` protocol"): the ``capabilities`` set — ``fail`` / ``repair`` /
``balance`` / ``reconcile`` / ``replication`` / ``multicast`` /
``subscribe`` — comes straight from the network class, next to its
``overlay_name``, and is never stubbed with no-ops.  Harnesses that need an
optional feature check the entry (or ``runtime.supports(...)``) and asking
an overlay for a feature it does not advertise raises
:class:`~repro.util.errors.CapabilityError` — so a comparison can never
silently measure a missing feature.  The same honesty applies to the
data-durability extension (DESIGN.md, "Durability contract"):
``build_async(..., replication=True)`` only works for entries advertising
``replication`` and registered with a ``replicated_config`` factory —
today that is BATON alone; Chord and the multiway baseline refuse rather
than pretend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.runtime import AsyncOverlayRuntime
from repro.sim.topology import Topology
from repro.util.errors import CapabilityError


@dataclass(frozen=True)
class OverlayEntry:
    """One registered overlay: its sync network class (which
    :class:`AsyncOverlayRuntime` wraps, with no code of its own per
    overlay)."""

    description: str
    network_cls: type
    #: Builds a network config with data replication turned on, for
    #: overlays that advertise the ``replication`` capability (None
    #: everywhere else — the capability check refuses first).
    replicated_config: Optional[Callable[[], object]] = None

    @property
    def name(self) -> str:
        """The overlay's registry name (declared by its network class)."""
        return self.network_cls.overlay_name

    @property
    def capabilities(self) -> frozenset:
        """Optional operations this overlay supports (from its network)."""
        return self.network_cls.capabilities

    def build(self, n_peers: int, seed: int = 0, **kwargs):
        """Grow a synchronous network of ``n_peers``."""
        return self.network_cls.build(n_peers, seed=seed, **kwargs)

    def build_async(
        self,
        n_peers: int,
        seed: int = 0,
        *,
        topology: Optional[Topology] = None,
        replication: bool = False,
        **kwargs,
    ) -> AsyncOverlayRuntime:
        """Grow a synchronous network and wrap it for concurrent traffic.

        ``topology`` selects the per-link transport model (a scalar
        latency model is the degenerate single-region case).
        ``replication=True`` turns on the data-durability extension and is
        refused (:class:`CapabilityError`) by overlays that do not
        advertise the capability.  The network is built fresh, never
        through the snapshot cache: cached construction is the experiment
        harness's (``repro.experiments.harness.build_network``).
        """
        if replication:
            if (
                "replication" not in self.capabilities
                or self.replicated_config is None
            ):
                raise CapabilityError(
                    f"the {self.name} overlay does not support "
                    "the 'replication' capability"
                )
            if kwargs.get("config") is not None:
                raise ValueError(
                    "pass either config= or replication=True, not both "
                    "(set replication on your config instead)"
                )
            kwargs["config"] = self.replicated_config()
        config, keys = kwargs.pop("config", None), kwargs.pop("keys", None)
        bulk = {"bulk": True} if kwargs.pop("bulk", False) else {}
        net = self.build(n_peers, seed, config=config, keys=keys, **bulk)
        return AsyncOverlayRuntime(net, topology=topology, **kwargs)

    def wrap(
        self,
        net,
        *,
        sim=None,
        topology: Optional[Topology] = None,
        **kwargs,
    ) -> AsyncOverlayRuntime:
        """Wrap an existing synchronous network in the async runtime."""
        return AsyncOverlayRuntime(net, sim=sim, topology=topology, **kwargs)


_REGISTRY: Dict[str, OverlayEntry] = {}


def register(entry: OverlayEntry) -> OverlayEntry:
    """Add an overlay to the registry; names must be unique."""
    if entry.name in _REGISTRY:
        raise ValueError(f"overlay {entry.name!r} is already registered")
    _REGISTRY[entry.name] = entry
    return entry


def get(name: str) -> OverlayEntry:
    """Look up one overlay by name (KeyError lists what exists)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available()) or "<none>"
        raise KeyError(f"unknown overlay {name!r}; available: {known}") from None


def available() -> List[str]:
    """Registered overlay names, sorted."""
    return sorted(_REGISTRY)
