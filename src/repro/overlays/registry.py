"""The overlay registry: names to network classes.

Experiments, the CLI, benchmarks and the concurrent workload driver all
select overlays by name — ``overlays.get("baton")`` is
:class:`~repro.core.network.BatonNetwork` itself — so adding a fourth
overlay is one :func:`register` call, not a sweep through every harness.
Everything else is read off the class (:class:`~repro.net.overlay.OverlayNetwork`):
its ``overlay_name`` and ``capabilities``, its uncached ``build(n, seed,
config, keys)`` and ``wrap(**runtime_kwargs)``.  The experiments'
snapshot-cached builder (``repro.experiments.harness.build_network``)
runs the same ``build``, so a newcomer is constructed under the same
regime everywhere.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.net.overlay import OverlayNetwork

_REGISTRY: Dict[str, Type[OverlayNetwork]] = {}


def register(cls: Type[OverlayNetwork]) -> Type[OverlayNetwork]:
    """Add an overlay network class to the registry; names must be unique."""
    if cls.overlay_name in _REGISTRY:
        raise ValueError(f"overlay {cls.overlay_name!r} is already registered")
    _REGISTRY[cls.overlay_name] = cls
    return cls


def get(name: str) -> Type[OverlayNetwork]:
    """Look up one overlay's network class by name (KeyError lists what
    exists)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available()) or "<none>"
        raise KeyError(f"unknown overlay {name!r}; available: {known}") from None


def available() -> List[str]:
    """Registered overlay names, sorted."""
    return sorted(_REGISTRY)
