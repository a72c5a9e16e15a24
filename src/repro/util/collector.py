"""Pausing CPython's cycle collector over refcount-clean loops.

The event loop and BATON's whole-network passes free what they allocate by
reference counting (DESIGN.md, "Performance contract"): a completed op
leaves no cycle behind.  The cycle collector still runs a pass every few
hundred net allocations, and at N=10k those passes cost a quarter of a
churn run while reclaiming a few hundred objects.  :func:`paused` switches
it off for the duration of one such region and back on afterwards; the
garbage a paused region does make is bounded by its failed ops and
periodic closures, and the first allocation after it triggers one young
generation catch-up pass.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused() -> Iterator[None]:
    """Run the ``with`` body with automatic cycle collection off.

    Only a collector this call found enabled is disabled, and only that
    one is re-enabled (in a ``finally``, so an exception restores it too):
    nested regions and callers that turned the collector off themselves
    keep their own state.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
