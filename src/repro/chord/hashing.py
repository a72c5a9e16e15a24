"""Identifier-space arithmetic for the Chord ring.

:func:`in_interval`, :func:`in_open_interval` and :func:`id_distance` are
the reference definitions of ring intervals.  The routing kernel in
:mod:`repro.chord.network` does not call them per hop — it tests the same
intervals as masked clockwise distances, inline — and the property tests
(``tests/test_chord_properties.py``) check those inline forms against these
helpers, edges included.
"""

from __future__ import annotations

DEFAULT_M_BITS = 24
"""Identifier width; 2^24 ids comfortably hosts the paper's 10^4 peers."""


def hash_key(key: int, m_bits: int = DEFAULT_M_BITS) -> int:
    """Map a data key onto the ring.

    Fibonacci (Knuth multiplicative) hashing: deterministic, fast, and —
    the property that matters here — order-destroying, which is exactly why
    Chord cannot serve range queries (§II of the BATON paper).
    """
    return (key * 2654435761) % (1 << m_bits)


def in_interval(value: int, low: int, high: int, m_bits: int = DEFAULT_M_BITS) -> bool:
    """Whether ``value`` lies in the half-open ring interval (low, high].

    Ring intervals wrap: (5, 2] on an 8-id ring is {6, 7, 0, 1, 2}.  An
    interval with ``low == high`` covers the whole ring, matching Chord's
    degenerate single-node case.
    """
    size = 1 << m_bits
    value, low, high = value % size, low % size, high % size
    if low == high:
        return True
    if low < high:
        return low < value <= high
    return value > low or value <= high


def in_open_interval(
    value: int, low: int, high: int, m_bits: int = DEFAULT_M_BITS
) -> bool:
    """Whether ``value`` lies strictly inside the ring interval (low, high)."""
    size = 1 << m_bits
    value, low, high = value % size, low % size, high % size
    if low == high:
        return value != low
    if low < high:
        return low < value < high
    return value > low or value < high


def id_distance(start: int, end: int, m_bits: int = DEFAULT_M_BITS) -> int:
    """Clockwise distance from ``start`` to ``end`` on the ring."""
    size = 1 << m_bits
    return (end - start) % size
