"""State held by one Chord node."""

from __future__ import annotations

from typing import List, Optional

from repro.core.storage import LocalStore
from repro.net.address import Address


class ChordNode:
    """A peer on the Chord ring.

    ``finger[i]`` is the first node whose identifier succeeds
    ``(node_id + 2^i) mod 2^m`` — ``finger[0]`` doubles as the successor.
    ``store`` maps hashed keys back to the original data keys so the
    experiments can verify lookups end to end.
    """

    def __init__(self, address: Address, node_id: int, m_bits: int):
        self.address = address
        self.node_id = node_id
        self.m_bits = m_bits
        self.predecessor: Optional[Address] = None
        self.finger: List[Optional[Address]] = [None] * m_bits
        self.store = LocalStore()

    @property
    def successor(self) -> Optional[Address]:
        return self.finger[0]

    @successor.setter
    def successor(self, address: Optional[Address]) -> None:
        self.finger[0] = address

    def __repr__(self) -> str:
        return f"ChordNode(addr={self.address}, id={self.node_id})"
