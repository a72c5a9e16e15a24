"""Chord baseline (Stoica et al., SIGCOMM 2001).

The paper's evaluation compares BATON against Chord on join/leave cost,
routing-table update cost and exact-match queries (Figures 8(a)–(d)).  This
is a faithful message-counting reimplementation of the classic protocol:
an m-bit identifier ring, successor/predecessor pointers, finger tables,
iterative ``find_successor`` lookups, and the original join procedure with
``init_finger_table`` + ``update_others`` — the Θ(log² N) table-update cost
the paper contrasts with BATON's O(log N).

Keys are placed by hashing, which destroys order: exact lookups are
O(log N), but a range query can only be answered by walking successor
pointers around the ring — the cliff Figure 8(e) alludes to by omitting
Chord entirely.
"""

from repro.chord.hashing import hash_key, id_distance, in_interval
from repro.chord.network import ChordConfig, ChordNetwork
from repro.chord.node import ChordNode

__all__ = [
    "ChordNetwork",
    "ChordConfig",
    "ChordNode",
    "hash_key",
    "in_interval",
    "id_distance",
]
