"""Multiway-tree baseline (Liau et al., DBISP2P 2004 — reference [10]).

The second system the BATON paper compares against: a tree-structured
overlay with *unconstrained fan-out* where each peer links only to its
parent, its children, its siblings and its same-level neighbours — no
long-range sideways tables.  Consequences the evaluation exercises:

* **Join** is cheap when fan-out is generous (the contacted node usually
  accepts directly) and grows when requests must descend.
* **Leave** is expensive: a departing node gathers information from *all*
  its children to pick and promote a replacement (§V-A).
* **Search** hops link by link — parent, child or neighbour — so it pays
  long horizontal walks that BATON's 2^i tables skip (§V-B), and the tree
  is not height-balanced under skew (§II: it can degenerate toward a list).
"""

from repro.multiway.network import MultiwayConfig, MultiwayNetwork
from repro.multiway.node import MultiwayNode

__all__ = [
    "MultiwayNetwork",
    "MultiwayConfig",
    "MultiwayNode",
]
