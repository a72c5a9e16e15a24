"""Message categories for traffic accounting.

The paper's evaluation metric is the *number of passing messages*, broken
down by operation (join, leave, search, …).  Every hop in every protocol is
therefore counted at the bus under a :class:`MsgType` category —
``bus.send(src, dst, mtype)`` — before the receiving peer acts on it.  No
message object exists: the simulation executes the receiver's step
directly, so the three values the accounting reads are all a hop carries.

The categories are deliberately semantic rather than system-specific so the
same accounting works for BATON, Chord and the multiway tree: a Chord lookup
hop and a BATON exact-match hop both count as :attr:`MsgType.SEARCH`.
"""

from __future__ import annotations

import enum


class MsgType(enum.Enum):
    """Semantic category of a message, used for traffic accounting."""

    # Members are singletons, so identity hashing is sound; the default
    # Enum hash goes through a Python-level __hash__ on every traffic
    # counter update, which adds up to real time across millions of
    # counted messages.
    __hash__ = object.__hash__

    #: Forwarding a JOIN request while locating the accepting node
    #: (Algorithm 1), or a Chord ``find_successor`` during join.
    JOIN_FIND = "join_find"
    #: Topology-aware join probe: the joiner's contact peer asks a candidate
    #: entry point for its neighbourhood coordinates (locality extension;
    #: see DESIGN.md "Locality contract").  The candidate's RESPONSE carries
    #: them back; both legs are priced like any other message.
    JOIN_PROBE = "join_probe"
    #: Range/content handover and link setup when a join is accepted.
    JOIN_TRANSFER = "join_transfer"
    #: Any routing-state maintenance: BATON sideways-table updates, Chord
    #: finger fixes, multiway child/neighbour updates, range-change notices.
    TABLE_UPDATE = "table_update"
    #: Forwarding a FINDREPLACEMENT request (Algorithm 2).
    LEAVE_FIND = "leave_find"
    #: Content/range handover and LEAVE notifications on departure.
    LEAVE_TRANSFER = "leave_transfer"
    #: Exact-match query forwarding.
    SEARCH = "search"
    #: Range-query forwarding and partial-answer expansion.
    RANGE_SEARCH = "range_search"
    #: Insert routing and execution.
    INSERT = "insert"
    #: Delete routing and execution.
    DELETE = "delete"
    #: Load-balancing coordination, probes and data migration.
    BALANCE = "balance"
    #: Node position shifts during network restructuring.
    RESTRUCTURE = "restructure"
    #: Failure detection reports and table regeneration during repair.
    REPAIR = "repair"
    #: Replies carrying requested information back to an asker.
    RESPONSE = "response"
    #: Replica maintenance (the data-durability extension; not in the
    #: paper, see DESIGN.md "Durability contract").
    REPLICATE = "replicate"
    #: Anti-entropy digest exchange during a ``reconcile()`` maintenance
    #: sweep (one message per peer per round — the modeled cost of the
    #: map-based link rebuild; see DESIGN.md "Durability contract").
    RECONCILE = "reconcile"
    #: Liveness-monitor probe to an adjacency neighbour (the chaos
    #: subsystem's failure detector; see DESIGN.md "Delivery contract").
    #: Probes to dead peers are counted before the bus raises, like any
    #: other send — detection traffic is real traffic.
    HEARTBEAT = "heartbeat"
    #: Range-multicast routing and fan-out delegation (the dissemination
    #: subsystem; see DESIGN.md "Dissemination contract").
    MULTICAST = "multicast"
    #: Subscription installation: the route + range walk that stores a
    #: subscription entry at every range owner.
    SUBSCRIBE = "subscribe"
    #: Insert notification pushed from a range owner to a subscriber,
    #: stamped with a dissemination id for exactly-once application.
    NOTIFY = "notify"
