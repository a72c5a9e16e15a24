"""The multiway tree overlay: joins, expensive leaves, hop-by-hop search.

Message accounting matches the other two systems so the experiments can
read all three with the same harness, and the public operations return the
unified result types from :mod:`repro.core.results`.

As on the Chord side, every operation is written once as a *step
generator* (see :mod:`repro.util.stepper`): one
:class:`~repro.sim.topology.Hop` yielded per inter-node hop — parent,
child or neighbour, exactly the walks §V-B charges the baseline for —
naming the pair of nodes the message travels between so the event-driven
runtime can price it per link.  The synchronous facade
(:class:`~repro.net.overlay.OverlayNetwork`) drives them atomically; the
event-driven runtime (:class:`~repro.sim.runtime.AsyncOverlayRuntime`,
which needs no multiway-specific code) schedules each resumption on the
simulator, so searches, joins and departures interleave at hop
granularity while sending the same message sequence as the synchronous
path.

Concurrency semantics:

* Structural mutations — accepting a child, detaching a leaf,
  transplanting a replacement — run in a single segment each, together
  with the check that authorised them, so the tree is consistent at every
  event boundary.
* A walk whose carrier vanishes (its node was transplanted away) retries
  through a fresh contact for joins and re-walks for leaves; queries fail
  over to the client.
* Range scans truncate (``complete=False``) when an intersecting subtree
  vanishes mid-fan-out instead of failing the whole query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.ranges import Range
from repro.core.results import (
    DataOpResult,
    JoinResult,
    LeaveResult,
    RangeSearchResult,
    SearchResult,
)
from repro.core.storage import LocalStore
from repro.multiway.node import ChildLink, MultiwayNode
from repro.net.address import Address, AddressAllocator, AddressPoolDict
from repro.net.bus import MessageBus, Trace
from repro.net.message import MsgType
from repro.net.overlay import OverlayNetwork
from repro.sim.topology import Hop
from repro.util.errors import NetworkEmptyError, PeerNotFoundError, ProtocolError
from repro.util.rng import SeededRng
from repro.util.stepper import MessageSteps, drive


@dataclass
class MultiwayConfig:
    """Tree-wide settings.

    ``fanout`` caps how many children a node accepts before forwarding a
    join downward.  Reference [10] places no constraint on fan-out; the
    BATON paper's discussion (§V-A) covers both regimes — generous fan-out
    makes joins cheap and leaves expensive, small fan-out the reverse —
    so the cap is a parameter here (an ablation knob for Figure 8(a)).
    """

    fanout: int = 6
    domain: Range = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.domain is None:
            self.domain = Range.full_domain()
        if self.fanout < 2:
            raise ValueError("fanout must be at least 2")


class MultiwayNetwork(OverlayNetwork):
    """A simulated multiway-tree overlay."""

    overlay_name = "multiway"

    def __init__(self, config: Optional[MultiwayConfig] = None, seed: int = 0):
        self.config = config or MultiwayConfig()
        self.rng = SeededRng(seed)
        self.bus = MessageBus()
        self.alloc = AddressAllocator()
        self.nodes: Dict[Address, MultiwayNode] = AddressPoolDict()
        self.root: Optional[Address] = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def domain(self) -> Range:
        """The key interval workload generators should draw from."""
        return self.config.domain

    def node(self, address: Address) -> MultiwayNode:
        """The live node at ``address`` (raises if departed/unknown)."""
        try:
            return self.nodes[address]
        except KeyError:
            raise PeerNotFoundError(address) from None

    def addresses(self) -> List[Address]:
        return list(self.nodes)

    def random_peer_address(self) -> Address:
        """A uniformly random live node (query/join entry points)."""
        if not self.nodes:
            raise NetworkEmptyError("tree has no nodes")
        return self.nodes.random_address(self.rng)

    def store_of(self, address: Address) -> LocalStore:
        """The key store of the live node at ``address``."""
        return self.node(address).store

    # -- construction ----------------------------------------------------------

    def bootstrap(self) -> Address:
        if self.nodes:
            raise ValueError("tree is already bootstrapped")
        node = MultiwayNode(self.alloc.allocate(), 0, self.config.domain)
        self.nodes[node.address] = node
        self.bus.register(node.address)
        self.root = node.address
        return node.address

    def join_steps(
        self,
        entry: Address,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Descend from the contact node to a parent with spare fan-out.

        The join both facades run; ``trace`` is cut at the acceptance
        into the result's find and update halves (``degraded`` is unused).

        The walk returns in the segment that verified its parent can
        accept, and the accept runs in that same segment, so no other
        operation can snatch the slot.  A walk whose carrier vanished (its
        node was transplanted away) re-enters through a fresh contact —
        unreachable when driven synchronously.
        """
        current = entry
        for _attempt in range(16):
            try:
                parent_address = yield from self.join_find_steps(current)
            except PeerNotFoundError:
                current = self.random_peer_address()
                yield Hop(None, current)  # fresh client ingress
                continue
            find_trace = trace.frozen("multiway.join.find")
            child = self.accept_child(self.nodes[parent_address])
            return JoinResult(
                address=child.address,
                parent=parent_address,
                find_trace=find_trace,
                update_trace=trace.since(find_trace, "multiway.join.update"),
            )
        raise ProtocolError("multiway join kept losing its walk carrier")

    def join_find_steps(self, entry: Address) -> MessageSteps:
        """Walk to a node with spare fan-out and a splittable range.

        The acceptance check and the return happen in the same segment, so
        a caller that accepts immediately sees exactly the state the check
        read — no other operation can run in between.
        """
        current = entry
        limit = self.size + 8
        for _ in range(limit):
            node = self.node(current)
            if len(node.children) < self.config.fanout and node.range.can_split:
                return current
            if node.children:
                next_hop = self.rng.choice(node.children).address
            elif node.parent is not None:
                next_hop = node.parent  # range too narrow to split: back up
            else:
                raise ProtocolError("multiway join found no splittable node")
            self.bus.send(current, next_hop, MsgType.JOIN_FIND)
            yield Hop(current, next_hop)
            current = next_hop
        raise ProtocolError("multiway join did not find a parent")

    def accept_child(self, parent: MultiwayNode) -> MultiwayNode:
        """Hand the upper half of the parent's own range to a new child."""
        pivot = parent.store.split_pivot(parent.range)
        parent_range, child_range = parent.range.split_at(pivot)
        moved = parent.store.split_at_or_above(pivot)
        parent.range = parent_range

        child = MultiwayNode(self.alloc.allocate(), parent.level + 1, child_range)
        child.store.extend(moved)
        child.parent = parent.address
        self.nodes[child.address] = child
        self.bus.register(child.address)
        self.bus.send(parent.address, child.address, MsgType.JOIN_TRANSFER)

        # Children stay ordered by coverage; the newcomer's coverage is the
        # range it was just handed.
        link = ChildLink(address=child.address, coverage=child_range)
        parent.children.append(link)
        parent.children.sort(key=lambda item: item.coverage.low)
        self._wire_neighbors(parent, child)
        return child

    def _wire_neighbors(self, parent: MultiwayNode, child: MultiwayNode) -> None:
        """Splice the new child into its level's neighbour chain.

        The left neighbour is the previous child of this parent in coverage
        order, or the rightmost child of the parent's left neighbour — one
        extra message either way, matching [10]'s local link maintenance.
        """
        index = next(
            i for i, link in enumerate(parent.children) if link.address == child.address
        )
        left: Optional[Address] = None
        if index > 0:
            left = parent.children[index - 1].address
        elif parent.left_neighbor is not None:
            uncle = self.nodes.get(parent.left_neighbor)
            if uncle is not None and uncle.children:
                self.bus.send(parent.address, uncle.address, MsgType.TABLE_UPDATE)
                left = uncle.children[-1].address
        if left is not None and left in self.nodes:
            # Splice into the doubly-linked level chain right after `left`.
            left_node = self.nodes[left]
            right = left_node.right_neighbor
            child.left_neighbor = left
            child.right_neighbor = right
            self.bus.send(child.address, left, MsgType.TABLE_UPDATE)
            left_node.right_neighbor = child.address
            if right is not None and right in self.nodes:
                self.bus.send(child.address, right, MsgType.TABLE_UPDATE)
                self.nodes[right].left_neighbor = child.address
            return
        right: Optional[Address] = None
        if index < len(parent.children) - 1:
            right = parent.children[index + 1].address
        elif parent.right_neighbor is not None:
            uncle = self.nodes.get(parent.right_neighbor)
            if uncle is not None and uncle.children:
                self.bus.send(parent.address, uncle.address, MsgType.TABLE_UPDATE)
                right = uncle.children[0].address
        if right is not None and right in self.nodes:
            # Splice right before `right`.
            right_node = self.nodes[right]
            far_left = right_node.left_neighbor
            child.right_neighbor = right
            child.left_neighbor = far_left
            self.bus.send(child.address, right, MsgType.TABLE_UPDATE)
            right_node.left_neighbor = child.address
            if far_left is not None and far_left in self.nodes:
                self.bus.send(child.address, far_left, MsgType.TABLE_UPDATE)
                self.nodes[far_left].right_neighbor = child.address

    # -- departure ---------------------------------------------------------------

    def leave_steps(
        self,
        address: Address,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Graceful departure; §V-A's expensive multi-child consultation.

        The leave both facades run; ``trace`` is cut at the commit into
        the result's find and update halves (``degraded`` is unused).

        Detaching a leaf and transplanting a replacement each run in one
        segment with the check that authorised them; a walk that lost a
        race (a consulted child vanished, we were transplanted away, the
        replacement is gone or no longer a leaf) is re-walked — unreachable
        when driven synchronously.  The store handovers are priced hops
        after the atomic surgery, one per transfer.
        """
        for _attempt in range(8):
            departing = self.node(address)  # raises if the node already vanished
            find_trace = trace.frozen("multiway.leave.find")
            replacement_address: Optional[Address] = None
            handovers: List[Hop] = []
            if self.size == 1:
                del self.nodes[address]
                self.bus.unregister(address)
                self.root = None
                break
            if departing.is_leaf:
                handovers = [Hop(address, self.detach_leaf(departing))]
                break
            try:
                replacement_address = yield from self.replacement_steps(departing)
            except PeerNotFoundError:
                yield Hop(address, address)  # a consulted child vanished; re-walk
                continue
            replacement = self.nodes.get(replacement_address)
            if (
                self.nodes.get(address) is not departing  # transplanted away
                or replacement is None
                or not replacement.is_leaf
            ):
                yield Hop(address, address)  # lost the race; walk again
                continue
            find_trace = trace.frozen("multiway.leave.find")
            absorber = self.detach_leaf(replacement)
            self.transplant(departing, replacement)
            handovers = [
                Hop(replacement_address, absorber),
                Hop(address, replacement_address),
            ]
            break
        else:
            raise ProtocolError(f"multiway leave of address {address} kept losing races")
        result = LeaveResult(
            departed=address,
            replacement=replacement_address,
            find_trace=find_trace,
            update_trace=trace.since(find_trace, "multiway.leave.update"),
        )
        yield from handovers
        return result

    def replacement_steps(self, node: MultiwayNode) -> MessageSteps:
        """Descend to a leaf, querying *all* children at every level.

        This is the cost centre the paper calls out: each step costs one
        message per child (gathering their states) before one is chosen.
        Yields once per level descended.
        """
        if node.is_leaf:
            return None
        current = node
        limit = self.size + 8
        for _ in range(limit):
            best: Optional[MultiwayNode] = None
            for link in current.children:
                self.bus.send(current.address, link.address, MsgType.LEAVE_FIND)
                candidate = self.node(link.address)
                if best is None or len(candidate.children) < len(best.children):
                    best = candidate
            if best is None:
                return current.address
            if best.is_leaf:
                return best.address
            yield Hop(current.address, best.address)
            current = best
        raise ProtocolError("multiway replacement walk did not terminate")

    def detach_leaf(self, leaf: MultiwayNode) -> Address:
        """Unhook a leaf; its interval flows to its in-order predecessor.
        Returns the absorber's address, so callers can price the bulk
        store handover on the right link (a root leaf raises instead —
        callers handle the single-node network before coming here).

        The parent's own range is always the *lowest* segment of its
        coverage, so the segment just below the leaf's interval exists
        inside the parent's subtree: either the parent itself (the leaf was
        the most recent hand-out) or a node deeper in a sibling subtree,
        reached by routing — whose coverage chain up to the parent must then
        be widened.  All of it costs counted messages, which is exactly the
        "leave is expensive" behaviour §V-A reports for this structure.
        """
        if leaf.parent is None:
            raise ProtocolError("cannot detach the root as a leaf")
        parent = self.nodes[leaf.parent]
        link = parent.child_link_to(leaf.address)
        parent.children.remove(link)

        if parent.range.high == leaf.coverage.low:
            absorber = parent
        else:
            absorber = self.nodes[
                drive(
                    self.route_steps(
                        parent.address, leaf.coverage.low - 1, MsgType.LEAVE_TRANSFER
                    )
                )
            ]
        self.bus.send(leaf.address, absorber.address, MsgType.LEAVE_TRANSFER)
        absorber.store.extend(leaf.store.clear())
        absorber.range = absorber.range.merge(leaf.coverage)

        # Widen coverages (and the parents' child links) from the absorber
        # up to — but not including — the departing leaf's parent.
        current = absorber
        while current.address != parent.address:
            current.coverage = Range(
                current.coverage.low, max(current.coverage.high, leaf.coverage.high)
            )
            if current.parent is None:
                break
            holder = self.nodes[current.parent]
            holder_link = holder.child_link_to(current.address)
            if holder_link is not None:
                self.bus.send(current.address, holder.address, MsgType.TABLE_UPDATE)
                holder_link.coverage = current.coverage
            current = holder

        for side_address, point_right in (
            (leaf.left_neighbor, True),
            (leaf.right_neighbor, False),
        ):
            if side_address is None or side_address not in self.nodes:
                continue
            self.bus.send(leaf.address, side_address, MsgType.LEAVE_TRANSFER)
            neighbor = self.nodes[side_address]
            if point_right:
                neighbor.right_neighbor = leaf.right_neighbor
            else:
                neighbor.left_neighbor = leaf.left_neighbor
        del self.nodes[leaf.address]
        self.bus.unregister(leaf.address)
        return absorber.address

    def transplant(self, departing: MultiwayNode, replacement: MultiwayNode) -> None:
        """The replacement assumes the departing node's place and content."""
        self.nodes[replacement.address] = replacement
        self.bus.register(replacement.address)
        self.bus.send(departing.address, replacement.address, MsgType.LEAVE_TRANSFER)
        replacement.level = departing.level
        replacement.range = departing.range
        replacement.coverage = departing.coverage
        replacement.store = departing.store
        replacement.parent = departing.parent
        replacement.children = departing.children
        replacement.left_neighbor = departing.left_neighbor
        replacement.right_neighbor = departing.right_neighbor

        snapshot_children = list(replacement.children)
        if replacement.parent is not None and replacement.parent in self.nodes:
            parent = self.nodes[replacement.parent]
            link = parent.child_link_to(departing.address)
            if link is not None:
                self.bus.send(replacement.address, parent.address, MsgType.TABLE_UPDATE)
                link.address = replacement.address
        for link in snapshot_children:
            if link.address in self.nodes:
                self.bus.send(replacement.address, link.address, MsgType.TABLE_UPDATE)
                self.nodes[link.address].parent = replacement.address
        for side_address, point_right in (
            (replacement.left_neighbor, True),
            (replacement.right_neighbor, False),
        ):
            if side_address is None or side_address not in self.nodes:
                continue
            self.bus.send(replacement.address, side_address, MsgType.TABLE_UPDATE)
            neighbor = self.nodes[side_address]
            if point_right:
                neighbor.right_neighbor = replacement.address
            else:
                neighbor.left_neighbor = replacement.address
        if self.root == departing.address:
            self.root = replacement.address
        del self.nodes[departing.address]
        self.bus.unregister(departing.address)

    # -- search -------------------------------------------------------------------

    def route_steps(self, start: Address, key: int, mtype: MsgType) -> MessageSteps:
        """Hop link by link toward the owner of ``key`` (§V-B's cost).

        Same-level coverages are not contiguous — the interval between two
        neighbours may be managed by a shallower ancestor — so a sideways
        step that would bounce straight back instead climbs to the parent.
        """
        current = start
        previous: Optional[Address] = None
        limit = 4 * self.size + 32
        for _ in range(limit):
            node = self.node(current)
            if node.range.contains(key):
                return current
            next_hop: Optional[Address] = None
            if node.coverage.contains(key):
                child = node.child_covering(key)
                if child is not None:
                    next_hop = child.address
            elif key < node.coverage.low:
                next_hop = node.left_neighbor or node.parent
            else:
                next_hop = node.right_neighbor or node.parent
            if next_hop == previous or next_hop is None:
                next_hop = node.parent
            if next_hop is None:
                raise ProtocolError(f"multiway routing stuck at {node!r} for {key}")
            self.bus.send(current, next_hop, mtype)
            yield tuple.__new__(Hop, (current, next_hop))
            previous, current = current, next_hop
        raise ProtocolError(f"multiway search for {key} did not terminate")

    def search_exact_steps(
        self,
        start: Address,
        key: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Route link by link to ``key``'s owner (``degraded`` is unused)."""
        owner = yield from self.route_steps(start, key, MsgType.SEARCH)
        found = key in self.node(owner).store
        return SearchResult(found=found, owner=owner, trace=trace)

    def search_range_steps(
        self,
        start: Address,
        low: int,
        high: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Collect [low, high) by routing to low's owner, climbing to a
        covering ancestor, then fanning out over every intersecting child
        subtree (one message per visit).

        A subtree that vanished under concurrent churn truncates the answer
        (``complete=False``) instead of failing the whole query.
        """
        first = yield from self.route_steps(start, low, MsgType.RANGE_SEARCH)
        owners: List[Address] = []
        keys: List[int] = []
        complete = True
        current = self.node(first)
        # Climb until the subtree coverage spans the query (or root).
        while current.parent is not None and current.coverage.high < high:
            parent_address = current.parent
            try:
                self.bus.send(current.address, parent_address, MsgType.RANGE_SEARCH)
                parent = self.node(parent_address)
            except PeerNotFoundError:
                return RangeSearchResult(
                    owners=owners, keys=sorted(keys), trace=trace, complete=False
                )
            yield Hop(current.address, parent_address)
            current = parent
        # Each stack entry remembers which node sent the fan-out message, so
        # the hop to the next visited subtree is priced on the real link.
        stack: List[tuple[Address, Address]] = [(current.address, current.address)]
        query = Range(low, high)
        while stack:
            sender, address = stack.pop()
            node = self.nodes.get(address)
            if node is None:
                complete = False  # subtree vanished mid-scan: truncated
                continue
            owners.append(address)
            keys.extend(node.store.keys_in(low, high))
            for link in node.children:
                if link.coverage.overlaps(query):
                    try:
                        self.bus.send(address, link.address, MsgType.RANGE_SEARCH)
                    except PeerNotFoundError:
                        complete = False
                        continue
                    stack.append((address, link.address))
            if stack:
                yield Hop(stack[-1][0], stack[-1][1])
        return RangeSearchResult(
            owners=owners, keys=sorted(keys), trace=trace, complete=complete
        )

    # -- data ------------------------------------------------------------------------

    def data_op_steps(
        self,
        start: Address,
        key: int,
        mtype: MsgType,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Route an insert or delete to ``key``'s owner and apply it there;
        a key beyond the root's coverage expands it instead of routing.
        """
        owner: Optional[Address] = None
        if not self.config.domain.contains(key):
            root = self.node(self.root)
            if key < root.coverage.low or key >= root.coverage.high:
                root.coverage = root.coverage.extend_to_include(key)
                root.range = root.range.extend_to_include(key)
                owner = self.root
        if owner is None:
            owner = yield from self.route_steps(start, key, mtype)
        store = self.node(owner).store
        if mtype is MsgType.INSERT:
            store.insert(key)
            applied = True
        else:
            applied = store.delete(key)
        return DataOpResult(applied=applied, owner=owner, trace=trace)

    def bulk_load(self, keys: List[int]) -> int:
        """Place keys at their owners without routed messages (untimed load)."""
        owners = sorted(self.nodes.values(), key=lambda n: n.range.low)
        bounds = [n.range.low for n in owners]
        import bisect

        placed = 0
        for key in keys:
            index = bisect.bisect_right(bounds, key) - 1
            if index < 0:
                continue
            owner = owners[index]
            if owner.range.contains(key):
                owner.store.insert(key)
                placed += 1
        return placed

    # -- diagnostics ---------------------------------------------------------------

    def depth(self) -> int:
        """Maximum node level plus one (tree height)."""
        return max(node.level for node in self.nodes.values()) + 1
