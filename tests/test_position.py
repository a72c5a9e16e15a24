"""Unit tests for tree-position arithmetic (repro.core.ids)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.ids import Position, ROOT
from repro.core.links import LEFT, RIGHT, RoutingTable
from repro.core.restructure import inorder_neighbor_code

positions = st.integers(min_value=0, max_value=40).flatmap(
    lambda level: st.integers(min_value=1, max_value=2**level).map(
        lambda number: Position(level, number)
    )
)


def _grow(growth) -> list[Position]:
    """A *closed* occupancy (every occupied slot's parent is occupied, the
    tree-closure invariant the in-order walk relies on): grown from the
    root by hanging one child at a time under an already occupied slot."""
    occupied = [ROOT]
    for pick, right in growth:
        parent = occupied[pick % len(occupied)]
        child = parent.right_child() if right else parent.left_child()
        if child not in occupied:
            occupied.append(child)
    return occupied


def routing_table_slots(position: Position, side: str) -> list[Position]:
    """The slots of ``position``'s routing table on ``side``, nearest first."""
    table = RoutingTable(position, side)
    return [table.position_at(index) for index in table.valid_indices()]


occupancies = st.lists(
    st.tuples(st.integers(min_value=0), st.booleans()), max_size=60
).map(_grow)


class TestConstruction:
    def test_root(self):
        assert ROOT.level == 0
        assert ROOT.number == 1

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            Position(-1, 1)

    def test_rejects_number_below_one(self):
        with pytest.raises(ValueError):
            Position(2, 0)

    def test_rejects_number_above_level_width(self):
        with pytest.raises(ValueError):
            Position(2, 5)

    def test_boundary_numbers_accepted(self):
        assert Position(3, 1).number == 1
        assert Position(3, 8).number == 8


class TestFamily:
    def test_children_of_root(self):
        assert ROOT.left_child() == Position(1, 1)
        assert ROOT.right_child() == Position(1, 2)

    def test_parent_of_children(self):
        for node in (Position(3, 1), Position(3, 8), Position(5, 19)):
            assert node.left_child().parent() == node
            assert node.right_child().parent() == node

    def test_root_has_no_parent(self):
        assert ROOT.parent() is None

    def test_left_children_are_odd(self):
        assert Position(2, 1).is_left_child
        assert Position(2, 3).is_left_child
        assert not Position(2, 2).is_left_child

    def test_right_children_are_even(self):
        assert Position(1, 1).right_child() == Position(2, 2)
        assert Position(1, 2).right_child() == Position(2, 4)
        assert not Position(2, 2).is_left_child
        assert not Position(2, 4).is_left_child

    def test_root_is_neither_side(self):
        assert not ROOT.is_left_child

    def test_sibling(self):
        assert Position(2, 1).sibling() == Position(2, 2)
        assert Position(2, 2).sibling() == Position(2, 1)
        assert ROOT.sibling() is None


class TestTableGeometry:
    def test_left_positions_of_edge_node(self):
        assert routing_table_slots(Position(3, 1), LEFT) == []

    def test_right_positions_of_edge_node(self):
        assert routing_table_slots(Position(3, 8), RIGHT) == []

    def test_left_positions_powers_of_two(self):
        positions = routing_table_slots(Position(3, 8), LEFT)
        assert [p.number for p in positions] == [7, 6, 4]

    def test_right_positions_powers_of_two(self):
        positions = routing_table_slots(Position(3, 1), RIGHT)
        assert [p.number for p in positions] == [2, 3, 5]

    def test_table_position_by_index(self):
        node = Position(4, 8)
        assert RoutingTable(node, LEFT).position_at(0) == Position(4, 7)
        assert RoutingTable(node, LEFT).position_at(2) == Position(4, 4)
        assert RoutingTable(node, RIGHT).position_at(3) == Position(4, 16)

    def test_table_position_out_of_range_is_none(self):
        assert RoutingTable(Position(3, 1), LEFT).position_at(0) is None
        assert RoutingTable(Position(3, 8), RIGHT).position_at(0) is None


class TestInorderOrder:
    def test_left_child_precedes_parent(self):
        node = Position(2, 3)
        assert node.left_child().inorder_lt(node)
        assert not node.inorder_lt(node.left_child())

    def test_parent_precedes_right_child(self):
        node = Position(2, 3)
        assert node.inorder_lt(node.right_child())

    def test_inorder_matches_recursive_traversal(self):
        def traverse(node: Position, depth: int):
            if depth == 0:
                return [node]
            return (
                traverse(node.left_child(), depth - 1)
                + [node]
                + traverse(node.right_child(), depth - 1)
            )

        full_tree = traverse(ROOT, 4)
        for before, after in zip(full_tree, full_tree[1:]):
            assert before.inorder_lt(after)

    def test_inorder_key_in_unit_interval(self):
        for position in (ROOT, Position(3, 1), Position(3, 8), Position(10, 512)):
            num, den = position.inorder_num_den()
            assert 0 < num < den

    def test_inorder_is_total_order(self):
        nodes = [Position(level, n) for level in range(5) for n in range(1, 2**level + 1)]
        for a in nodes:
            for b in nodes:
                if a == b:
                    assert not a.inorder_lt(b)
                    assert not b.inorder_lt(a)
                else:
                    assert a.inorder_lt(b) != b.inorder_lt(a)


class TestHeapCode:
    """``Position.code`` is the geometry the position map and the link
    rebuild run on; every shift must agree with the (level, number) form."""

    def test_root_and_first_levels(self):
        assert ROOT.code == 1
        assert [Position(2, n).code for n in (1, 2, 3, 4)] == [4, 5, 6, 7]

    @given(positions)
    def test_round_trips(self, position):
        assert Position.from_code(position.code) == position
        assert position.code.bit_length() - 1 == position.level

    @given(positions)
    def test_family_is_shifts(self, position):
        code = position.code
        assert position.left_child().code == 2 * code
        assert position.right_child().code == 2 * code + 1
        if position == ROOT:
            assert position.parent() is None and position.sibling() is None
        else:
            assert position.parent().code == code >> 1
            assert position.sibling().code == code ^ 1
            assert position.is_left_child == (not code & 1)

    @given(positions, st.integers(min_value=0, max_value=41))
    def test_table_slots_are_offsets_within_the_level(self, position, index):
        code, level_start = position.code, 1 << position.level
        for side, target in ((LEFT, code - (1 << index)), (RIGHT, code + (1 << index))):
            slot = RoutingTable(position, side).position_at(index)
            if level_start <= target < 2 * level_start:
                assert slot.code == target
            else:
                assert slot is None

    @given(occupancies)
    def test_int_inorder_walk_agrees_with_inorder_lt(self, occupied):
        import functools

        ordered = sorted(
            occupied,
            key=functools.cmp_to_key(
                lambda a, b: -1 if a.inorder_lt(b) else (1 if b.inorder_lt(a) else 0)
            ),
        )
        codes = {position.code for position in occupied}
        for index, position in enumerate(ordered):
            before = ordered[index - 1].code if index else None
            after = ordered[index + 1].code if index + 1 < len(ordered) else None
            assert inorder_neighbor_code(codes, position.code, LEFT) == before
            assert inorder_neighbor_code(codes, position.code, RIGHT) == after
