"""Unit tests for links and routing tables (repro.core.links)."""

import pytest

from repro.core.ids import Position
from repro.core.links import LEFT, RIGHT, NodeInfo, RoutingTable
from repro.core.ranges import Range
from repro.net.address import Address


def info_at(level: int, number: int, address: int = 99, **kwargs) -> NodeInfo:
    return NodeInfo(
        address=Address(address),
        position=Position(level, number),
        range=Range(0, 10),
        **kwargs,
    )


class TestNodeInfo:
    def test_children_flags(self):
        bare = info_at(2, 1)
        assert not bare.has_any_child
        assert not bare.has_both_children
        one = info_at(2, 1, left_child=Address(5))
        assert one.has_any_child
        assert not one.has_both_children
        both = info_at(2, 1, left_child=Address(5), right_child=Address(6))
        assert both.has_both_children

    def test_is_immutable(self):
        # Was test_copy_is_independent: a holder could never see another
        # holder's edit because each had a copy; now because nobody can edit.
        original = info_at(2, 1)
        for field in NodeInfo._fields:
            with pytest.raises(AttributeError):
                setattr(original, field, None)
        with pytest.raises(AttributeError):
            original.load = 3  # no instance dict either
        changed = original._replace(left_child=Address(77))
        assert changed.left_child == Address(77)
        assert original.left_child is None


class TestRoutingTableGeometry:
    def test_valid_indices_edge(self):
        table = RoutingTable(owner=Position(3, 1), side=LEFT)
        assert list(table.valid_indices()) == []

    def test_valid_indices_interior(self):
        table = RoutingTable(owner=Position(3, 8), side=LEFT)
        assert list(table.valid_indices()) == [0, 1, 2]

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            RoutingTable(owner=Position(2, 1), side="up")

    def test_position_at_negative_index_is_none(self):
        table = RoutingTable(owner=Position(3, 8), side=LEFT)
        assert table.position_at(-1) is None
        assert table.position_at(0) == Position(3, 7)

    def test_entries_prepopulated_null(self):
        table = RoutingTable(owner=Position(3, 1), side=RIGHT)
        assert table.entries == [None, None, None]


class TestRoutingTableAccess:
    def test_set_and_get(self):
        table = RoutingTable(owner=Position(3, 4), side=RIGHT)
        entry = info_at(3, 5)
        table.set(0, entry)
        assert table.get(0) is entry

    def test_set_rejects_out_of_range_index(self):
        table = RoutingTable(owner=Position(3, 8), side=RIGHT)
        with pytest.raises(ValueError):
            table.set(0, info_at(3, 1))

    def test_set_rejects_mismatched_position(self):
        table = RoutingTable(owner=Position(3, 4), side=RIGHT)
        with pytest.raises(ValueError):
            table.set(0, info_at(3, 7))

    def test_occupied_iterates_nearest_first(self):
        table = RoutingTable(owner=Position(3, 1), side=RIGHT)
        table.set(2, info_at(3, 5, address=50))
        table.set(0, info_at(3, 2, address=20))
        assert [info.address for _, info in table.occupied()] == [20, 50]

    def test_addresses(self):
        table = RoutingTable(owner=Position(3, 1), side=RIGHT)
        table.set(1, info_at(3, 3, address=30))
        assert table.addresses() == [30]


class TestPaperPredicates:
    def test_empty_table_is_vacuously_full(self):
        table = RoutingTable(owner=Position(0, 1), side=LEFT)
        assert table.is_full()

    def test_full_detection(self):
        table = RoutingTable(owner=Position(3, 1), side=RIGHT)
        assert not table.is_full()
        table.set(0, info_at(3, 2))
        table.set(1, info_at(3, 3))
        table.set(2, info_at(3, 5))
        assert table.is_full()

    def test_nodes_missing_children(self):
        table = RoutingTable(owner=Position(3, 1), side=RIGHT)
        table.set(0, info_at(3, 2, address=20))
        table.set(1, info_at(3, 3, address=30, left_child=Address(1), right_child=Address(2)))
        missing = table.nodes_missing_children()
        assert [info.address for info in missing] == [20]

    def test_nodes_with_children(self):
        table = RoutingTable(owner=Position(3, 1), side=RIGHT)
        table.set(0, info_at(3, 2, address=20))
        table.set(1, info_at(3, 3, address=30, left_child=Address(1)))
        with_children = table.nodes_with_children()
        assert [info.address for info in with_children] == [30]

    def test_entry_for_address(self):
        table = RoutingTable(owner=Position(3, 1), side=RIGHT)
        table.set(1, info_at(3, 3, address=30))
        index, info = table.entry_for_address(Address(30))
        assert index == 1
        assert table.entry_for_address(Address(31)) is None
