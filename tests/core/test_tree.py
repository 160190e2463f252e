"""Unit tests for the execution-tree structures."""

from __future__ import annotations

import pytest

from repro.core.tree import TreeNode
from repro.errors import InvalidParameterError


class TestTreeNode:
    def test_size_and_flags(self):
        node = TreeNode(0, 9)
        assert node.size == 10
        assert node.is_root
        assert not node.is_left_child

    def test_split_halves(self):
        node = TreeNode(0, 9)
        left, right = node.split()
        assert (left.b_index, left.e_index) == (0, 4)
        assert (right.b_index, right.e_index) == (5, 9)
        assert left.parent is node and right.parent is node
        assert left.is_left_child and not right.is_left_child

    def test_split_odd_size(self):
        left, right = TreeNode(0, 6).split()
        assert (left.b_index, left.e_index) == (0, 3)
        assert (right.b_index, right.e_index) == (4, 6)

    def test_split_two_elements(self):
        left, right = TreeNode(3, 4).split()
        assert left.size == 1 and right.size == 1

    def test_split_singleton_rejected(self):
        with pytest.raises(InvalidParameterError):
            TreeNode(2, 2).split()

    def test_invalid_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            TreeNode(5, 4)
        with pytest.raises(InvalidParameterError):
            TreeNode(-1, 4)

    def test_checked_default_false(self):
        assert TreeNode(0, 1).checked is False
