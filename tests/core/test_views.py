"""resolve_view: the one place every algorithm's search space is checked."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.views import resolve_view, resolve_view_order
from repro.errors import InvalidParameterError


class TestResolveView:
    def test_dataset_size_gives_the_full_ascending_view(self):
        view, ascending = resolve_view_order(None, 5)
        assert ascending
        assert view.dtype == np.int64
        assert view.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "size, message", [(None, "either view or dataset_size"), (-1, ">= 0")]
    )
    def test_bad_dataset_size_raises(self, size, message):
        with pytest.raises(InvalidParameterError, match=message):
            resolve_view(None, size)

    @pytest.mark.parametrize("view", [[], [7]])
    def test_empty_and_single_views_are_ascending(self, view):
        resolved, ascending = resolve_view_order(np.array(view, dtype=np.int64), 10)
        assert ascending
        assert resolved.tolist() == view

    def test_ascending_view_with_gaps_is_flagged(self):
        view, ascending = resolve_view_order([2, 3, 9, 40], None)
        assert ascending
        assert view.dtype == np.int64
        assert view.tolist() == [2, 3, 9, 40]

    def test_unsorted_view_keeps_its_order(self):
        view, ascending = resolve_view_order([9, 2, 40, 3], 41)
        assert not ascending
        assert view.tolist() == [9, 2, 40, 3]
        assert np.array_equal(resolve_view([9, 2, 40, 3], 41), view)

    @pytest.mark.parametrize(
        "view, repeated",
        [([1, 2, 2, 3], 2), ([3, 1, 3], 3), ([5, 5, 5, 5, 6, 7], 5), ([8, 4, 4, 8], 4)],
    )
    def test_repeated_index_raises_and_names_it(self, view, repeated):
        with pytest.raises(
            InvalidParameterError, match=f"index {repeated} more than once"
        ):
            resolve_view(np.array(view), None)

    @pytest.mark.parametrize("view", [[-1, 0, 1], [3, -2, 1]])
    def test_negative_index_raises_in_either_order(self, view):
        with pytest.raises(InvalidParameterError, match="negative dataset index"):
            resolve_view(np.array(view), None)

    @pytest.mark.parametrize("view", [[0, 1, 10], [10, 0, 1]])
    def test_index_past_dataset_size_raises_in_either_order(self, view):
        with pytest.raises(InvalidParameterError, match="index 10 out of range"):
            resolve_view(np.array(view), 10)
        assert resolve_view(np.array(view), 11).tolist() == view
