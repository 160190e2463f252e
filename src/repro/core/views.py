"""Search-space ("view") resolution shared by the coverage entry points.

Every algorithm takes either an explicit ``view`` (dataset indices to
search, in physical order) or a ``dataset_size`` from which the full
view is derived. Validation lives here once: negative indices always
raise, indices beyond ``dataset_size`` raise whenever the size is
known — numpy's negative-index wraparound would otherwise silently
answer questions about the wrong objects — and repeated indices always
raise: the algorithms count members per position, so an object listed
twice would be counted twice.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["resolve_view", "resolve_view_order"]


def resolve_view(view: np.ndarray | None, dataset_size: int | None) -> np.ndarray:
    """Materialize and check the search space.

    ``view`` entries must be distinct, valid dataset indices: non-negative
    always, and ``< dataset_size`` whenever ``dataset_size`` is given
    alongside.
    """
    return resolve_view_order(view, dataset_size)[0]


def resolve_view_order(
    view: np.ndarray | None, dataset_size: int | None
) -> tuple[np.ndarray, bool]:
    """:func:`resolve_view` plus whether the view is strictly ascending.

    A strictly ascending view is checked in O(N) (its ends are its
    bounds, and it cannot repeat an index); any other order falls back
    to :func:`numpy.unique`.
    """
    if view is None:
        if dataset_size is None:
            raise InvalidParameterError("provide either view or dataset_size")
        if dataset_size < 0:
            raise InvalidParameterError(
                f"dataset_size must be >= 0, got {dataset_size}"
            )
        return np.arange(dataset_size, dtype=np.int64), True
    view = np.asarray(view, dtype=np.int64)
    if view.size == 0:
        return view, True
    ascending = view.size == 1 or bool((view[1:] > view[:-1]).all())
    if ascending:
        lowest, highest = int(view[0]), int(view[-1])
    else:
        distinct, counts = np.unique(view, return_counts=True)
        if distinct.size != view.size:
            repeated = int(distinct[np.argmax(counts > 1)])
            raise InvalidParameterError(
                f"view contains dataset index {repeated} more than once"
            )
        lowest, highest = int(distinct[0]), int(distinct[-1])
    if lowest < 0:
        raise InvalidParameterError(
            f"view contains negative dataset index {lowest}"
        )
    if dataset_size is not None and highest >= dataset_size:
        raise InvalidParameterError(
            f"view contains index {highest} out of range for "
            f"dataset_size {dataset_size}"
        )
    return view, ascending
