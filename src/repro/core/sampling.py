"""LabelSamples (Algorithm 6, part 1): the sampling phase of §4.

Multiple-Coverage starts by point-labeling ``c·tau`` random objects
(``c = 2`` by default — "we found c = 2 as a good choice"). The labels
serve two purposes at once:

* they estimate group frequencies, from which Algorithm 6's ``Aggregate``
  forms super-groups, and
* they are *reused*: labeled objects move from the unlabeled pool ``D`` to
  the labeled pool ``L``, their group memberships pre-credit the per-group
  thresholds, and they are never asked about again.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.crowd.oracle import Oracle
from repro.data.groups import GroupPredicate
from repro.data.kernels import predicate_mask
from repro.data.schema import Schema
from repro.errors import InvalidParameterError

__all__ = ["LabeledPool", "label_points", "label_samples"]


class LabeledPool:
    """Objects whose labels the crowd has already provided.

    Holds their dataset ``indices``, in the order they were labeled, and
    the ``(k, d)`` ``int16`` code rows of the labels the crowd returned
    under ``schema`` (which, under a noisy oracle, may differ from
    ground truth — downstream logic treats them as truth, exactly like
    the paper does). :meth:`count` and :meth:`members` — which
    Multiple-Coverage calls once per group per super-group — are one
    :func:`~repro.data.kernels.predicate_mask` over the rows.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.indices = np.empty(0, dtype=np.int64)
        self.codes = np.empty((0, schema.n_attributes), dtype=np.int16)

    def add(self, indices: Sequence[int] | np.ndarray, codes: np.ndarray) -> None:
        """Append objects not yet in the pool with their code rows.

        Raises :class:`~repro.errors.InvalidParameterError` for an index
        repeated in ``indices`` or already in the pool: a labeled object
        is never asked about again, so it is never relabeled.
        """
        indices = self._new_indices(indices)
        codes = np.asarray(codes, dtype=np.int16).reshape(-1, self.schema.n_attributes)
        if len(indices) != len(codes):
            raise InvalidParameterError(
                f"{len(indices)} indices need as many code rows, got {len(codes)}"
            )
        self.indices = np.concatenate([self.indices, indices])
        self.codes = np.concatenate([self.codes, codes])

    def _new_indices(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        every = np.sort(np.concatenate([self.indices, indices]))
        if (every[1:] == every[:-1]).any():
            raise InvalidParameterError("an object already in the pool cannot be added again")
        return indices

    def count(self, predicate: GroupPredicate) -> int:
        """``L.count(g)``: labeled objects satisfying ``predicate``."""
        return int(np.count_nonzero(predicate_mask(self.schema, self.codes, predicate)))

    def members(self, predicate: GroupPredicate) -> tuple[int, ...]:
        """Indices of labeled objects satisfying ``predicate``, in
        labeling order."""
        return tuple(self.indices[predicate_mask(self.schema, self.codes, predicate)].tolist())

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, index: object) -> bool:
        return index in self.indices

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"LabeledPool({len(self)} rows)"


def label_points(
    oracle: Oracle, indices: Sequence[int] | np.ndarray, *, batched: bool
) -> np.ndarray:
    """Point-query every object of ``indices``, in order, and return the
    ``(k, d)`` ``int16`` code rows of the answers, as the oracle returns them.

    ``batched`` asks them in one
    :meth:`~repro.crowd.oracle.Oracle.ask_point_batch` round-trip;
    otherwise they are one
    :meth:`~repro.crowd.oracle.Oracle.scan_points` walk, and a walk the
    task budget cut short raises the
    :class:`~repro.errors.BudgetExceededError` the next per-point ask
    would have raised, after the oracle recorded the paid prefix.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if batched:
        return oracle.ask_point_batch(indices)
    if not len(indices):
        return np.empty((0, oracle.schema.n_attributes), dtype=np.int16)
    codes = oracle.scan_points(indices, None, tau=None)
    if len(codes) < len(indices):
        oracle.ledger.charge_point()  # the budget is spent: raises
    return codes


def sample_size_for(tau: int, c: float, view_size: int) -> int:
    """The sampling phase's size: ``min(⌈c·τ⌉, |view|)``.

    The paper budgets ``c·τ`` point queries; a fractional product rounds
    **up** — ``int(round(...))`` banker's-rounds half-integer products
    down (``c=2.5, τ=1 → 2``) and silently under-samples. The product is
    pre-rounded at 9 decimals so float artifacts (``0.1 * 30 =
    3.0000…04``) do not inflate the ceiling.
    """
    return min(math.ceil(round(c * tau, 9)), view_size)


def label_samples(
    oracle: Oracle,
    view: np.ndarray,
    tau: int,
    *,
    c: float = 2.0,
    rng: np.random.Generator,
    pool: LabeledPool | None = None,
    batched: bool = False,
) -> tuple[np.ndarray, LabeledPool]:
    """Label ``min(⌈c·tau⌉, |view|)`` random objects of ``view``.

    Returns the reduced view (labeled objects removed, original order
    preserved — Algorithm 6 line 4: ``D.remove(t)``) and the labeled pool.

    Parameters
    ----------
    pool:
        An existing pool to extend; a fresh one is created when omitted.
        A sample that draws an object already in it (or drawn twice from a
        ``view`` with repeats) raises
        :class:`~repro.errors.InvalidParameterError` before any query.
    batched:
        Publish all point queries in one oracle round-trip
        (:meth:`~repro.crowd.oracle.Oracle.ask_point_batch`) instead of
        one :meth:`~repro.crowd.oracle.Oracle.scan_points` walk (see
        :func:`label_points`), both as code rows. Same tasks, same labels
        under a deterministic oracle; engine-mode Multiple-Coverage sets this.

    >>> import numpy as np
    >>> from repro.crowd import GroundTruthOracle
    >>> from repro.data import binary_dataset
    >>> rng = np.random.default_rng(0)
    >>> ds = binary_dataset(100, 10, rng=rng)
    >>> view, pool = label_samples(
    ...     GroundTruthOracle(ds), np.arange(100), tau=5, rng=rng)
    >>> (len(view), len(pool))
    (90, 10)
    """
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")
    if c < 0:
        raise InvalidParameterError(f"sample-size parameter c must be >= 0, got {c}")
    view = np.asarray(view, dtype=np.int64)
    pool = pool if pool is not None else LabeledPool(oracle.schema)

    sample_size = sample_size_for(tau, c, len(view))
    if sample_size == 0:
        return view, pool
    chosen_positions = rng.choice(len(view), size=sample_size, replace=False)
    chosen = pool._new_indices(view[chosen_positions])  # before any is paid for
    pool.add(chosen, label_points(oracle, chosen, batched=batched))
    keep = np.ones(len(view), dtype=bool)
    keep[chosen_positions] = False
    residual = view[keep]
    residual.setflags(write=False)  # steppers over it need not copy it
    return residual, pool
