"""Cost-aware auditing under non-fixed pricing (the paper's §8 future work).

Under the paper's fixed pricing, minimizing tasks minimizes dollars and
the set-size bound ``n`` is chosen by crowd ergonomics alone. Under
size-dependent pricing (bigger HITs pay more), ``n`` becomes an
optimization variable:

* worst-case task structure (Lemma 3.3): ``⌈N/n⌉`` level-1 queries of
  size ``n`` plus, per "yes" leaf (≤ τ of them), an isolation path of
  ≤ ``⌈log₂ n⌉`` levels whose two queries at depth ``d`` show ``n / 2^d``
  images each;
* pricing each query at its display size yields a closed-form worst-case
  dollar bound, :func:`dollar_cost_upper_bound`;
* :func:`choose_set_size` minimizes that bound over a candidate grid, and
  :func:`cost_aware_group_coverage` runs Algorithm 1 at the optimum
  against a size-dependent ledger.

The A4 ablation bench sweeps the pricing slope and shows the optimum
moving from large sets (slope ≈ 0: classic regime, ``n`` as big as the
crowd tolerates) to small sets (steep slopes: showing images is what
costs, so pruning whole chunks buys little).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.group_coverage import group_coverage
from repro.core.results import GroupCoverageResult
from repro.crowd.oracle import Oracle
from repro.crowd.pricing import SizeDependentPricing
from repro.data.groups import GroupPredicate
from repro.engine.requests import IndexKey
from repro.errors import InvalidParameterError

__all__ = [
    "dollar_cost_upper_bound",
    "choose_set_size",
    "cost_aware_group_coverage",
    "CostAwareResult",
    "SpendingOracle",
]


def dollar_cost_upper_bound(
    N: int,
    n: int,
    tau: int,
    pricing: SizeDependentPricing,
    *,
    assignments_per_hit: int = 1,
) -> float:
    """Worst-case dollar cost of Group-Coverage at set-size bound ``n``.

    Sums the level-1 chunk queries (each showing ``n`` images) and, for
    each of up to ``tau`` yes leaves, a root-to-leaf isolation path with
    two queries per level showing geometrically shrinking sets.

    >>> flat = SizeDependentPricing(base_price=0.1, per_image=0.0)
    >>> a = dollar_cost_upper_bound(10_000, 10, 50, flat)
    >>> b = dollar_cost_upper_bound(10_000, 50, 50, flat)
    >>> a > b   # with pure per-HIT pricing, tiny sets waste money
    True
    """
    if N < 0 or n < 1 or tau < 0:
        raise InvalidParameterError("need N >= 0, n >= 1, tau >= 0")
    chunk_cost = math.ceil(N / n) * pricing.query_price(n)
    isolation_cost = 0.0
    size = n
    while size > 1:
        half = (size + 1) // 2
        isolation_cost += 2 * pricing.query_price(half)
        size = half
    total = chunk_cost + tau * isolation_cost
    return total * assignments_per_hit * (1.0 + pricing.service_fee_rate)


def choose_set_size(
    N: int,
    tau: int,
    pricing: SizeDependentPricing,
    *,
    candidates: Sequence[int] | None = None,
    n_max: int = 400,
) -> int:
    """The candidate ``n`` minimizing :func:`dollar_cost_upper_bound`.

    ``n_max`` caps the search at what the crowd can reasonably eyeball in
    one HIT (the paper's practical concern about very large sets).
    """
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    if candidates is None:
        candidates = sorted(
            {
                n
                for n in (1, 2, 5, 10, 20, 30, 50, 75, 100, 150, 200, 300, 400)
                if n <= n_max
            }
        )
    if not candidates:
        raise InvalidParameterError("no set-size candidates")
    return min(
        candidates,
        key=lambda n: dollar_cost_upper_bound(N, n, tau, pricing),
    )


class SpendingOracle(Oracle):
    """Decorates an oracle with a size-dependent dollar ledger.

    Tasks are still charged to the inner oracle — the wrapper shares its
    ledger, budget included; this wrapper additionally totals worker
    payments + fees under the given pricing.
    """

    def __init__(self, inner: Oracle, pricing: SizeDependentPricing) -> None:
        super().__init__(inner.schema)
        self.ledger = inner.ledger
        self.inner = inner
        self.pricing = pricing
        self.dollars_spent = 0.0

    def _spend(self, n_images: int) -> None:
        payment = self.pricing.query_price(n_images)
        self.dollars_spent += payment + self.pricing.fee(payment)

    def _answer_set(
        self, indices: np.ndarray, predicate: GroupPredicate, index_key: IndexKey
    ) -> bool:
        self._spend(len(indices))
        return self.inner._answer_set(indices, predicate, index_key)

    def _answer_point(self, index: int) -> dict[str, str]:
        self._spend(1)
        return self.inner._answer_point(index)


@dataclass(frozen=True)
class CostAwareResult:
    """A Group-Coverage result plus the dollar accounting that chose it."""

    chosen_n: int
    predicted_cost_bound: float
    dollars_spent: float
    result: GroupCoverageResult


def cost_aware_group_coverage(
    oracle: Oracle,
    predicate: GroupPredicate,
    tau: int,
    pricing: SizeDependentPricing,
    *,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    n_max: int = 400,
) -> CostAwareResult:
    """Pick the dollar-optimal ``n`` for the pricing model, then run
    Algorithm 1 with dollar accounting.

    Returns the chosen ``n``, the worst-case dollar bound that selected
    it, the dollars actually spent, and the inner coverage result.
    """
    if view is None:
        if dataset_size is None:
            raise InvalidParameterError("provide either view or dataset_size")
        total = dataset_size
    else:
        view = np.asarray(view, dtype=np.int64)
        total = len(view)
    chosen = choose_set_size(total, tau, pricing, n_max=n_max)
    spending = SpendingOracle(oracle, pricing)
    result = group_coverage(
        spending, predicate, tau, n=chosen, view=view, dataset_size=dataset_size
    )
    return CostAwareResult(
        chosen_n=chosen,
        predicted_cost_bound=dollar_cost_upper_bound(total, chosen, tau, pricing),
        dollars_spent=spending.dollars_spent,
        result=result,
    )
