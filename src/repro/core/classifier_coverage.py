"""Classifier-Coverage (Algorithm 4) with Partition & Label (Algorithm 5).

When a pre-trained classifier has predicted each object's group, coverage
identification should *verify* rather than re-discover. For a target group
``g`` (say ``female``) and the classifier's predicted-positive set ``G``:

1. **Sample** ~10 % of ``G`` with point queries and estimate the
   classifier's precision on ``g``.
2. Eliminate false positives from ``G`` with the cheaper of two
   strategies, chosen by the precision estimate (the paper's prose and
   Table 2: Partition iff the estimated false-positive rate is below
   25 %):

   * **Partition** — divide-and-conquer with the *reverse* set question
     "is there any individual in this set that is NOT ``g``?"; a "no"
     certifies the entire chunk as members at the cost of one task.
   * **Label** — point-label ``G`` object by object.

3. If the verified members already reach ``tau``: covered. Otherwise run
   Group-Coverage over the complement ``D - G`` for the remaining
   ``tau - c'`` members (the classifier's false negatives).

Both strategies stop early once ``tau`` members are verified — our
deviation from the paper's pseudo-code: a covered verdict needs no
further cleaning.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.core.base_coverage import scan_members
from repro.core.group_coverage import execute_group_coverage
from repro.core.results import ClassifierCoverageResult, LedgerWindow
from repro.core.tree import TreeNode
from repro.core.views import resolve_view
from repro.crowd.oracle import Oracle
from repro.data.groups import Group, Negation
from repro.errors import InvalidParameterError

__all__ = [
    "classifier_coverage",
    "execute_classifier_coverage",
    "partition_positive_set",
    "label_positive_set",
]


def partition_positive_set(
    oracle: Oracle,
    group: Group,
    positive_indices: np.ndarray,
    *,
    n: int = 50,
    stop_after: int | None = None,
) -> tuple[list[int], bool]:
    """Algorithm 5's ``Partition``: clean false positives with reverse set
    queries.

    Parameters
    ----------
    positive_indices:
        The (remaining) predicted-positive objects.
    stop_after:
        Stop as soon as this many members are verified (early stop for the
        covered case). ``None`` cleans the whole set.

    Returns
    -------
    (verified, exhausted)
        Indices certified to belong to ``group``, and whether the whole
        set was processed (``False`` means early stop, so ``verified`` is
        a lower bound rather than the exact member set).
    """
    if n < 1:
        raise InvalidParameterError(f"set-query size bound n must be >= 1, got {n}")
    positive_indices = np.asarray(positive_indices, dtype=np.int64)
    not_group = Negation(group)
    verified: list[int] = []
    queue: deque[TreeNode] = deque()
    for begin in range(0, len(positive_indices), n):
        queue.append(TreeNode(begin, min(begin + n, len(positive_indices)) - 1))
    while queue:
        node = queue.popleft()
        chunk = positive_indices[node.b_index : node.e_index + 1]
        contains_non_member = oracle.ask_set(chunk, not_group)
        if not contains_non_member:
            # The whole chunk is certified g.
            verified.extend(int(i) for i in chunk)
            if stop_after is not None and len(verified) >= stop_after:
                return verified, False
        elif node.size > 1:
            left, right = node.split()
            queue.append(left)
            queue.append(right)
        # size-1 nodes answering "yes" are non-members: drop silently.
    return verified, True


def label_positive_set(
    oracle: Oracle,
    group: Group,
    positive_indices: np.ndarray,
    *,
    stop_after: int | None = None,
) -> tuple[list[int], bool]:
    """Algorithm 5's ``Label``: clean false positives with point queries.

    Walks ``positive_indices`` in order, keeping members, until
    ``stop_after`` members are found or the set is exhausted. Returns the
    verified members and the exhaustion flag (mirrors
    :func:`partition_positive_set`).
    """
    asked, verified = scan_members(oracle, positive_indices, group, stop_after)
    return verified.tolist(), asked == len(positive_indices)


def execute_classifier_coverage(
    oracle: Oracle,
    group: Group,
    tau: int,
    predicted_positive: np.ndarray,
    *,
    n: int = 50,
    sample_fraction: float = 0.10,
    fp_threshold: float = 0.25,
    rng: np.random.Generator,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    on_round: Callable[[], None] | None = None,
) -> ClassifierCoverageResult:
    """Execution backend of Algorithm 4 (see :func:`classifier_coverage`).

    Dispatched to by :meth:`repro.audit.AuditSession.run` for a
    :class:`~repro.audit.ClassifierAuditSpec`; ``on_round`` is forwarded
    to the fallback Group-Coverage run.
    """
    if tau <= 0:
        raise InvalidParameterError(f"tau must be positive, got {tau}")
    if not 0.0 < sample_fraction <= 1.0:
        raise InvalidParameterError("sample_fraction must be in (0, 1]")
    if not 0.0 <= fp_threshold <= 1.0:
        raise InvalidParameterError("fp_threshold must be in [0, 1]")
    # Bounds-check both index collections: negative entries (or entries
    # past a known dataset_size) would silently wrap onto wrong objects.
    view = resolve_view(view, dataset_size)
    predicted_positive = resolve_view(
        np.asarray(predicted_positive, dtype=np.int64), dataset_size
    )

    window = LedgerWindow(oracle.ledger)
    usage = window.usage

    if len(predicted_positive) == 0:
        # Nothing predicted positive: straight to Group-Coverage.
        fallback = execute_group_coverage(
            oracle, group, tau, n=n, view=view, on_round=on_round
        )
        return ClassifierCoverageResult(
            group=group,
            covered=fallback.covered,
            count=fallback.count,
            tau=tau,
            strategy="none",
            precision_estimate=0.0,
            verified_count=0,
            tasks=usage(),
            fallback=fallback,
            sample_size=0,
        )

    # Phase 1: estimate precision on a random sample of G.
    sample_size = min(
        len(predicted_positive),
        max(1, int(round(sample_fraction * len(predicted_positive)))),
    )
    sample_positions = rng.choice(len(predicted_positive), size=sample_size, replace=False)
    sample_member_mask = np.zeros(len(predicted_positive), dtype=bool)
    sample_member_mask[sample_positions] = True
    _, members = scan_members(oracle, predicted_positive[sample_positions], group, None)
    verified: list[int] = members.tolist()
    precision_estimate = len(verified) / sample_size

    # Phase 2: clean the unsampled remainder of G.
    remainder = predicted_positive[~sample_member_mask]
    exhausted = True
    if precision_estimate >= 1.0 - fp_threshold:
        strategy = "partition"
        cleaner = partition_positive_set
        cleaner_kwargs = {"n": n}
    else:
        strategy = "label"
        cleaner = label_positive_set
        cleaner_kwargs = {}
    if len(verified) < tau and len(remainder):
        newly_verified, exhausted = cleaner(
            oracle,
            group,
            remainder,
            stop_after=tau - len(verified),
            **cleaner_kwargs,
        )
        verified.extend(newly_verified)

    if len(verified) >= tau:
        return ClassifierCoverageResult(
            group=group,
            covered=True,
            count=len(verified),
            tau=tau,
            strategy=strategy,
            precision_estimate=precision_estimate,
            verified_count=len(verified),
            tasks=usage(),
            fallback=None,
            sample_size=sample_size,
        )

    # Phase 3: G held fewer than tau members (count now exact — the set
    # was exhausted); hunt for the classifier's false negatives in D - G.
    assert exhausted, "early stop without reaching tau is impossible"
    complement = view[~np.isin(view, predicted_positive)]
    fallback = execute_group_coverage(
        oracle, group, tau - len(verified), n=n, view=complement, on_round=on_round
    )
    return ClassifierCoverageResult(
        group=group,
        covered=fallback.covered,
        count=len(verified) + fallback.count,
        tau=tau,
        strategy=strategy,
        precision_estimate=precision_estimate,
        verified_count=len(verified),
        tasks=usage(),
        fallback=fallback,
        sample_size=sample_size,
    )


def classifier_coverage(
    oracle: Oracle,
    group: Group,
    tau: int,
    predicted_positive: np.ndarray,
    *,
    n: int = 50,
    sample_fraction: float = 0.10,
    fp_threshold: float = 0.25,
    rng: np.random.Generator,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
) -> ClassifierCoverageResult:
    """Run Algorithm 4.

    Thin wrapper over :class:`~repro.audit.ClassifierAuditSpec` — the
    :class:`~repro.audit.AuditSession` API is the blessed entry point.
    ``view`` and ``predicted_positive`` entries are validated as dataset
    indices: negative values raise :class:`InvalidParameterError`, as do
    values ``>= dataset_size`` when it is supplied.

    Parameters
    ----------
    group:
        The target group ``g``.
    predicted_positive:
        Dataset indices the classifier labeled as ``g`` (the set ``G``).
    sample_fraction:
        Fraction of ``G`` point-labeled to estimate precision (the paper
        found 10 % a good choice).
    fp_threshold:
        Choose Partition iff the estimated false-positive rate is below
        this (the paper found 25 % a good choice).
    view / dataset_size:
        The full search space; the fallback Group-Coverage runs on
        ``view`` minus ``G``.

    Returns
    -------
    ClassifierCoverageResult
    """
    from repro.audit.runners import run_spec
    from repro.audit.specs import ClassifierAuditSpec

    spec = ClassifierAuditSpec(
        group=group,
        tau=tau,
        predicted_positive=predicted_positive,
        n=n,
        sample_fraction=sample_fraction,
        fp_threshold=fp_threshold,
        view=view,
    )
    return run_spec(oracle, spec, rng=rng, dataset_size=dataset_size)
