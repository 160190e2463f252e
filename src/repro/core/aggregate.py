"""Aggregate (Algorithm 6, part 2): forming super-groups.

Given the sampling-phase counts, estimate each group's dataset-wide count
as ``E[|g|] = N · L.count(g) / |L|`` and greedily merge expected-minority
groups into *super-groups* whose expected total stays below ``tau`` — one
Group-Coverage run can then certify all of them uncovered at once.

Exactly as the pseudo-code: groups are sorted by sampled count ascending
(minorities first, so they merge together), then scanned once; a group
joins the current super-group while the running expected sum stays
``< tau``, otherwise the current super-group is emitted and a new one
starts.

With ``multi=True`` (the intersectional case, §4) a super-group may only
contain *sibling* fully-specified subgroups — groups that agree on every
attribute except one, i.e. children of a common parent pattern — because
the roll-up of §3.3.2 needs super-groups to live under one parent.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.sampling import LabeledPool
from repro.data.groups import Group, SuperGroup
from repro.errors import InvalidParameterError

__all__ = ["aggregate_groups", "expected_count"]


def expected_count(pool: LabeledPool, group: Group, dataset_size: int) -> float:
    """``E[|g|] = N · L.count(g) / |L|`` (0 when the pool is empty)."""
    if not len(pool):
        return 0.0
    return dataset_size * pool.count(group) / len(pool)


def _can_join(members: Sequence[Group], candidate: Group) -> bool:
    """Sibling test for ``multi=True``: is there one attribute on which all
    of ``members + [candidate]`` may differ while agreeing on the rest?"""
    if not members:
        return True
    reference = members[0]
    if reference.attributes != candidate.attributes:
        return False
    attributes = reference.attributes
    all_groups = [*members, candidate]
    for free_position in range(len(attributes)):
        agrees_elsewhere = all(
            all(
                g.conditions[j][1] == reference.conditions[j][1]
                for j in range(len(attributes))
                if j != free_position
            )
            for g in all_groups
        )
        if agrees_elsewhere:
            return True
    return False


def aggregate_groups(
    pool: LabeledPool,
    dataset_size: int,
    tau: int,
    groups: Sequence[Group],
    *,
    multi: bool = False,
) -> tuple[SuperGroup, ...]:
    """Partition ``groups`` into super-groups (singletons allowed).

    Parameters
    ----------
    pool:
        The sampling-phase labels (drives the expected counts).
    dataset_size:
        ``N`` in the expectation formula — the size of the dataset whose
        counts are being estimated.
    tau:
        Coverage threshold.
    groups:
        The candidate groups (one attribute's values, or the
        fully-specified subgroups in the intersectional case).
    multi:
        Enforce the sibling constraint (see module docstring).

    Returns
    -------
    tuple[SuperGroup, ...]
        Super-groups covering every input group exactly once.

    >>> import numpy as np
    >>> from repro.core.sampling import LabeledPool
    >>> from repro.data import Schema, group
    >>> pool = LabeledPool(Schema.from_dict({"race": ["white", "black", "asian"]}))
    >>> pool.add(np.arange(95), [0] * 93 + [1] * 2)  # 93 white, 2 black
    >>> gs = [group(race="white"), group(race="black"), group(race="asian")]
    >>> supers = aggregate_groups(pool, 1000, 50, gs)
    >>> sorted(len(s) for s in supers)   # black+asian merge, white alone
    [1, 2]
    """
    if tau <= 0:
        raise InvalidParameterError(f"tau must be positive, got {tau}")
    if dataset_size < 0:
        raise InvalidParameterError(f"dataset_size must be >= 0, got {dataset_size}")
    if len(set(groups)) != len(groups):
        raise InvalidParameterError("duplicate groups passed to aggregate_groups")
    if not groups:
        return ()

    # Sort by sampled count ascending (stable; describe() breaks ties so
    # runs are deterministic under a fixed seed).
    ordered = sorted(groups, key=lambda g: (pool.count(g), g.describe()))

    super_groups: list[SuperGroup] = []
    current: list[Group] = []
    running_sum = 0.0
    for candidate in ordered:
        expectation = expected_count(pool, candidate, dataset_size)
        joinable = not multi or _can_join(current, candidate)
        if current and joinable and running_sum + expectation < tau:
            current.append(candidate)
            running_sum += expectation
        elif not current and expectation < tau:
            # First member of a fresh super-group: admit it as long as the
            # group itself is expected uncovered; expected-covered groups
            # always stand alone.
            current = [candidate]
            running_sum = expectation
        else:
            if current:
                super_groups.append(SuperGroup(current))
            current = [candidate]
            running_sum = expectation
    if current:
        super_groups.append(SuperGroup(current))
    return tuple(super_groups)
