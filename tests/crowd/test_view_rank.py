"""View ranks: a generation scan's answers from one rank per (view, predicate).

:meth:`~repro.data.sharded.ShardedMembershipIndex.view_rank` counts a
predicate's members in view order; :class:`GroundTruthOracle` answers
every segment of every generation from it. The answers and bills must
be the per-query loop's (the base class's :meth:`Oracle.scan_sets`)
whatever the view's shape, and a rank must live no longer than its view.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.audit import AuditSession, GroupAuditSpec
from repro.core.group_coverage import execute_group_coverage, group_coverage
from repro.crowd.oracle import GroundTruthOracle, Oracle, scan_segments
from repro.data.groups import Negation, group
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex, _run_starts
from repro.data.synthetic import binary_dataset
from repro.errors import OracleError

FEMALE = group(gender="female")
N = 3_000


@pytest.fixture(scope="module")
def dense():
    return binary_dataset(N, 150, rng=np.random.default_rng(21))


@pytest.fixture(scope="module", params=["dense", "sharded"])
def layout(request, dense):
    if request.param == "dense":
        return dense
    return ShardedDataset.from_dataset(dense, 257, max_resident_shards=2)


def frozen(view):
    """``view`` read-only, as a stepper holds it: the oracle keeps the
    ranks of such views."""
    view.setflags(write=False)
    return view


def views(rng):
    """Runs at offset 0 and past it, runs with a few holes, sorted
    samples, permutations, and a view of one object, all read-only."""
    return [
        frozen(view)
        for view in (
            np.arange(N),
            np.arange(300, 1_100),
            np.delete(np.arange(N), rng.choice(N, 30, replace=False)),
            np.delete(np.arange(200, 2_200), np.arange(0, 2_000, 97)),
            np.sort(rng.choice(N, 700, replace=False)),
            rng.permutation(N)[:900],
            np.arange(1_100, 300, -1),  # a descending run is no run
            np.array([N - 1]),
        )
    ]


def generations(rng, size):
    """Random generations over a view of ``size`` entries: disjoint
    non-empty segments, unpaired or as sibling halves."""
    for _ in range(4):
        cuts = np.unique(rng.integers(1, size, size=rng.integers(0, min(size, 40))))
        bounds = np.concatenate([[0], cuts, [size]])
        yield bounds[:-1], bounds[1:], False
        wide = np.flatnonzero(bounds[1:] - bounds[:-1] > 1)
        if len(wide):
            begin, end = bounds[wide], bounds[wide + 1]
            middle = (begin + end + 1) // 2
            starts = np.column_stack([begin, middle]).ravel()
            stops = np.column_stack([middle, end]).ravel()
            yield starts, stops, True


def test_the_rank_counts_members_in_view_order(layout, dense):
    index = ShardedMembershipIndex.for_dataset(layout)
    for predicate in (FEMALE, Negation(FEMALE)):
        members = dense.mask(predicate)
        for view in views(np.random.default_rng(4)):
            expected = np.concatenate([[0], np.cumsum(members[view])])
            for ascending in (None, bool((view[1:] > view[:-1]).all())):
                ranked = index.view_rank(predicate, view, ascending=ascending)
                ends = np.arange(len(view) + 1, dtype=np.int64)
                assert ranked(ends).tolist() == expected.tolist()


@pytest.mark.parametrize("size", [1, 2, 3, 255, 256, 257, 513, 2_000, 40_000])
def test_run_starts_are_where_a_step_is_not_one(size):
    """Block skipping finds every break a step-by-step diff finds, with
    holes from none to one object in three."""
    rng = np.random.default_rng(size)
    for holes in (0, 1, 5, size // 100, size // 16, size // 3):
        view = np.cumsum(1 + (rng.random(size) < holes / size) * rng.integers(1, 4, size))
        for at in (view, view[:: max(1, size // 7)]):
            expected = np.concatenate([[0], np.flatnonzero(np.diff(at) != 1) + 1])
            missed = int(at[-1] - at[0]) + 1 - len(at)
            assert _run_starts(at, missed).tolist() == expected.tolist()
    last = np.append(np.arange(size), size + 1)  # its one hole is before the last object
    assert _run_starts(last, 1).tolist() == [0, size]


@pytest.mark.parametrize("need", [None, 1, 4])
@pytest.mark.parametrize("budget", [None, 25])
def test_scans_match_the_per_query_loop(layout, need, budget):
    """Every generation of every view, asked through one oracle (its
    ranks built once, read by later generations) and through the base
    class's per-query loop on another: same answers, same bill."""
    rng = np.random.default_rng(5)
    for view in views(rng):
        scanning = GroundTruthOracle(layout, budget=budget)
        looping = GroundTruthOracle(layout, budget=budget)
        ascending = bool((view[1:] > view[:-1]).all())
        for starts, stops, paired in generations(rng, len(view)):
            told = ascending if rng.random() < 0.5 else None
            answers = scanning.scan_sets(
                view, starts, stops, FEMALE, need, paired=paired, ascending=told
            )
            checked = scan_segments(view, starts, stops, need, paired)
            expected = Oracle._scan_sets(looping, *checked, FEMALE, need, paired, None)
            assert answers.tolist() == expected.tolist()
            assert (scanning.ledger.n_set_queries, scanning.ledger.n_rounds) == (
                looping.ledger.n_set_queries,
                looping.ledger.n_rounds,
            )


def test_a_view_past_the_dataset_raises(dense):
    oracle = GroundTruthOracle(dense)
    for view in (np.arange(N - 5, N + 5), np.array([3, 1, N])):
        with pytest.raises(OracleError):
            oracle.scan_sets(view, [0], [1], FEMALE, None)
    assert oracle.ledger.total == 0


def test_a_rank_dies_with_its_view(dense):
    """The oracle holds a scanned view weakly: once the session that
    scanned it is gone, so is the view, and so is its rank."""
    oracle = GroundTruthOracle(dense)
    scanned = []
    scan_sets = oracle.scan_sets

    def recorded(view, *args, **kwargs):
        scanned.append(weakref.ref(view))
        return scan_sets(view, *args, **kwargs)

    oracle.scan_sets = recorded
    view = np.sort(np.random.default_rng(6).choice(N, 1_200, replace=False))
    with AuditSession(oracle, seed=1) as session:
        session.run(GroupAuditSpec(predicate=FEMALE, tau=40, view=view))
    assert scanned and any(ref() is not None for ref in scanned)
    del session
    gc.collect()
    assert all(ref() is None for ref in scanned)
    assert oracle._view_ranks == {}


def test_a_freed_views_address_never_reads_its_rank(dense):
    """A fresh array at the address of a freed view is ranked afresh."""
    oracle = GroundTruthOracle(dense)
    members = dense.mask(FEMALE)
    rng = np.random.default_rng(7)
    reused = 0
    for _ in range(20):
        view = frozen(rng.choice(N, 64, replace=False))
        address = id(view)
        oracle.scan_sets(view, np.arange(64), np.arange(1, 65), FEMALE, None)
        content = rng.choice(N, 64, replace=False)
        del view
        fresh = frozen(content.copy())  # allocated right after the view is freed
        reused += id(fresh) == address
        answers = oracle.scan_sets(fresh, np.arange(64), np.arange(1, 65), FEMALE, None)
        assert answers.tolist() == members[fresh].tolist()
    assert reused  # the address was taken over at least once


def test_a_view_changed_in_place_is_scanned_as_it_is_now(dense):
    """A caller's writeable array may change between scans and audits:
    the oracle keeps no rank for it, and an audit scans a copy, so each
    answer is the per-query loop's over the array's current entries."""

    class Looping(GroundTruthOracle):
        def _scan_sets(self, *args):
            return Oracle._scan_sets(self, *args)

    rng = np.random.default_rng(8)
    view = np.sort(rng.choice(N, 1_500, replace=False))
    oracle = GroundTruthOracle(dense)
    for _ in range(3):
        for audit in (group_coverage, execute_group_coverage):
            got = audit(oracle, FEMALE, 30, n=40, view=view)
            expected = audit(Looping(dense), FEMALE, 30, n=40, view=view.copy())
            assert (got.covered, got.count, got.tasks.n_set_queries) == (
                expected.covered,
                expected.count,
                expected.tasks.n_set_queries,
            )
            assert got.discovered_indices == expected.discovered_indices
        starts, stops = np.arange(0, 1_500, 50), np.arange(50, 1_550, 50)
        answers = oracle.scan_sets(view, starts, stops, FEMALE, None)
        assert answers.tolist() == np.logical_or.reduceat(dense.mask(FEMALE)[view], starts).tolist()
        view[:] = np.sort(rng.choice(N, 1_500, replace=False))
    assert oracle._view_ranks == {}  # the audits' copies are gone
