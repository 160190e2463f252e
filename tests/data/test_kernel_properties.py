"""Property-based tests (hypothesis) for the fused streaming build.

The fused kernels of :mod:`repro.data.kernels` exist for speed — one
chunk touch per shard however many predicates a build indexes — so the
property pinned here is that speed changed *nothing*: for arbitrary
dataset content, arbitrary shard boundaries (including single-row
shards, an empty dataset, and a trailing partial shard), and arbitrary
query runs, the fused pass produces exactly the tables and counts of the
old two-pass route (mask the chunk, count it, then cumsum the mask
separately), and the sharded index built on top answers every run —
including the ≤ 2 partially covered boundary shards — identically to an
independent per-row reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import LabeledDataset
from repro.data.groups import group
from repro.data.kernels import (
    CallableChunkSource,
    fused_prefix_tables,
    fused_source_pass,
    predicate_mask,
)
from repro.data.schema import Schema
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
from repro.engine.requests import IndexKey

FEMALE = group(gender="female")
MALE = group(gender="male")
GENDER_SCHEMA = Schema.from_dict({"gender": ["male", "female"]})


def codes_from_bools(members: list[bool]) -> np.ndarray:
    return np.array(members, dtype=np.int16).reshape(-1, 1)


def two_pass_tables(schema, chunk, predicates):
    """The pre-fusion reference route: evaluate the mask, count it, then
    build the prefix table in a separate step (kept deliberately
    independent of the fused implementation)."""
    counts, tables = [], []
    for predicate in predicates:
        mask = predicate_mask(schema, chunk, predicate)
        counts.append(int(mask.sum()))
        tables.append(np.concatenate([[0], np.cumsum(mask, dtype=np.int64)]))
    return counts, tables


# ----------------------------------------------------------------------
# the fused kernel equals the two-pass route, chunk by chunk
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=0, max_size=120),
    shard_size=st.integers(min_value=1, max_value=50),
)
def test_fused_tables_equal_two_pass_route_per_shard(members, shard_size):
    codes = codes_from_bools(members)
    n_shards = -(-len(members) // shard_size)
    predicates = [FEMALE, MALE]
    for shard_index in range(n_shards):
        start = shard_index * shard_size
        stop = min(start + shard_size, len(members))
        chunk = codes[start:stop]
        fused = fused_prefix_tables(GENDER_SCHEMA, chunk, predicates)
        ref_counts, ref_tables = two_pass_tables(GENDER_SCHEMA, chunk, predicates)
        for fused_table, ref_table, ref_count in zip(fused, ref_tables, ref_counts):
            np.testing.assert_array_equal(fused_table, ref_table)
            assert fused_table.dtype == np.int32
            assert int(fused_table[-1]) == ref_count  # totals entry fused in


@settings(max_examples=80, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=1, max_size=80),
    want_tables=st.booleans(),
)
def test_fused_source_pass_matches_in_memory_kernel(members, want_tables):
    codes = codes_from_bools(members)

    def generate(shard_index, start, stop):
        return codes[start:stop]

    counts, tables = fused_source_pass(
        CallableChunkSource(generate), GENDER_SCHEMA, 0, 0, len(members),
        [FEMALE, MALE], want_tables,
    )
    ref_counts, ref_tables = two_pass_tables(GENDER_SCHEMA, codes, [FEMALE, MALE])
    assert counts == ref_counts
    if want_tables:
        for fused_table, ref_table in zip(tables, ref_tables):
            np.testing.assert_array_equal(fused_table, ref_table)
    else:
        assert tables is None


# ----------------------------------------------------------------------
# the fused streaming build equals a per-row reference on the full index
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=0, max_size=150),
    shard_size=st.integers(min_value=1, max_value=60),
    data=st.data(),
)
def test_fused_build_and_boundary_prefixes_answer_arbitrary_runs(
    members, shard_size, data
):
    codes = codes_from_bools(members)
    ds = ShardedDataset.from_generator(
        GENDER_SCHEMA, len(members), shard_size,
        lambda s, a, b: codes[a:b], max_resident_shards=2,
    )
    index = ShardedMembershipIndex(ds)
    index.build_totals([FEMALE, MALE])

    # Totals: cumulative per-shard member counts, computed per row here.
    n_shards = ds.n_shards
    for predicate, want in ((FEMALE, True), (MALE, False)):
        totals = index.shard_totals(predicate)
        assert len(totals) == n_shards + 1
        expected = 0
        for shard_index in range(n_shards):
            start, stop = ds.shard_bounds(shard_index)
            expected += sum(1 for m in members[start:stop] if m is want)
            assert int(totals[shard_index + 1]) == expected

    # Arbitrary runs: at most 2 boundary shards answer from local prefix
    # tables; the count must match a per-row reference regardless.
    for _ in range(4):
        a = data.draw(st.integers(min_value=0, max_value=len(members)))
        b = data.draw(st.integers(min_value=a, max_value=len(members)))
        run = IndexKey.of(np.arange(a, b))
        assert index.count(FEMALE, run) == sum(members[a:b])
        assert index.any_match(FEMALE, run) == any(members[a:b])


@settings(max_examples=80, deadline=None)
@given(members=st.lists(st.booleans(), min_size=1, max_size=100))
def test_single_row_shards_and_trailing_partial_shard(members):
    codes = codes_from_bools(members)
    dense = LabeledDataset(GENDER_SCHEMA, codes)
    # shard_size=1: every shard is a single row (maximal boundary count);
    # shard_size=len-ish: one partial trailing shard.
    for shard_size in (1, max(1, len(members) - 1), len(members)):
        ds = ShardedDataset.from_dataset(dense, shard_size, max_resident_shards=2)
        index = ShardedMembershipIndex(ds)
        full = IndexKey.of(np.arange(len(members)))
        assert index.count(FEMALE, full) == sum(members)
        for point in {0, len(members) // 2, len(members) - 1}:
            assert index.matches(FEMALE, point) == members[point]


def test_empty_dataset_fused_build_is_a_no_op():
    ds = ShardedDataset.from_generator(
        GENDER_SCHEMA, 0, 10, lambda s, a, b: np.empty((0, 1), dtype=np.int16)
    )
    index = ShardedMembershipIndex(ds)
    index.build_totals([FEMALE])
    totals = index.shard_totals(FEMALE)
    np.testing.assert_array_equal(totals, np.zeros(1, dtype=np.int64))
    assert ds.stats.loads == 0
    assert index.count(FEMALE, IndexKey.of(np.empty(0, dtype=np.int64))) == 0


def test_fused_build_touches_each_chunk_once_for_many_predicates():
    """The point of fusion: totals for k predicates cost one pass, not k."""
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 2, size=(1_000, 1)).astype(np.int16)
    ds = ShardedDataset.from_generator(
        GENDER_SCHEMA, 1_000, 100, lambda s, a, b: codes[a:b],
        max_resident_shards=2,
    )
    index = ShardedMembershipIndex(ds)
    index.build_totals([FEMALE, MALE])
    assert ds.stats.loads == ds.n_shards
