"""Property-based tests (hypothesis) for the bitmap kernels and the
streaming build.

The bitmap index of :mod:`repro.data.sharded` exists for speed — one
chunk touch per shard however many values a build packs, a gathered bit
test per scattered index and two rank lookups per run — so the property
pinned here is that speed changed *nothing*: for arbitrary dataset
content, arbitrary shard boundaries (single-row shards, sizes that are
not multiples of 64, an empty dataset, a trailing partial shard),
arbitrary predicates (negations, super-groups of overlapping members)
and arbitrary runs (empty ones, ones ending at N), the packed words,
their word-wise evaluation, bit tests and rank lookups equal the
row-wise reference — :func:`~repro.data.kernels.predicate_mask`, then
``cumsum`` — and the index built on top answers every query like it,
whatever its bitmap budget, and a threaded build equals a serial one.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import LabeledDataset
from repro.data.groups import Negation, SuperGroup, group
from repro.data.kernels import (
    BIT,
    n_words,
    pack_columns,
    predicate_conditions,
    predicate_mask,
    predicate_words,
    rank,
    rank_directory,
)
from repro.data.schema import Schema
from repro.data.sharded import (
    ShardedDataset,
    ShardedMembershipIndex,
    ShardExecutor,
    bitmap_floor,
)
from repro.engine.requests import IndexKey
from repro.errors import OracleError

FEMALE = group(gender="female")
MALE = group(gender="male")
GENDER_SCHEMA = Schema.from_dict({"gender": ["male", "female"]})
SCHEMA = Schema.from_dict({"gender": ["male", "female"], "race": ["white", "black", "asian"]})
GROUPS = [
    FEMALE,
    MALE,
    group(race="black"),
    group(race="asian"),
    group(gender="female", race="black"),
    group(gender="male", race="white"),
]
_BASE = st.one_of(
    st.sampled_from(GROUPS),
    # Members overlap: female and female/black share every female black.
    st.lists(st.sampled_from(GROUPS), min_size=1, max_size=4, unique=True).map(SuperGroup),
)
PREDICATES = st.one_of(_BASE, _BASE.map(Negation))
#: N and shard sizes that are not multiples of 64, single rows, and one shard
SIZES = st.one_of(st.sampled_from([1, 137, 6_000]), st.integers(0, 300))


def codes_from_bools(members: list[bool]) -> np.ndarray:
    return np.array(members, dtype=np.int16).reshape(-1, 1)


def random_codes(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [rng.integers(0, a.cardinality, size=n) for a in SCHEMA]
    ).astype(np.int16).reshape(n, len(SCHEMA.names))


def unpack(words: np.ndarray) -> np.ndarray:
    """Every bit of ``words`` as a bool array, tail included."""
    return np.unpackbits(words.view(np.uint8), bitorder="little").astype(bool)


def sharded_bitmaps(codes: np.ndarray, shard_size: int, conditions) -> dict:
    """Value bitmaps assembled the way the index streams them: each
    shard packed on its own, OR-ed into one zeroed bitmap."""
    columns = [
        (SCHEMA.index_of(name), SCHEMA.attribute(name).code_of(value))
        for name, value in conditions
    ]
    bitmaps = [np.zeros(n_words(len(codes)), dtype=np.uint64) for _ in columns]
    for start in range(0, len(codes), shard_size):
        pieces = pack_columns(codes[start : start + shard_size], start, columns)
        for bitmap, piece in zip(bitmaps, pieces):
            bitmap[start // 64 : start // 64 + len(piece)] |= piece
    return dict(zip(conditions, bitmaps))


# ----------------------------------------------------------------------
# the build kernels assemble exactly the mask, shard by shard
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=0, max_size=200),
    shard_size=st.integers(min_value=1, max_value=150),
)
def test_packed_shards_assemble_the_mask_with_a_zero_tail(members, shard_size):
    codes = codes_from_bools(members)
    words = {code: np.zeros(n_words(len(members)), dtype=np.uint64) for code in (0, 1)}
    for start in range(0, len(members), shard_size):
        chunk = codes[start : start + shard_size]
        female, male = pack_columns(chunk, start, [(0, 1), (0, 0)])
        for code, piece in ((1, female), (0, male)):
            assert piece.dtype == np.dtype("<u8")
            words[code][start // 64 : start // 64 + len(piece)] |= piece
    for code, predicate in ((1, FEMALE), (0, MALE)):
        bits = unpack(words[code])
        np.testing.assert_array_equal(
            bits[: len(members)], predicate_mask(GENDER_SCHEMA, codes, predicate)
        )
        assert not bits[len(members) :].any()  # nothing past N


# ----------------------------------------------------------------------
# word-wise evaluation, bit tests and rank equal predicate_mask + cumsum
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(n=SIZES, shard_size=SIZES, predicate=PREDICATES, seed=st.integers(0, 2**16), data=st.data())
def test_word_kernels_equal_the_mask_and_its_cumsum(n, shard_size, predicate, seed, data):
    codes = random_codes(n, seed)
    mask = predicate_mask(SCHEMA, codes, predicate)
    bitmaps = sharded_bitmaps(codes, max(shard_size, 1), predicate_conditions(predicate))

    # The whole bitmap, Negation tail bits included.
    words = predicate_words(predicate, bitmaps, n)
    bits = unpack(words)
    np.testing.assert_array_equal(bits[:n], mask)
    assert not bits[n:].any()

    # Gathered bit tests, and one scalar word per index.
    if n:
        indices = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40)), dtype=np.int64
        )
        gathered = predicate_words(predicate, bitmaps, n, indices >> 6)
        np.testing.assert_array_equal((gathered & BIT[indices & 63]) != 0, mask[indices])
        for index in indices[:5].tolist():
            word = predicate_words(predicate, bitmaps, n, index >> 6)
            assert isinstance(word, np.uint64)
            assert bool(word & BIT[index & 63]) == mask[index]

    # Rank at every end in [0, N], vectorized and scalar: the cumsum.
    prefix = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
    directory = rank_directory(words)
    assert directory.dtype == np.int32 and len(directory) == n_words(n)
    ends = np.arange(n + 1, dtype=np.int64)
    np.testing.assert_array_equal(
        rank(directory, predicate_words(predicate, bitmaps, n, ends >> 6), ends), prefix
    )
    for end in {0, n, n // 2}:
        word = predicate_words(predicate, bitmaps, n, end >> 6)
        assert int(rank(directory, word, end)) == prefix[end]


#: (N, shard size, prefix budget): N and shards off multiples of 64, a
#: single object, one shard, and budgets below one bitmap, which the
#: index floors (137 objects need 24-byte bitmaps; one single-row shard
#: table is 8 bytes).
GEOMETRIES = st.one_of(
    st.sampled_from([
        (6_000, 137, None), (6_000, 6_000, None), (6_000, 64, 1),
        (137, 1, 1), (137, 1, None), (137, 137, 1), (1, 1, 1), (0, 5, None),
    ]),
    st.tuples(st.integers(1, 300), st.integers(1, 60), st.sampled_from([None, 1, 2])),
)


@settings(max_examples=60, deadline=None)
@given(geometry=GEOMETRIES, predicate=PREDICATES, seed=st.integers(0, 2**16), data=st.data())
def test_index_answers_like_the_mask_over_any_geometry_and_budget(
    geometry, predicate, seed, data
):
    n, shard_size, budget = geometry
    codes = random_codes(n, seed)
    mask = predicate_mask(SCHEMA, codes, predicate)
    prefix = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
    ds = ShardedDataset.from_generator(
        SCHEMA, n, shard_size, lambda s, a, b: codes[a:b], max_resident_shards=2
    )
    index = ShardedMembershipIndex(ds, max_cached_prefixes=budget)

    # Runs: empty ones, ones ending at N, and arbitrary ones.
    bounds = st.integers(0, n)
    pairs = data.draw(st.lists(st.tuples(bounds, bounds), min_size=1, max_size=12))
    pairs += [(0, n), (n // 3, n), (n // 2, n // 2)]
    starts = np.array([a for a, _ in pairs], dtype=np.int64)
    stops = np.array([b for _, b in pairs], dtype=np.int64)
    expected = np.maximum(prefix[stops] - prefix[starts], 0) > 0
    np.testing.assert_array_equal(index.any_match_runs(predicate, starts, stops), expected)
    for a, b in pairs[:4]:
        key = IndexKey.of_run(a, b)
        assert index.count(predicate, key) == max(int(prefix[b] - prefix[a]), 0)

    # One batch mixing run keys, scattered keys and empty keys.
    queries = [(predicate, IndexKey.of_run(a, b)) for a, b in pairs]
    if n:
        for _ in range(3):
            scattered = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
            queries.append((predicate, IndexKey.of(np.array(scattered, dtype=np.int64))))
        point = data.draw(st.integers(0, n - 1))
        assert index.matches(predicate, point) == mask[point]
    queries.append((predicate, IndexKey.of(np.empty(0, dtype=np.int64))))
    assert index.any_match_batch(queries) == [
        bool(mask[key.to_array()].any()) for _, key in queries
    ]
    np.testing.assert_array_equal(index.shard_totals(predicate), prefix[
        np.minimum(np.arange(ds.n_shards + 1) * shard_size, n)
    ])

    report = index.memory_report()
    assert report["peak_tracked_bytes"] <= report["cap_bytes"]
    # A budget below one bitmap is floored at every value bitmap plus a
    # rank directory, so one predicate's bitmaps are never evicted.
    assert report["cap_bytes"] >= bitmap_floor(ds)
    assert report["bitmap_evictions"] == 0


@settings(max_examples=60, deadline=None)
@given(
    geometry=GEOMETRIES,
    predicates=st.lists(PREDICATES, min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_one_batch_interleaving_predicates_answers_like_the_mask(
    geometry, predicates, seed, data
):
    """One ``any_match_batch`` call reads each predicate's keys in one
    pass, whatever spans of the batch they sit in: groups, super-groups
    and negations interleaved (a predicate object again later, and an
    equal predicate as a second object), over run, scattered, empty and
    repeated keys, answer key by key like the mask."""
    n, shard_size, budget = geometry
    codes = random_codes(n, seed)
    ds = ShardedDataset.from_generator(
        SCHEMA, n, shard_size, lambda s, a, b: codes[a:b], max_resident_shards=2
    )
    index = ShardedMembershipIndex(ds, max_cached_prefixes=budget)
    # An equal predicate built again is a second object of the same key.
    predicates = predicates + [copy.deepcopy(predicates[0])]
    bounds = st.integers(0, n)
    keys = [IndexKey.of(np.empty(0, dtype=np.int64))]
    keys += [IndexKey.of_run(a, b) for a, b in data.draw(
        st.lists(st.tuples(bounds, bounds), min_size=1, max_size=6))]
    if n:
        keys += [IndexKey.of(np.array(indices, dtype=np.int64)) for indices in data.draw(
            st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=20), max_size=6))]
    spans = data.draw(st.lists(
        st.tuples(st.sampled_from(predicates), st.lists(st.sampled_from(keys), max_size=8)),
        min_size=1, max_size=8,
    ))
    queries = [(predicate, key) for predicate, span in spans for key in span]
    masks = {predicate: predicate_mask(SCHEMA, codes, predicate) for predicate in predicates}
    assert index.any_match_batch(queries) == [
        bool(masks[predicate][key.to_array()].any()) for predicate, key in queries
    ]


def test_out_of_range_key_last_in_a_batch_raises_before_any_bitmap_build():
    codes = random_codes(300, 5)
    ds = ShardedDataset.from_generator(
        SCHEMA, 300, 64, lambda s, a, b: codes[a:b], max_resident_shards=2
    )
    index = ShardedMembershipIndex(ds)
    good = [(FEMALE, IndexKey.of_run(0, 50)), (MALE, IndexKey.of(np.array([3, 90, 7])))]
    for bad in (
        (MALE, IndexKey.of(np.array([5, 300]))),
        (group(race="asian"), IndexKey.of(np.array([-1, 4]))),
        (FEMALE, IndexKey.of_run(250, 301)),
    ):
        with pytest.raises(OracleError, match="out|outside"):
            index.any_match_batch([*good, bad])
        assert index.memory_report()["bitmap_builds"] == 0
        assert ds.stats.loads == 0


# ----------------------------------------------------------------------
# the fused streaming build equals a per-row reference on the full index
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=0, max_size=150),
    shard_size=st.integers(min_value=1, max_value=60),
    data=st.data(),
)
def test_fused_build_and_rank_lookups_answer_arbitrary_runs(members, shard_size, data):
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

    # Arbitrary runs, whatever shards they cross: the count must match a
    # per-row reference.
    for _ in range(4):
        a = data.draw(st.integers(min_value=0, max_value=len(members)))
        b = data.draw(st.integers(min_value=a, max_value=len(members)))
        run = IndexKey.of(np.arange(a, b))
        assert index.count(FEMALE, run) == sum(members[a:b])
        assert index.any_match(FEMALE, run) == any(members[a:b])


@settings(max_examples=60, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=0, max_size=150),
    shard_size=st.integers(min_value=1, max_value=40),
    max_resident_shards=st.integers(min_value=1, max_value=4),
    max_workers=st.integers(min_value=1, max_value=4),
)
def test_threaded_build_equals_a_serial_build_and_its_ledger(
    members, shard_size, max_resident_shards, max_workers
):
    """Threads load and pack a window of shards at once, but admit them
    in shard order: the bitmaps, the counters and the resident shards
    equal a serial pass, whatever the window and residency cap."""
    codes = codes_from_bools(members)

    def build(executor: ShardExecutor | None):
        ds = ShardedDataset.from_generator(
            GENDER_SCHEMA, len(members), shard_size, lambda s, a, b: codes[a:b],
            executor=executor, max_resident_shards=max_resident_shards,
        )
        index = ShardedMembershipIndex(ds)
        index.build_totals([FEMALE, MALE])
        totals = [index.shard_totals(p).tolist() for p in (FEMALE, MALE)]
        stats = ds.stats
        resident = [s for s in range(ds.n_shards) if ds._peek(s) is not None]
        return totals, (stats.loads, stats.evictions, stats.resident_shards), resident

    with ShardExecutor(mode="threads", max_workers=max_workers) as executor:
        assert build(executor) == build(None)


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
    """The point of fusion: bitmaps for k values cost one pass, not k."""
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 2, size=(1_000, 1)).astype(np.int16)
    ds = ShardedDataset.from_generator(
        GENDER_SCHEMA, 1_000, 100, lambda s, a, b: codes[a:b],
        max_resident_shards=2,
    )
    index = ShardedMembershipIndex(ds)
    index.build_totals([FEMALE, MALE])
    assert ds.stats.loads == ds.n_shards


@pytest.mark.parametrize("inner", [FEMALE, SuperGroup([FEMALE, group(race="black")])])
def test_negation_masks_the_tail_word(inner):
    """A complement must not count the unused bits of the last word: 70
    objects leave 58 bits of word 1 past N, all of them members of
    ``NOT inner`` if the tail were not masked."""
    codes = np.zeros((70, 2), dtype=np.int16)  # all male, all white
    bitmaps = sharded_bitmaps(codes, 70, predicate_conditions(inner))
    words = predicate_words(Negation(inner), bitmaps, 70)
    assert int(rank(rank_directory(words), words[1], 70)) == 70
    assert unpack(words)[70:].sum() == 0
