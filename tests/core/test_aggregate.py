"""Unit tests for Aggregate (super-group formation, Algorithm 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate import aggregate_groups, expected_count
from repro.core.sampling import LabeledPool
from repro.data.groups import Group, group
from repro.data.schema import Schema
from repro.errors import InvalidParameterError

RACE = Schema.from_dict({"race": [
    "white", "black", "asian", "a", "b", "c", "d", "major", "m1", "m2", "m3",
    "big", "mid", "tiny",
]})
JOINT = Schema.from_dict(
    {"gender": ["male", "female"], "race": ["white", "black", "asian", "hispanic"]}
)


def pool_with(counts: dict[str, int]) -> LabeledPool:
    values = [value for value, count in counts.items() for _ in range(count)]
    pool = LabeledPool(RACE)
    pool.add(np.arange(len(values)), RACE.encode_rows({"race": value} for value in values))
    return pool


class TestExpectedCount:
    def test_formula(self):
        pool = pool_with({"white": 90, "black": 10})
        assert expected_count(pool, group(race="black"), 1000) == pytest.approx(100.0)

    def test_empty_pool(self):
        assert expected_count(LabeledPool(RACE), group(race="black"), 1000) == 0.0


class TestAggregation:
    def test_minorities_merge_when_expected_sum_below_tau(self):
        # black and asian each expected 20 in N=1000 -> merged; white alone.
        pool = pool_with({"white": 96, "black": 2, "asian": 2})
        groups = [group(race=v) for v in ("white", "black", "asian")]
        supers = aggregate_groups(pool, 1000, 50, groups)
        sizes = sorted(len(s) for s in supers)
        assert sizes == [1, 2]
        merged = next(s for s in supers if len(s) == 2)
        assert set(merged.members) == {group(race="black"), group(race="asian")}

    def test_merge_stops_when_sum_reaches_tau(self):
        # Expected counts 30, 30, 30: first two merge? 30 + 30 = 60 >= 50 ->
        # no; each stands alone once the running sum would cross tau.
        pool = pool_with({"a": 3, "b": 3, "c": 3, "major": 91})
        groups = [Group({"race": v}) for v in ("a", "b", "c", "major")]
        supers = aggregate_groups(pool, 1000, 50, groups)
        assert sorted(len(s) for s in supers) == [1, 1, 1, 1]

    def test_unsampled_groups_all_merge(self):
        # Nothing sampled for the minorities: expected counts are 0, so all
        # of them fold into one super-group (the adversarial trap).
        pool = pool_with({"major": 100})
        groups = [Group({"race": v}) for v in ("major", "m1", "m2", "m3")]
        supers = aggregate_groups(pool, 1000, 50, groups)
        merged = [s for s in supers if len(s) == 3]
        assert len(merged) == 1
        assert set(merged[0].members) == {
            Group({"race": "m1"}), Group({"race": "m2"}), Group({"race": "m3"})
        }

    def test_partition_property(self):
        pool = pool_with({"a": 1, "b": 1, "c": 50, "d": 48})
        groups = [Group({"race": v}) for v in ("a", "b", "c", "d")]
        supers = aggregate_groups(pool, 2000, 50, groups)
        flattened = [member for s in supers for member in s]
        assert sorted(g.describe() for g in flattened) == sorted(
            g.describe() for g in groups
        )

    def test_ascending_order_by_sampled_count(self):
        pool = pool_with({"big": 80, "mid": 15, "tiny": 5})
        groups = [Group({"race": v}) for v in ("big", "mid", "tiny")]
        supers = aggregate_groups(pool, 100, 1000, groups)
        # Everything expected-uncovered (tau=1000): single merged group in
        # ascending sampled order.
        assert len(supers) == 1
        assert [g.value_of("race") for g in supers[0]] == ["tiny", "mid", "big"]

    def test_empty_groups(self):
        assert aggregate_groups(LabeledPool(RACE), 100, 50, []) == ()

    def test_duplicate_groups_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate_groups(
                LabeledPool(RACE), 100, 50, [group(race="a"), group(race="a")]
            )

    def test_invalid_tau(self):
        with pytest.raises(InvalidParameterError):
            aggregate_groups(LabeledPool(RACE), 100, 0, [group(race="a"), group(race="b")])


class TestSiblingConstraint:
    def _pool(self):
        pool = LabeledPool(JOINT)
        pool.add(np.arange(100), JOINT.encode_rows([{"gender": "male", "race": "white"}] * 100))
        return pool

    def test_multi_true_only_merges_siblings(self):
        pool = self._pool()
        # Four unsampled leaves: (f,b) and (f,a) share gender=female (differ
        # on race only) -> mergeable; (m,b) differs from (f,a) on both.
        leaves = [
            group(gender="female", race="black"),
            group(gender="female", race="asian"),
            group(gender="male", race="black"),
            group(gender="male", race="asian"),
        ]
        supers = aggregate_groups(pool, 10_000, 50, leaves, multi=True)
        for s in supers:
            members = list(s)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert members[i].shares_parent_with(members[j]), (
                        f"{members[i]} and {members[j]} merged but are not siblings"
                    )

    def test_multi_false_merges_across_parents(self):
        pool = self._pool()
        leaves = [
            group(gender="female", race="black"),
            group(gender="male", race="asian"),
        ]
        supers = aggregate_groups(pool, 10_000, 50, leaves, multi=False)
        assert len(supers) == 1 and len(supers[0]) == 2

    def test_three_way_sibling_merge_along_one_attribute(self):
        pool = self._pool()
        leaves = [
            group(gender="female", race="black"),
            group(gender="female", race="asian"),
            group(gender="female", race="hispanic"),
        ]
        supers = aggregate_groups(pool, 10_000, 50, leaves, multi=True)
        assert len(supers) == 1 and len(supers[0]) == 3
