"""Spec dataclasses: immutability, normalization, serialization."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.audit import (
    BaseAuditSpec,
    ClassifierAuditSpec,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
    spec_from_dict,
)
from repro.data.groups import Negation, SuperGroup, group
from repro.data.schema import Schema
from repro.errors import InvalidParameterError

FEMALE = group(gender="female")
MALE = group(gender="male")


class TestNormalization:
    def test_view_ndarray_becomes_int64_bytes(self):
        spec = GroupAuditSpec(
            predicate=FEMALE, tau=5, view=np.array([3, 1, 2], dtype=np.int32)
        )
        assert spec.view == np.array([3, 1, 2], dtype=np.int64).tobytes()
        assert spec == GroupAuditSpec(predicate=FEMALE, tau=5, view=(3, 1, 2))
        assert spec.to_dict()["view"] == [3, 1, 2]

    def test_view_none_stays_none(self):
        spec = GroupAuditSpec(predicate=FEMALE, tau=5)
        assert spec.view is None
        assert spec.view_array() is None

    def test_view_array_round_trips(self):
        spec = BaseAuditSpec(predicate=FEMALE, tau=5, view=[5, 7])
        np.testing.assert_array_equal(
            spec.view_array(), np.array([5, 7], dtype=np.int64)
        )

    @pytest.mark.parametrize(
        "spec",
        [
            GroupAuditSpec(predicate=FEMALE, tau=5, view=[5, 7, 2]),
            BaseAuditSpec(predicate=FEMALE, tau=5, view=[5, 7, 2]),
            MultipleAuditSpec(groups=[FEMALE, MALE], tau=5, view=[5, 7, 2]),
            IntersectionalAuditSpec(
                schema=Schema.from_dict({"gender": ["male", "female"]}), tau=5, view=[5, 7, 2]
            ),
            ClassifierAuditSpec(group=FEMALE, tau=5, view=[5, 7, 2]),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_view_array_is_a_read_only_view_of_one_buffer(self, spec):
        first, second = spec.view_array(), spec.view_array()
        assert first.dtype == np.int64 and first.tolist() == [5, 7, 2]
        assert not first.flags.writeable
        assert np.shares_memory(first, second)
        with pytest.raises(ValueError):
            first[0] = 1

    def test_groups_normalized_to_tuple(self):
        spec = MultipleAuditSpec(groups=[FEMALE, MALE], tau=5)
        assert spec.groups == (FEMALE, MALE)

    def test_predicted_positive_normalized(self):
        spec = ClassifierAuditSpec(
            group=FEMALE, tau=5, predicted_positive=np.array([9, 4])
        )
        assert spec.predicted_positive_array().tolist() == [9, 4]
        assert spec.describe().endswith("|G|=2)")
        assert not spec.predicted_positive_array().flags.writeable

    def test_specs_are_frozen_and_hashable(self):
        spec = GroupAuditSpec(predicate=FEMALE, tau=5, view=[1, 2])
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.tau = 6
        assert hash(spec) == hash(GroupAuditSpec(predicate=FEMALE, tau=5, view=[1, 2]))
        assert dataclasses.replace(spec, tau=6).view_array().tolist() == [1, 2]

    def test_equal_specs_compare_equal(self):
        assert GroupAuditSpec(predicate=FEMALE, tau=5) == GroupAuditSpec(
            predicate=FEMALE, tau=5
        )
        assert GroupAuditSpec(predicate=FEMALE, tau=5) != GroupAuditSpec(
            predicate=FEMALE, tau=6
        )


class TestSerialization:
    SPECS = [
        GroupAuditSpec(predicate=FEMALE, tau=5, n=10, view=(0, 1, 2)),
        GroupAuditSpec(predicate=SuperGroup([FEMALE, MALE]), tau=3),
        GroupAuditSpec(predicate=Negation(FEMALE), tau=3),
        BaseAuditSpec(predicate=FEMALE, tau=4),
        MultipleAuditSpec(
            groups=(FEMALE, MALE),
            tau=7,
            n=20,
            c=1.5,
            multi=True,
            attribute_supergroup_members=True,
            view=(4, 5, 6),
        ),
        IntersectionalAuditSpec(
            schema=Schema.from_dict(
                {"gender": ["male", "female"], "race": ["white", "black"]}
            ),
            tau=9,
            c=0.0,
        ),
        ClassifierAuditSpec(
            group=FEMALE,
            tau=6,
            predicted_positive=(1, 2, 3),
            sample_fraction=0.2,
            fp_threshold=0.5,
            view=(0, 1, 2, 3, 4),
        ),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_round_trip_is_lossless(self, spec):
        assert spec_from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_dict_form_is_json_compatible(self, spec):
        import json

        assert spec_from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            spec_from_dict({"kind": "nope"})
