"""Unit tests for the Table 2 classifier-profile registry."""

from __future__ import annotations

import numpy as np

from repro.classifiers.metrics import binary_confusion
from repro.classifiers.pretrained import FEMALE, PAPER_PROFILES, table2_rows


def test_registry_has_nine_rows():
    assert len(PAPER_PROFILES) == 9
    assert {p.dataset_key for p in PAPER_PROFILES} == {
        "feret_403_591", "utkface_200_2800", "utkface_20_2980",
    }
    assert {p.classifier_name for p in PAPER_PROFILES} == {
        "DeepFace (opencv)", "DeepFace (retinaface)", "BaseCNN",
    }


def test_every_profile_is_realizable_on_its_slice():
    for profile, builder in table2_rows():
        rng = np.random.default_rng(3)
        dataset = builder(rng)
        classifier = profile.classifier()
        predicted = classifier.predict(dataset, rng)
        confusion = binary_confusion(dataset.mask(FEMALE), predicted)
        assert abs(confusion.accuracy - profile.accuracy) <= 0.005, profile
        assert abs(confusion.precision - profile.precision_on_female) <= 0.005, profile


def test_paper_strategy_consistent_with_precision():
    """The paper's reported strategy must agree with the 25% FP rule its
    prose states — the rule :mod:`repro.core.classifier_coverage` applies."""
    for profile in PAPER_PROFILES:
        expected = "partition" if profile.precision_on_female >= 0.75 else "label"
        assert profile.paper_strategy == expected, profile
