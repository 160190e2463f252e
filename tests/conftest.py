"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data.schema import Schema

#: The differential harness's wide draw (CI's ``differential-wide`` job,
#: ``pytest --hypothesis-profile=differential-wide``): its hypothesis
#: tests take this many examples instead of their tier-1 budgets.
settings.register_profile("differential-wide", max_examples=2000)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def gender_schema() -> Schema:
    return Schema.from_dict({"gender": ["male", "female"]})


@pytest.fixture
def gender_race_schema() -> Schema:
    return Schema.from_dict(
        {
            "gender": ["male", "female"],
            "race": ["white", "black", "hispanic", "asian"],
        }
    )
