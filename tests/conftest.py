"""Shared fixtures: the toy ISA specification used across test packages."""

import os

import pytest
from hypothesis import settings

from repro.adl import load_isa

#: ``HYPOTHESIS_PROFILE=ci`` makes every property test draw the same
#: examples on every run and ignore the local example database, so a
#: test run cannot go red on a random seed or a replayed old failure.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

TOY_LIS = os.path.join(FIXTURES, "toy.lis")
TOY_BUILDSETS_LIS = os.path.join(FIXTURES, "toy_buildsets.lis")


@pytest.fixture(scope="session")
def toy_spec():
    """Analyzed toy ISA including its buildsets."""
    return load_isa([TOY_LIS, TOY_BUILDSETS_LIS])


@pytest.fixture()
def toy_paths():
    return [TOY_LIS, TOY_BUILDSETS_LIS]
