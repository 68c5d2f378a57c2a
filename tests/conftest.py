"""Shared pytest fixtures."""

import pytest

from repro.simclock import SimClock
from tests.helpers import make_cloud, make_zone


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def zone():
    return make_zone()


@pytest.fixture
def cloud():
    return make_cloud()


@pytest.fixture
def aws_account(cloud):
    return cloud.create_account("test-account", "aws")


@pytest.fixture(scope="session")
def catalog_cloud_readonly():
    """The full 41-region catalog, shared read-only across tests.

    Tests that mutate zone state (polls, invocations) must build their own
    cloud instead.
    """
    from repro import build_sky
    return build_sky(seed=1234)
