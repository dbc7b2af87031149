"""Shared fixtures for the test suite."""

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.hive import HiveSession


@pytest.fixture
def cluster():
    """A small, unscaled cluster for unit tests."""
    return Cluster(ClusterProfile.laptop())


@pytest.fixture
def session():
    """A fresh HiveSession on a laptop-profile cluster."""
    return HiveSession(profile=ClusterProfile.laptop())


@pytest.fixture
def multi_node_cluster():
    """A cluster with several datanodes (for replication tests)."""
    return Cluster(ClusterProfile(name="test-multi", nodes=5))
