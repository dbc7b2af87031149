"""Shared fixtures for the test suite."""

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.hive import HiveSession
from repro.orc import encodings


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


@pytest.fixture
def lane_calls(monkeypatch):
    """One entry (the body's length) per int body that
    ``decode_int_column`` hands to its lane kernel."""
    calls = []
    lane = encodings._lane_zigzags

    def spy(data, ends):
        calls.append(len(data))
        return lane(data, ends)
    monkeypatch.setattr(encodings, "_lane_zigzags", spy)
    return calls
