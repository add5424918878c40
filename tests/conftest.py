from __future__ import annotations

import pytest

from permnet import network


@pytest.fixture(scope="session")
def networks_by_degree():
    """All networks on 1..7 points, enumerated once."""
    return {n: network.enumerate_networks(n) for n in range(1, 8)}
