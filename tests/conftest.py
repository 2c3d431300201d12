import pytest

import doublespend.simulate as simulate_module


@pytest.fixture(autouse=True)
def fresh_shard_workers():
    """Close the simulator's kept workers around each test, so the names a
    test patches reach the workers its calls fork."""
    simulate_module._close_pool()
    yield
    simulate_module._close_pool()
