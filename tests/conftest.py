import pytest


@pytest.fixture(scope="session")
def warm_kernels():
    """Nothing to warm: every kernel is plain numpy; the acceptance tests
    still request this fixture by name."""
