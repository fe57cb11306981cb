import pytest

from sl2qes import pipeline


@pytest.fixture(autouse=True)
def _one_worker_per_test():
    """A test's table writer goes with the test, so the next test's first
    large request forks its own, after that test's patches."""
    yield
    pipeline._end_worker(kill=True)
