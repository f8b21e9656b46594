import os
import tracemalloc

import pytest

from dworkbench.finitefield import build_field


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long cross-checks, run with DWORKBENCH_SLOW=1")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("DWORKBENCH_SLOW"):
        return
    skip = pytest.mark.skip(reason="set DWORKBENCH_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def f7():
    return build_field(7)


@pytest.fixture(scope="session")
def f13():
    return build_field(13)


@pytest.fixture(scope="session")
def f19():
    return build_field(19)


@pytest.fixture(scope="session")
def f29():
    return build_field(29)


@pytest.fixture(scope="session")
def f43():
    return build_field(43)


@pytest.fixture
def refused_peak():
    """refused_peak(call, exc, match): call must raise exc matching match;
    returns the tracemalloc peak in bytes of the refused call."""

    def run(call, exc, match):
        tracemalloc.start()
        try:
            with pytest.raises(exc, match=match):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
