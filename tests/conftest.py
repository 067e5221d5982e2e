import pytest

import mbs.isomorphism
from mbs import moebius_annulus, quasi_pure, theta


@pytest.fixture(autouse=True)
def _clear_labelling_cache():
    """Labellings cached by one test must not reach the next one (the bench
    tests expect to start from an empty cache)."""
    yield
    mbs.isomorphism._canonical.cache_clear()


@pytest.fixture
def theta3():
    return theta(3)


@pytest.fixture
def mb():
    return moebius_annulus()


@pytest.fixture
def qn():
    return quasi_pure()
