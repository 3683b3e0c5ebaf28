import random

import pytest

from pcmax.blackburn import build_blackburn_pc, build_m_presentation
from pcmax.maxclass import build_profile, validate_maximal_class
from pcmax.search import search_nonmetabelian

SEED = 0x5EED_C0DE_2026

# fixture grid used throughout; (7,9) only where a test really needs it
GRID = [(3, 5), (3, 6), (5, 5), (5, 7), (5, 8), (7, 9)]


@pytest.fixture(scope="session")
def g35():
    return build_blackburn_pc(3, 5)


@pytest.fixture(scope="session")
def g36():
    return build_blackburn_pc(3, 6)


@pytest.fixture(scope="session")
def g55():
    return build_blackburn_pc(5, 5)


@pytest.fixture(scope="session")
def g57():
    return build_blackburn_pc(5, 7)


@pytest.fixture(scope="session")
def g58():
    return build_blackburn_pc(5, 8)


@pytest.fixture(scope="session")
def m57():
    return build_m_presentation(5, 7)


@pytest.fixture(scope="session")
def profile35(g35):
    return build_profile(validate_maximal_class(g35), require_chain=True)


@pytest.fixture(scope="session")
def profile55(g55):
    return build_profile(validate_maximal_class(g55), require_chain=True)


@pytest.fixture(scope="session")
def profile57(g57):
    return build_profile(validate_maximal_class(g57), require_chain=True)


@pytest.fixture(scope="session")
def nonmetabelian58():
    result = search_nonmetabelian(5, 8, seed=SEED, budget=5000)
    assert result is not None, "fixture search exhausted its budget"
    return result


@pytest.fixture(scope="session")
def nonmetabelian57():
    result = search_nonmetabelian(5, 7, seed=SEED, budget=5000, l_target=1)
    assert result is not None, "fixture search exhausted its budget"
    return result


@pytest.fixture(scope="session")
def nm_profile58(nonmetabelian58):
    return build_profile(validate_maximal_class(nonmetabelian58.pres), require_chain=True)


@pytest.fixture()
def rng():
    return random.Random(SEED)
