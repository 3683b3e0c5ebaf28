import os
import random

import pytest

import pcmax
from pcmax.blackburn import build_blackburn_pc, build_m_presentation
from pcmax.maxclass import build_profile, validate_maximal_class
from pcmax.pcgroup import PcPresentation
from pcmax.search import search_nonmetabelian

SEED = 0x5EED_C0DE_2026


def pcmax_env():
    """The environment for a child Python that imports pcmax: the package's
    source directory first on PYTHONPATH, so that a checkout needs no install."""
    src = os.path.dirname(os.path.dirname(pcmax.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

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
    return build_profile(validate_maximal_class(g35))


@pytest.fixture(scope="session")
def profile55(g55):
    return build_profile(validate_maximal_class(g55))


@pytest.fixture(scope="session")
def profile57(g57):
    return build_profile(validate_maximal_class(g57))


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
    return build_profile(validate_maximal_class(nonmetabelian58.pres))


@pytest.fixture(scope="session")
def nm_profile57(nonmetabelian57):
    return build_profile(validate_maximal_class(nonmetabelian57.pres))


@pytest.fixture(scope="session")
def rescaled58(g58):
    """The reference 5^8 on the generators a_1 and a_k^(2^(k-2)), k >= 2: of
    maximal class, but [a_k, a_1] = a_{k+1}^(1/2), so without the standard
    chain.  In the reference <a_2, ..., a_8> is abelian and holds every
    tail, and [a_k, a_1] is its only kind of commutator tail, so each tail
    is rescaled coordinatewise."""
    p, n = g58.p, g58.n
    scale = [1] + [pow(2, k - 2, p) for k in range(2, n + 1)]

    def rescaled(tail, k):  # the tail of a_k^p or of [a_k, a_1]
        return tuple(scale[k - 1] * e * pow(scale[c], -1, p) % p
                     for c, e in enumerate(tail))

    assert all(i == 1 for _, i in g58.commutator_tails)
    return PcPresentation(
        p, n, [rescaled(t, k) for k, t in enumerate(g58.power_tails, start=1)],
        {(j, 1): rescaled(t, j) for (j, _), t in g58.commutator_tails.items()})


@pytest.fixture(scope="session")
def a2_outside_G1_58(g58):
    """The reference 5^8 with a_2^p = 1 and [a_j, a_2] = a_{j+1} for
    3 <= j < 8, as if a_2 stood for s s_1: consistent, of maximal class and
    with the standard chain, but psi(a_2) = 1 puts a_2 outside G_1."""
    n = g58.n
    power_tails = list(g58.power_tails)
    power_tails[1] = (0,) * n
    tails = dict(g58.commutator_tails)
    tails.update({(j, 2): g58.generators[j] for j in range(3, n)})
    return PcPresentation(g58.p, n, power_tails, tails)


@pytest.fixture(scope="session")
def assoc_i2_78():
    """A weighted 7^8 with the standard chain that passes every word of the
    short overlap set (weight <= 7, last index <= 2) except the
    associativity words a_k (a_j a_2), and fails a_4 (a_3 a_2): a_1^7 =
    a_8^6, a_2^7 = a_8^5, and the tails below."""
    p, n = 7, 8

    def tail(**exps):  # tail(a7=5, a8=3) is a_7^5 a_8^3
        return [exps.get(f"a{c}", 0) for c in range(1, n + 1)]

    tails = {(k, 1): tail(**{f"a{k + 1}": 1}) for k in range(2, n)}
    tails.update({(3, 2): tail(a7=5, a8=3), (4, 2): tail(a7=6), (4, 3): tail(a7=1, a8=5),
                  (5, 2): tail(a7=6, a8=5), (5, 3): tail(a8=3), (5, 4): tail(a8=5),
                  (6, 2): tail(a8=1), (6, 3): tail(a8=2), (7, 2): tail(a8=5)})
    return PcPresentation(p, n, [tail(a8=6), tail(a8=5)] + [tail()] * (n - 2), tails)


@pytest.fixture(scope="session")
def l1_58():
    """The 5^8 of maximal class with l = 1 from ROADMAP item 1, at the top
    of its fixed-l branch: a_1^5 = 1, a_2^5 = a_6^4 a_7^2, a_3^5 = a_7^4 a_8^2,
    a_4^5 = a_8^4, the chain [a_k, a_1] = a_{k+1}, and the tails below;
    every other relation is trivial.  [a_3, a_2] = a_5 gives l <= 1."""
    p, n = 5, 8

    def tail(**exps):  # tail(a7=4, a8=2) is a_7^4 a_8^2
        return [exps.get(f"a{c}", 0) for c in range(1, n + 1)]

    tails = {(k, 1): tail(**{f"a{k + 1}": 1}) for k in range(2, n)}
    tails.update({(3, 2): tail(a5=1), (4, 2): tail(a6=1, a7=2, a8=3),
                  (4, 3): tail(a7=3, a8=4), (5, 2): tail(a7=3), (5, 3): tail(a8=3)})
    powers = [tail(), tail(a6=4, a7=2), tail(a7=4, a8=2), tail(a8=4)]
    return PcPresentation(p, n, powers + [tail()] * (n - 4), tails)


@pytest.fixture()
def rng():
    return random.Random(SEED)
