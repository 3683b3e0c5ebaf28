"""The randomized fixture search: determinism, oracle guarantees, budget."""

import pytest

from pcmax.errors import PresentationError
from pcmax.maxclass import (build_profile, standard_generators,
                            validate_maximal_class)
from pcmax.search import search_nonmetabelian

from .conftest import SEED


# Hits of the search at budget 5000: (seed, p, n, l_target) -> (digest,
# candidates tried).  Both SEED rows are the fixtures the benchmark gates
# on, so any change to the random stream or to the solution space shows
# here first.
PINNED_HITS = {
    (SEED, 5, 7, 1): ("c4a0e74caaf6407b3e223024e3986468e8147db848cdcb88ebe1d6a803b6ce91", 2),
    (SEED, 5, 8, None): ("42566c691ee4cde523ba0538d8da4fbba78ebb7bf8d1e6180be83941b5ea75cc", 2),
    (1, 5, 7, 1): ("1e984ad3a205cb93eb3cb862d0ba39877a6a48ac706d4079381a559fce9b1b16", 2),
    (1, 5, 8, None): ("0f79c2c7411893826856f6425939c4914285995913ea522fe14d84d605a62e24", 2),
    (1, 5, 9, None): ("bc338cc40ebdd8a56e6b4c5969dfa9ebe18a9cb6c7e502c5ea8479842392e735", 2),
    (1, 7, 10, None): ("429f232d1d4b3d6a5d1c32f588768602b04e41427c835d0b5656c6e9e3afb322", 1),
    (2, 5, 7, 1): ("f574ed18a04fe2bf94a784925ede1f4172625406a681cfdd3dbc3f2070da0972", 4),
    (2, 5, 8, None): ("8e044f76969febd5627d1b416434f4d1af2d03cb53dcc71f7acafa83cfaa19c9", 4),
    (2, 5, 9, None): ("7bda569bed3e5e1e69332b48784e66c937c22c393ce010f1f895fde93045b857", 35),
    (2, 7, 10, None): ("592115b3e81b6e63d4058933af585d91e0def41ed2af9e600363ec2c9a42e3ec", 13),
    (3, 5, 7, 1): ("e2dff01ed7e7169e5b725179f5a1ad64d3fe64ffe5ad67bea7f4f01d05263630", 3),
    (3, 5, 8, None): ("26740a3a2b1d96bf9ae39ce5cb6908eecc6ede1c075bd3ceb7e88bf563468667", 3),
    (3, 5, 9, None): ("f5bff8da0b302ecea79b1f065d1c059dc0065e2b93114b9aceb624d1ca091d48", 4),
    (3, 7, 10, None): ("3a414cdacc762f459045804944b48a2c75df9a406e9d604cd12f28a012de1baf", 9),
}


@pytest.mark.parametrize("key", PINNED_HITS)
def test_search_hits_are_pinned(key):
    seed, p, n, l_target = key
    result = search_nonmetabelian(p, n, seed=seed, budget=5000, l_target=l_target)
    assert (result.pres.digest(), result.candidates_tried) == PINNED_HITS[key]
    # every hit follows the generator convention the drivers require;
    # standard_generators raises otherwise
    standard_generators(result.pres, build_profile(validate_maximal_class(result.pres)).G1)


def test_linear_system_matches_the_dense_construction():
    # same variables, rows and row order, so the same row reduction and draws
    from pcmax.search import _linear_system

    from .oracles import dense_linear_system

    for p in (3, 5, 7):
        for n in range(5, 13):
            for l in range(0, n - 3):
                assert _linear_system(p, n, l) == dense_linear_system(p, n, l), (p, n, l)


def test_search_finds_fixture_quickly(nonmetabelian58):
    assert nonmetabelian58.candidates_tried <= 100


def test_search_is_deterministic(nonmetabelian58):
    again = search_nonmetabelian(5, 8, seed=SEED, budget=5000)
    assert again.pres.digest() == nonmetabelian58.pres.digest()
    assert again.candidates_tried == nonmetabelian58.candidates_tried


def test_search_result_passes_the_oracle(nonmetabelian58):
    pres = nonmetabelian58.pres
    assert pres.consistency_check().ok
    report = validate_maximal_class(pres)
    assert report.ok
    profile = build_profile(report)
    assert standard_generators(pres, profile.G1)[1:] == (
        pres.generators[1], pres.generators[1:])
    assert not profile.metabelian
    assert profile.l == nonmetabelian58.l == 2


def test_search_builds_one_series_per_candidate(monkeypatch):
    # each consistent candidate is validated once, and its series is read
    # off the tails rather than computed
    from pcmax import search
    from pcmax.pcgroup import PcPresentation

    consistent, validated, series = [], [], []

    def recording(log, fn, keep=lambda result: True):
        def wrapper(pres):
            result = fn(pres)
            if keep(result):
                log.append(pres)
            return result
        return wrapper

    monkeypatch.setattr(PcPresentation, "consistency_check", recording(
        consistent, PcPresentation.consistency_check, lambda report: report.ok))
    monkeypatch.setattr(PcPresentation, "lower_central_series",
                        recording(series, PcPresentation.lower_central_series))
    monkeypatch.setattr(search, "validate_maximal_class",
                        recording(validated, search.validate_maximal_class))
    assert search_nonmetabelian(5, 7, seed=SEED, budget=5000, l_target=1)
    assert validated == consistent and validated
    assert series == []


def test_search_different_seed_still_hits():
    res = search_nonmetabelian(5, 8, seed=SEED + 1, budget=2000)
    assert res is not None
    assert not build_profile(validate_maximal_class(res.pres)).metabelian


def test_search_budget_exhaustion_returns_none():
    assert search_nonmetabelian(5, 8, seed=SEED, budget=0) is None


def test_search_rejects_small_n():
    with pytest.raises(PresentationError):
        search_nonmetabelian(5, 5, seed=SEED)


def test_search_rejects_bad_l_target():
    with pytest.raises(PresentationError):
        search_nonmetabelian(5, 8, seed=SEED, l_target=5)  # n - 3 is metabelian
