"""The randomized fixture search: determinism, oracle guarantees, budget."""

import pytest

from pcmax.errors import PresentationError
from pcmax.maxclass import build_profile, validate_maximal_class
from pcmax.search import search_nonmetabelian

from .conftest import SEED


def test_search_finds_fixture_quickly(nonmetabelian58):
    assert nonmetabelian58.candidates_tried <= 100


def test_search_is_deterministic(nonmetabelian58):
    again = search_nonmetabelian(5, 8, seed=SEED, budget=5000)
    assert again.pres.digest() == nonmetabelian58.pres.digest()
    assert again.candidates_tried == nonmetabelian58.candidates_tried


def test_search_result_passes_the_oracle(nonmetabelian58):
    pres = nonmetabelian58.pres
    assert pres.consistency_check().ok
    assert validate_maximal_class(pres).ok
    profile = build_profile(pres, require_chain=True)
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
    assert not build_profile(res.pres).metabelian


def test_search_budget_exhaustion_returns_none():
    assert search_nonmetabelian(5, 8, seed=SEED, budget=0) is None


def test_search_rejects_small_n():
    with pytest.raises(PresentationError):
        search_nonmetabelian(5, 5, seed=SEED)


def test_search_rejects_bad_l_target():
    with pytest.raises(PresentationError):
        search_nonmetabelian(5, 8, seed=SEED, l_target=5)  # n - 3 is metabelian
