"""Each check can fail: a mutant of the engine that a check compares
changes that check's verdict, and the unmutated check passes.

Covered so far: checks 5 (square counts by count_tilings, the numeric
recurrence and the symbolic limit) and 6 (the product formula against
count_tilings), both of which reach the Kasteleyn determinant from
side 10 on.
"""

from __future__ import annotations

import functools

import pytest

from lambdadet import reproduce, tilings
from lambdadet.reproduce import ReproductionSession, run_check


@pytest.fixture(scope="module")
def session():
    """The symbolic pyramids check 5 reads, which no mutant here touches."""
    return ReproductionSession()


@pytest.fixture(autouse=True)
def fresh_region_steps():
    """matching_sum keeps its last region steps (an lru_cache), so neither
    a mutant's engine nor one built before the mutant may outlive a case."""
    tilings._evaluator.cache_clear()
    yield
    tilings._evaluator.cache_clear()


def flip_one_vertical_sign(monkeypatch):
    """_kasteleyn_engine with the Kasteleyn sign of the region's first
    vertical edge flipped."""
    engine_of = tilings._kasteleyn_engine

    def mutant(cells, local, frontier):
        edges, engine = engine_of(cells, local, frontier)
        size, places, signs, frontier = engine.args
        first = next(e for e, (a, b) in enumerate(edges) if a[1] == b[1])
        signs = [-s if e == first else s for e, s in enumerate(signs)]
        return edges, functools.partial(engine.func, size, places, signs, frontier)

    monkeypatch.setattr(tilings, "_kasteleyn_engine", mutant)


@pytest.mark.parametrize("number", [5, 6])
def test_unmutated_check_passes(session, number):
    assert run_check(number, session).passed


def test_one_flipped_kasteleyn_sign_fails_checks_5_and_6(session, monkeypatch):
    flip_one_vertical_sign(monkeypatch)
    square = run_check(5, session)
    assert not square.passed
    assert square.detail.startswith("n=5: oracle 0, numeric 258584046368, ")
    product = run_check(6, session)
    assert not product.passed
    assert product.detail == "n=5: product formula 258584046368 vs count 0"


def test_product_formula_off_by_one_fails_check_6(session, monkeypatch):
    exact = reproduce.tfk_count
    monkeypatch.setattr(reproduce, "tfk_count", lambda n: exact(n) + 1)
    result = run_check(6, session)
    assert not result.passed
    assert result.detail == "n=1: product formula 3 vs count 2"
