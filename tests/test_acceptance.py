"""Acceptance run: every headline number and invariant, one test per check.

Each test prints its own ``check N/14 PASS|FAIL`` line (visible under
``pytest -s`` or on failure) and asserts the check outcome.  Check 11
records a negative result: the diamond-masked partial sums it scans stay
non-negative through size 6 but reach -1 at odd size 7, so the check
reports FAIL with a concrete seven-by-seven witness.  Its test asserts
that finding, and the witness, rather than a pass.  See the README for
the full story.
"""

from __future__ import annotations

import pytest

from lambdadet.asm import is_asm, mask_cells, region_sum
from lambdadet.matrices import diamond_odd
from lambdadet.reproduce import ReproductionSession, run_check

SIZE_SEVEN_FINDING = "size-7 diamond sum reaches -1 on 112 matrices, e.g. "


@pytest.fixture(scope="module")
def session():
    return ReproductionSession()


def report(result) -> str:
    line = result.line()
    print(line)
    return line


def run_numbered(number: int, session) -> None:
    result = run_check(number, session)
    line = report(result)
    assert result.passed, line


def test_01_all_ones_closed_form(session):
    run_numbered(1, session)


def test_02_eight_by_eight_diamond_pipeline(session):
    run_numbered(2, session)


def test_03_four_by_four_diamond_pyramid_trace(session):
    run_numbered(3, session)


def test_04_trimmed_region_tiling_counts(session):
    run_numbered(4, session)


def test_05_square_count_triple_agreement(session):
    run_numbered(5, session)


def test_06_trigonometric_product_formula(session):
    run_numbered(6, session)


def test_07_aztec_and_expanded_term_counts(session):
    run_numbered(7, session)


def test_08_recurrence_versus_summation(session):
    result = run_check(8, session)
    line = report(result)
    assert result.passed, line
    # The headline 8-by-8 diamond is among the cross-checked matrices.
    assert result.detail == (
        "recurrence equals summation on diamonds <= 8 and 100 random matrices"
    )


def test_09_perturbed_center_family(session):
    run_numbered(9, session)


def test_10_perturbed_pyramid_polynomiality(session):
    run_numbered(10, session)


def test_11_masked_partial_sum_non_negativity(session):
    """Check 11 reports exactly its recorded size-7 finding.

    Non-negativity of the diamond-masked sums is false at odd size 7, so
    the check must FAIL with a single entry: the size-7 minimum -1 on 112
    matrices.  No other entry may follow: that shows sizes 2..6, the
    complements and the window patterns all stayed non-negative.  The
    witness it names must be a 7-by-7 ASM whose masked sum is -1.  The
    sketch itself is not pinned, since enumeration order picks it.  A
    pass, a crash (reported as ``Type: message``) or any other negative
    fails this test.
    """
    result = run_check(11, session)
    line = report(result)
    assert not result.passed, line
    assert result.detail.startswith(SIZE_SEVEN_FINDING), line
    sketch = result.detail[len(SIZE_SEVEN_FINDING):]
    assert "; " not in sketch, line
    symbols = {".": 0, "+": 1, "-": -1}
    witness = tuple(tuple(symbols[c] for c in row) for row in sketch.split("/"))
    assert [len(row) for row in witness] == [7] * 7, line
    assert is_asm(witness), line
    assert region_sum(witness, mask_cells(diamond_odd(3))) == -1, line


def test_12_odd_diamonds_count_square_tilings(session):
    run_numbered(12, session)


def test_13_graphical_condensation_identity(session):
    run_numbered(13, session)


def test_14_minus_one_engine_split(session):
    run_numbered(14, session)
