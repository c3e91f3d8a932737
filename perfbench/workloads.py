"""The four benchmark workloads: inputs from a seed, the operations, and
an oracle for every operation.

A workload is built in two steps.  `build(seed, tiny)` turns the seed into
the inputs the package receives (matrices, regions, weights); this is the
set-up that `setup_s` times, together with `import lambdadet`.  `ops(inputs)`
returns the operations of one batch, in order.  Each `Op` carries its own
oracle, which the harness runs untimed after every call.

An oracle returns a list of failure messages, one entry per failed unit.
Most operations are one unit; `run_all` is fourteen, one per check.

`tiny=True` swaps in small sizes with their own oracle values, so the
harness self-check runs in seconds.  The timed workloads always use the
full sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

import lambdadet
from lambdadet.asm import mask_cells
from lambdadet.laurent import LaurentPoly
from lambdadet.matrices import PolyMatrix
from lambdadet.tilings import region_edges

import limits


@dataclass(frozen=True)
class Op:
    """One call into the package and the oracle for its result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    units: int = 1
    # The traced run records which condensation layer each arithmetic
    # call served for this op's symbolic pyramid.
    capture_layers: bool = False


# -- oracles ----------------------------------------------------------------

# Even diamond order -> (det terms, limit terms, limit at l=1).  Orders 5
# and 6 are the timed sizes; 2 and 3 serve the self-check.
DIAMOND = {
    2: (14, 5, 36),
    3: (64, 10, 6728),
    5: (434, 26, 258584046368),
    6: (851, 37, 53060477521960000),
}

# Size of the masked sum over the odd diamond of order (size - 1) / 2 ->
# its minimum over all ASMs.  Size 7 is the recorded negative result of
# check 11.
MIN_REGION_SUM = {5: 1, 7: -1}

# Tiling counts of the n-by-n square.
SQUARE = {6: 6728, 14: 112202208776036178000000}

# Check 11 of `reproduce` fails by design, with exactly this finding.
CHECK_11_FINDING = "size-7 diamond sum reaches -1 on 112 matrices"


def _fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Ordinary determinant by Gaussian elimination over Q."""
    a = [list(row) for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def _coefficients(matrix) -> list[list[Fraction]]:
    """Entries at t = 1: each entry is one monomial c * t^e, so this is c."""
    out = []
    for row in matrix.rows:
        line = []
        for cell in row:
            ((l_exp, _t_exp, coeff),) = tuple(cell.terms())
            if l_exp:
                raise ValueError("entry %s carries a power of l" % cell)
            line.append(Fraction(coeff))
        out.append(line)
    return out


def _expect(label: str, got, want) -> list[str]:
    return [] if got == want else ["%s: got %s, expected %s" % (label, got, want)]


def _check_diamond(order: int) -> Callable[[object], list[str]]:
    def check(result) -> list[str]:
        got = (result.det.term_count, result.limit.term_count, result.limit.eval_at(1))
        return _expect("order-%d diamond (terms, limit terms, value)" % order,
                       got, DIAMOND[order])

    return check


def _check_det_at_minus_one(matrix) -> Callable[[object], list[str]]:
    expected = _fraction_det(_coefficients(matrix))

    def check(result) -> list[str]:
        return _expect("value at (l=-1, t=1)", Fraction(result.eval_at(-1, 1)), expected)

    return check


def _check_equals_condensation(matrix) -> Callable[[object], list[str]]:
    def check(result) -> list[str]:
        expected = lambdadet.lambda_det(matrix)
        if result == expected:
            return []
        return ["lambda_det_sum differs from lambda_det (%d vs %d terms)"
                % (result.term_count, expected.term_count)]

    return check


def _check_min_region(size: int, cells) -> Callable[[object], list[str]]:
    def check(result) -> list[str]:
        value, witness = result
        failures = _expect("minimum masked sum at size %d" % size,
                           value, MIN_REGION_SUM[size])
        if not lambdadet.is_asm(witness):
            failures.append("witness is not an alternating-sign matrix")
        elif sum(witness[i - 1][j - 1] for (i, j) in cells) != value:
            failures.append("witness does not attain the reported minimum")
        return failures

    return check


def _check_kuo(result) -> list[str]:
    if result.lhs == 0:
        return ["Kuo identity: weighted matching sum is 0"]
    return [] if result.holds else ["Kuo identity: %s != %s" % (result.lhs, result.rhs)]


def _check_reproduce(numbers: tuple[int, ...]) -> Callable[[object], list[str]]:
    def check(results) -> list[str]:
        failures = []
        seen = [r.number for r in results]
        if seen != list(numbers):
            return ["ran checks %s, expected %s" % (seen, list(numbers))] * len(numbers)
        for r in results:
            if r.number == 11:
                ok = not r.passed and CHECK_11_FINDING in r.detail
            else:
                ok = r.passed
            if not ok:
                failures.append("check %d %s: %s"
                                % (r.number, "PASS" if r.passed else "FAIL", r.detail))
        return failures

    return check


# -- workloads --------------------------------------------------------------

# The t-exponents of a monomial matrix fix the size of its pyramid, and with
# it the cost.  Over draws 1-12 of random_monomial_matrix(7, Random(draw))
# the full pyramid held 2553-3561 terms and took 1.1-2.5 s, so a seeded
# draw would make the cost depend on the seed.  The exponents therefore
# come from one fixed draw, whose pyramid (2968 terms, 434 at the top) is
# the median of those twelve, and the seed draws the coefficients.  Over
# coefficient seeds the pyramid keeps exactly 2968 terms.
EXPONENT_DRAW = 8


def seeded_monomial_matrix(n: int, rng: Random) -> PolyMatrix:
    """n-by-n matrix of c * t^e: e from the fixed draw, c in 1..5 from rng."""
    pattern = lambdadet.random_monomial_matrix(n, Random(EXPONENT_DRAW))
    return PolyMatrix(tuple(
        tuple(LaurentPoly.monomial(rng.randint(1, 5), 0, cell.as_monomial()[2]) for cell in row)
        for row in pattern.rows
    ))


def build_diamond_limit(seed: int, tiny: bool) -> dict:
    small, large, rand = (2, 3, 4) if tiny else (5, 6, 7)
    return {
        "orders": (small, large),
        "small": lambdadet.diamond_even(small),
        "large": lambdadet.diamond_even(large),
        "random": seeded_monomial_matrix(rand, Random(seed)),
    }


def ops_diamond_limit(inputs: dict) -> list[Op]:
    small, large = inputs["orders"]
    rand = inputs["random"]
    return [
        Op("perturbed_det_d%d" % small,
           lambda: lambdadet.perturbed_det(inputs["small"]), _check_diamond(small)),
        Op("perturbed_det_d%d" % large,
           lambda: lambdadet.perturbed_det(inputs["large"]), _check_diamond(large),
           capture_layers=True),
        Op("lambda_det_random%d" % rand.size,
           lambda: lambdadet.lambda_det(rand), _check_det_at_minus_one(rand)),
    ]


def build_asm_expansion(seed: int, tiny: bool) -> dict:
    size, region_size = (4, 5) if tiny else (6, 7)
    rng = Random(seed)
    return {
        "matrices": (lambdadet.random_monomial_matrix(size, rng),
                     lambdadet.random_monomial_matrix(size, rng)),
        "region_size": region_size,
        "cells": mask_cells(lambdadet.diamond_odd((region_size - 1) // 2)),
    }


def ops_asm_expansion(inputs: dict) -> list[Op]:
    size = inputs["region_size"]
    cells = inputs["cells"]
    ops = [
        Op("lambda_det_sum_%d" % k, (lambda m=m: lambdadet.lambda_det_sum(m)),
           _check_equals_condensation(m))
        for k, m in enumerate(inputs["matrices"], 1)
    ]
    ops.append(Op("min_region_sum_%d" % size,
                  lambda: lambdadet.min_region_sum(size, cells),
                  _check_min_region(size, cells)))
    ops.append(Op("count_asms_%d" % size, lambda: lambdadet.count_asms(size),
                  lambda got: _expect("ASM count", got, lambdadet.asm_count_formula(size))))
    return ops


def build_tiling_sweep(seed: int, tiny: bool) -> dict:
    aztec, square, kuo = (3, 6, 3) if tiny else (10, 14, 8)
    rng = Random(seed)
    # Nonzero weights keep the number of live sweep states, and so the
    # cost, independent of the seed; zero weights prune states.
    weights = {
        edge: Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for edge in region_edges(lambdadet.aztec_region(kuo))
    }
    return {
        "aztec_order": aztec,
        "aztec": lambdadet.aztec_region(aztec),
        "square_side": square,
        "square": lambdadet.square_region(square),
        "kuo_order": kuo,
        "weights": weights,
    }


def ops_tiling_sweep(inputs: dict) -> list[Op]:
    n = inputs["aztec_order"]
    side = inputs["square_side"]
    kuo = inputs["kuo_order"]
    return [
        Op("count_tilings_aztec%d" % n, lambda: lambdadet.count_tilings(inputs["aztec"]),
           lambda got: _expect("Aztec order-%d count" % n, got, 2 ** (n * (n + 1) // 2))),
        Op("count_tilings_square%d" % side,
           lambda: lambdadet.count_tilings(inputs["square"]),
           lambda got: _expect("%d-square count" % side, got, SQUARE[side])),
        Op("kuo_identity_check_%d" % kuo,
           lambda: lambdadet.kuo_identity_check(kuo, inputs["weights"]), _check_kuo),
    ]


def build_reproduce(seed: int, tiny: bool) -> dict:
    # The check selection for tiny runs skips the four slow checks.
    numbers = (1, 2, 3, 9, 10, 12, 14) if tiny else tuple(range(1, 15))
    return {"session_seed": Random(seed).randrange(1 << 32), "numbers": numbers}


def ops_reproduce(inputs: dict) -> list[Op]:
    numbers = inputs["numbers"]

    def run():
        session = lambdadet.ReproductionSession(inputs["session_seed"])
        # Each check gets the full per-op time limit of its own.
        return lambdadet.run_all(session, numbers=numbers, writer=lambda _line: limits.rearm())

    return [Op("run_all", run, _check_reproduce(numbers), units=len(numbers))]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], dict]
    ops: Callable[[dict], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("diamond_limit", build_diamond_limit, ops_diamond_limit),
        Workload("asm_expansion", build_asm_expansion, ops_asm_expansion),
        Workload("tiling_sweep", build_tiling_sweep, ops_tiling_sweep),
        Workload("reproduce", build_reproduce, ops_reproduce),
    )
}
