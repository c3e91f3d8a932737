"""Every headline number in one place, each as a small pass/fail check.

The checks cross-validate the determinant engines against each other and
against the tiling oracles: the closed form for all-ones matrices, the
8-by-8 diamond term counts, the window-by-window pyramid versus trimmed
Aztec regions, the square-count agreements (including the trigonometric
product formula), term-count identities, the perturbed center family,
polynomiality of perturbed pyramids, a scan of masked partial sums over
all alternating-sign matrices of sizes 2..7, and the graphical
condensation identity under random weights.  run_all executes them in
order and reports one line per check.  Check 11, the masked-sum scan,
records a negative result: the diamond-masked sum first goes negative at
odd size 7 (minimum -1), so it reports FAIL.  The test suite asserts
that finding for check 11 and a pass for each of the others.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable

from .asm import (
    complement_cells,
    expanded_term_count,
    lambda_det_sum,
    mask_cells,
    min_region_sum,
    region_sum_counts,
    sketch,
)
from .condensation import (
    Pyramid,
    lambda_det,
    numeric_pyramid,
    symbolic_pyramid,
)
from .errors import IndeterminateForm
from .laurent import ONE_PLUS_LAM, LaurentPoly
from .matrices import (
    PolyMatrix,
    center_perturbed,
    diamond_even,
    diamond_odd,
    ones_matrix,
    random_monomial_matrix,
)
from .tilings import (
    aztec_count_formula,
    aztec_region,
    count_tilings,
    diamond_window_region,
    kuo_identity_check,
    random_edge_weights,
    square_region,
    tfk_count,
)

DEFAULT_SEED = 20040516

SQUARE_COUNTS = {1: 2, 2: 36, 3: 6728, 4: 12988816}


class ReproductionSession:
    """Caches the expensive symbolic pyramids shared between checks."""

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = seed
        self._even_pyramids: dict[int, Pyramid] = {}

    def even_pyramid(self, n: int) -> Pyramid:
        """Symbolic pyramid of the t-perturbed order-n even diamond."""
        if n not in self._even_pyramids:
            perturbed = diamond_even(n).perturb_zeros()
            self._even_pyramids[n] = symbolic_pyramid(perturbed)
        return self._even_pyramids[n]

    def even_det(self, n: int) -> LaurentPoly:
        return self.even_pyramid(n).top

    def rng(self) -> Random:
        return Random(self.seed)


def check_all_ones(session: ReproductionSession) -> tuple[bool, str]:
    for n in range(2, 7):
        if lambda_det(ones_matrix(n)) != ONE_PLUS_LAM ** (n * (n - 1) // 2):
            return False, "mismatch at n=%d" % n
    return True, "(1+l)^(n(n-1)/2) reproduced exactly for n=2..6"


def check_diamond_8x8(session: ReproductionSession) -> tuple[bool, str]:
    det = session.even_det(4)
    limit = det.limit_t0()
    value = limit.eval_at(1)
    facts = (det.term_count, limit.term_count, value)
    if facts != (191, 17, 12988816):
        return False, "got terms=%d, limit terms=%d, value=%s" % facts
    return True, "191 terms, 17 after the limit, 12988816 at l=1"


def check_pyramid_trace(session: ReproductionSession) -> tuple[bool, str]:
    pyramid = numeric_pyramid(diamond_even(2), 1)
    expected = {
        2: ((1, 2, 1), (2, 2, 2), (1, 2, 1)),
        3: ((6, 6), (6, 6)),
        4: ((36,),),
    }
    for k, layer in expected.items():
        if pyramid.layer(k) != layer:
            return False, "layer %d is %r" % (k, pyramid.layer(k))
    return True, "layers [[1,2,1],[2,2,2],[1,2,1]], [[6,6],[6,6]], [[36]]"


def check_trimmed_regions(session: ReproductionSession) -> tuple[bool, str]:
    corner = square_region(4) - {(1, 1), (1, 2), (2, 1)} - {(1, 3), (1, 4), (2, 4)}
    if count_tilings(corner) != 6:
        return False, "corner-trimmed square counts %d" % count_tilings(corner)
    pyramid = numeric_pyramid(diamond_even(2), 1)
    if any(value != 6 for row in pyramid.layer(3) for value in row):
        return False, "3-by-3 window values of the 4-by-4 diamond are not all 6"
    checked = 0
    for big_n, size in ((2, 4), (3, 6)):
        pyramid = numeric_pyramid(diamond_even(big_n), 1)
        for k in range(1, size + 1):
            for i in range(1, size - k + 2):
                for j in range(1, size - k + 2):
                    region = diamond_window_region(big_n, k, i, j)
                    count = 0 if region is None else count_tilings(region)
                    if count != pyramid.value(k, i, j):
                        return False, "window (k=%d, i=%d, j=%d) of order %d: " "pyramid %s vs region %s" % (
                            k, i, j, big_n, pyramid.value(k, i, j), count,
                        )
                    checked += 1
    return True, "corner region counts 6; %d window regions match both pyramids" % checked


def check_square_agreement(session: ReproductionSession) -> tuple[bool, str]:
    for n in range(1, 7):
        oracle = count_tilings(square_region(2 * n))
        numeric = numeric_pyramid(diamond_even(n), 1).top
        via_limit = session.even_det(n).limit_t0().eval_at(1)
        if not (oracle == numeric == via_limit):
            return False, "n=%d: oracle %s, numeric %s, symbolic %s" % (
                n, oracle, numeric, via_limit,
            )
        if n in SQUARE_COUNTS and oracle != SQUARE_COUNTS[n]:
            return False, "n=%d count drifted to %s" % (n, oracle)
    return True, "count_tilings, numeric recurrence, and symbolic limit agree for n=1..6"


def check_tfk(session: ReproductionSession) -> tuple[bool, str]:
    worst = 0.0
    for n in range(1, 7):
        exact = count_tilings(square_region(2 * n))
        approx = tfk_count(n)
        if n <= 4 and round(approx) != exact:
            return False, "n=%d: rounded product %s vs exact %d" % (n, round(approx), exact)
        rel = abs(approx - exact) / exact
        worst = max(worst, rel)
        if rel >= 1e-9:
            return False, "n=%d relative error %.3e" % (n, rel)
    return True, "product formula matches; worst relative error %.2e" % worst


def check_aztec_counts(session: ReproductionSession) -> tuple[bool, str]:
    for n in range(1, 7):
        if count_tilings(aztec_region(n)) != aztec_count_formula(n):
            return False, "aztec order %d count mismatch" % n
    for m in range(1, 6):
        if expanded_term_count(m) != 2 ** (m * (m - 1) // 2):
            return False, "expanded term count mismatch at size %d" % m
    return True, "2^(n(n+1)/2) tilings for n<=6; 2^(m(m-1)/2) expanded terms for m<=5"


def check_engines_agree(session: ReproductionSession) -> tuple[bool, str]:
    for n in (1, 2, 3):
        matrix = diamond_even(n).perturb_zeros()
        if session.even_det(n) != lambda_det_sum(matrix):
            return False, "diamond of size %d disagrees" % (2 * n)
    rng = session.rng()
    for trial in range(100):
        size = rng.randint(3, 5)
        matrix = random_monomial_matrix(size, rng)
        if lambda_det(matrix) != lambda_det_sum(matrix):
            return False, "random matrix trial %d (size %d) disagrees" % (trial, size)
    return True, "recurrence equals summation on diamonds <= 6 and 100 random matrices"


def check_center_family(session: ReproductionSession) -> tuple[bool, str]:
    from fractions import Fraction

    for c in (1, 2, 3):
        got = lambda_det_sum(center_perturbed(c))
        inv = Fraction(1, c)
        expected = LaurentPoly(
            [
                (c, 1, 0), (c, 2, 0),
                (2, 1, 3), (2, 2, 3),
                (inv, 0, 6), (inv, 3, 6),
            ]
        )
        if got != expected:
            return False, "c=%d full polynomial mismatch: %s" % (c, got)
        limit = got.limit_t0()
        if limit != LaurentPoly([(c, 1, 0), (c, 2, 0)]):
            return False, "c=%d limit mismatch: %s" % (c, limit)
    return True, "c(l+l^2) + 2(l+l^2)t^3 + ((1+l^3)/c)t^6 and its limit, c=1..3"


def check_polynomiality(session: ReproductionSession) -> tuple[bool, str]:
    values = 0
    for n in range(1, 5):
        pyramid = session.even_pyramid(n)
        for layer in pyramid.layers:
            for row in layer:
                for value in row:
                    if value.min_t_exp() < 0:
                        return False, "negative t-power in order-%d pyramid" % n
                    values += 1
    return True, "all %d perturbed pyramid values are polynomial in t" % values


def check_masked_sums(session: ReproductionSession) -> tuple[bool, str]:
    patterns = {
        2: diamond_even(1), 4: diamond_even(2), 6: diamond_even(3),
        3: diamond_odd(1), 5: diamond_odd(2), 7: diamond_odd(3),
    }
    scanned = 0
    failures: list[str] = []
    for size in sorted(patterns):
        pattern = patterns[size]
        mask = mask_cells(pattern)
        counts = region_sum_counts(size, mask)
        scanned += sum(counts.values())
        if min_region_sum(size, complement_cells(pattern))[0] < 0:
            failures.append("complement sum goes negative at size %d" % size)
        negatives = sum(count for value, count in counts.items() if value < 0)
        if negatives:
            value, witness = min_region_sum(size, mask)
            failures.append(
                "size-%d diamond sum reaches %d on %d matrices, e.g. %s"
                % (size, value, negatives, sketch(witness))
            )
    # A window restriction of a diamond pattern is itself a pattern for
    # matrices of the window's size, and keeps the non-negativity.
    local_patterns: dict[int, set[frozenset]] = {}
    for size in (2, 3, 4, 5):
        mask = mask_cells(patterns[size])
        for k in range(1, size + 1):
            for i0 in range(1, size - k + 2):
                for j0 in range(1, size - k + 2):
                    local = frozenset(
                        (a - i0 + 1, b - j0 + 1)
                        for (a, b) in mask
                        if i0 <= a < i0 + k and j0 <= b < j0 + k
                    )
                    local_patterns.setdefault(k, set()).add(local)
    window_count = sum(len(pats) for pats in local_patterns.values())
    for k, pats in sorted(local_patterns.items()):
        if any(min_region_sum(k, cells)[0] < 0 for cells in pats):
            failures.append("a %d-by-%d window pattern sums negative" % (k, k))
    if failures:
        return False, "; ".join(failures)
    return True, (
        "non-negative over %d matrices (sizes 2..7) and %d window patterns"
        % (scanned, window_count)
    )


def check_odd_diamonds(session: ReproductionSession) -> tuple[bool, str]:
    for n in range(1, 5):
        top = numeric_pyramid(diamond_odd(n), 1).top
        squares = count_tilings(square_region(2 * n))
        if top != squares:
            return False, "odd order %d gives %s, square has %s" % (n, top, squares)
    return True, "odd diamond determinants count 2n-by-2n square tilings, n=1..4"


def check_kuo(session: ReproductionSession) -> tuple[bool, str]:
    rng = session.rng()
    for order in range(2, 6):
        if not kuo_identity_check(order).holds:
            return False, "identity fails unweighted at order %d" % order
        for trial in range(100):
            weights = random_edge_weights(order, rng)
            result = kuo_identity_check(order, weights)
            if not result.holds:
                return False, "order %d trial %d: %s != %s" % (
                    order, trial, result.lhs, result.rhs,
                )
    return True, "holds for all-ones and 100 random weightings per order 2..5"


def check_minus_one(session: ReproductionSession) -> tuple[bool, str]:
    symbolic = lambda_det(ones_matrix(4)).eval_at(-1)
    if symbolic != 0:
        return False, "symbolic value at l=-1 is %s" % symbolic
    try:
        numeric_pyramid(ones_matrix(4), -1)
    except IndeterminateForm:
        return True, "symbolic value 0 at l=-1; numeric engine stops on 0/0"
    return False, "numeric engine failed to flag the indeterminate step"


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        """The report line: ``check N/14 PASS|FAIL  name  seconds  detail``."""
        return "check %2d/%d %s  %-33s %6.2fs  %s" % (
            self.number,
            len(CHECKS),
            "PASS" if self.passed else "FAIL",
            self.name,
            self.seconds,
            self.detail,
        )


CHECKS: tuple[tuple[str, Callable[[ReproductionSession], tuple[bool, str]]], ...] = (
    ("all-ones closed form", check_all_ones),
    ("8x8 diamond pipeline", check_diamond_8x8),
    ("4x4 diamond pyramid trace", check_pyramid_trace),
    ("trimmed-region tiling counts", check_trimmed_regions),
    ("square-count triple agreement", check_square_agreement),
    ("trigonometric product formula", check_tfk),
    ("aztec and expanded term counts", check_aztec_counts),
    ("recurrence versus summation", check_engines_agree),
    ("perturbed center family", check_center_family),
    ("perturbed pyramid polynomiality", check_polynomiality),
    ("masked partial-sum non-negativity", check_masked_sums),
    ("odd diamonds count square tilings", check_odd_diamonds),
    ("graphical condensation identity", check_kuo),
    ("l = -1 engine split", check_minus_one),
)


def run_check(
    number: int, session: ReproductionSession | None = None
) -> CheckResult:
    """Run one check by its 1-based number."""
    if not 1 <= number <= len(CHECKS):
        raise ValueError("check number must be in 1..%d" % len(CHECKS))
    name, fn = CHECKS[number - 1]
    session = session or ReproductionSession()
    start = time.perf_counter()
    try:
        passed, detail = fn(session)
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, "%s: %s" % (type(exc).__name__, exc)
    return CheckResult(
        number=number,
        name=name,
        passed=passed,
        detail=detail,
        seconds=time.perf_counter() - start,
    )


def run_all(
    session: ReproductionSession | None = None,
    numbers: Iterable[int] | None = None,
    writer: Callable[[str], None] | None = None,
) -> list[CheckResult]:
    """Run the selected checks (all by default), reporting one line each."""
    session = session or ReproductionSession()
    results = []
    for number in numbers or range(1, len(CHECKS) + 1):
        result = run_check(number, session)
        results.append(result)
        if writer is not None:
            writer(result.line())
    return results
