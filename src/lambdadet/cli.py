"""Command line interface.

One subcommand per capability: exact determinants (det, det-numeric,
eq2), the condensation trace, matrix and region generators (diamond,
tile, tfk), alternating-sign matrix utilities (asm), the graphical
condensation identity (kuo-check), and the headline-number runner
(reproduce).  Exit status 0 on success, 1 on any domain error (printed
as "error: ClassName: message" on stderr), 2 on usage errors (argparse).

Matrices are passed as JSON {"size": n, "entries": [[...]]} with integer
or polynomial-text entries, or generated via --size-from with one of
ones:N, diamond:even:N, diamond:odd:N, mc:C.  Regions are JSON lists of
[row, column] pairs, 1-based.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from .asm import (
    asm_stats,
    complement_cells,
    count_asms,
    enumerate_asms,
    lambda_det_sum,
    mask_cells,
    min_region_sum,
    sketch,
)
from .condensation import numeric_pyramid, perturbed_det
from .errors import LambdaDetError, SizeMismatch
from .laurent import parse_rational
from .matrices import (
    PolyMatrix,
    center_perturbed,
    diamond_even,
    diamond_odd,
    ones_matrix,
)
from .reproduce import DEFAULT_SEED, ReproductionSession, run_all
from .tilings import (
    aztec_region,
    count_tilings,
    edge_key,
    kuo_identity_check,
    matching_sum,
    random_edge_weights,
    rectangle_region,
    region_from_cells,
    square_region,
    tfk_count,
)


def _matrix_from_spec(spec: str) -> PolyMatrix:
    parts = spec.split(":")
    try:
        if parts[0] == "ones" and len(parts) == 2:
            return ones_matrix(int(parts[1]))
        if parts[0] == "diamond" and len(parts) == 3:
            order = int(parts[2])
            if parts[1] == "even":
                return diamond_even(order)
            if parts[1] == "odd":
                return diamond_odd(order)
        if parts[0] == "mc" and len(parts) == 2:
            return center_perturbed(parse_rational(parts[1]))
    except ValueError as exc:
        raise SizeMismatch("bad matrix spec %r: %s" % (spec, exc))
    raise SizeMismatch(
        "unknown matrix spec %r (use ones:N, diamond:even:N, diamond:odd:N, mc:C)"
        % spec
    )


def _load_matrix(args) -> PolyMatrix:
    sources = [s for s in (args.matrix, args.matrix_file, args.size_from) if s]
    if len(sources) != 1:
        raise SizeMismatch(
            "provide exactly one of --matrix, --matrix-file, --size-from"
        )
    if args.size_from:
        return _matrix_from_spec(args.size_from)
    text = args.matrix if args.matrix else Path(args.matrix_file).read_text()
    try:
        return PolyMatrix.from_json(text)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise SizeMismatch("could not read matrix JSON: %s" % exc)


def _add_matrix_arguments(sub) -> None:
    sub.add_argument("--matrix", help="matrix as a JSON string")
    sub.add_argument("--matrix-file", help="path to a matrix JSON file")
    sub.add_argument(
        "--size-from",
        help="generate the matrix: ones:N, diamond:even:N, diamond:odd:N, or mc:C",
    )


def _parse_region(text: str):
    try:
        cells = json.loads(text)
        return region_from_cells(cells)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise SizeMismatch("could not read region JSON: %s" % exc)


def _region_from_shape(spec: str):
    parts = spec.split(":")
    try:
        if parts[0] == "square" and len(parts) == 2:
            return square_region(int(parts[1]))
        if parts[0] == "aztec" and len(parts) == 2:
            return aztec_region(int(parts[1]))
        if parts[0] == "rect" and len(parts) == 3:
            return rectangle_region(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise SizeMismatch("bad shape spec %r: %s" % (spec, exc))
    raise SizeMismatch(
        "unknown shape spec %r (use square:N, aztec:N, rect:H:W)" % spec
    )


def _print_poly(label: str, poly) -> None:
    count = poly.term_count
    print("%s (%d term%s): %s" % (label, count, "" if count == 1 else "s", poly.to_text()))


def cmd_det(args) -> int:
    matrix = _load_matrix(args)
    result = perturbed_det(matrix)
    print("size: %d" % matrix.size)
    print("zeros perturbed to t: %s" % ("yes" if result.was_perturbed else "no"))
    _print_poly("determinant", result.det)
    _print_poly("limit t->0", result.limit)
    if args.eval is not None:
        value = result.limit.eval_at(parse_rational(args.eval))
        print("limit value at l=%s: %s" % (args.eval, value))
    return 0


def cmd_det_numeric(args) -> int:
    matrix = _load_matrix(args)
    lam = parse_rational(args.lam)
    print(numeric_pyramid(matrix, lam).top)
    return 0


def cmd_trace(args) -> int:
    matrix = _load_matrix(args)
    lam = parse_rational(args.lam)
    pyramid = numeric_pyramid(matrix, lam)
    for k in range(1, pyramid.size + 1):
        print("layer %d:" % k)
        for row in pyramid.layer(k):
            print("  " + " ".join(str(v) for v in row))
    return 0


def cmd_eq2(args) -> int:
    matrix = _load_matrix(args)
    work = matrix.perturb_zeros() if args.perturb else matrix
    det = lambda_det_sum(work, cap=args.cap)
    _print_poly("determinant", det)
    _print_poly("limit t->0", det.limit_t0())
    if args.eval is not None:
        value = det.limit_t0().eval_at(parse_rational(args.eval))
        print("limit value at l=%s: %s" % (args.eval, value))
    return 0


def cmd_diamond(args) -> int:
    matrix = diamond_even(args.order) if args.parity == "even" else diamond_odd(args.order)
    if args.format == "json":
        print(matrix.to_json())
    else:
        for row in matrix.rows:
            print(" ".join("1" if not cell.is_zero() else "0" for cell in row))
    return 0


def _asm_pattern(args) -> frozenset:
    if args.cells:
        return frozenset((r, c) for (r, c) in _parse_region(args.cells))
    if args.size % 2 == 0:
        pattern = diamond_even(args.size // 2)
    else:
        pattern = diamond_odd((args.size - 1) // 2)
    return complement_cells(pattern) if args.complement else mask_cells(pattern)


def cmd_asm(args) -> int:
    if args.action == "count":
        print(count_asms(args.size, cap=args.cap))
        return 0
    if args.action == "enumerate":
        total = 0
        for asm in enumerate_asms(args.size, cap=args.cap):
            total += 1
            print(sketch(asm))
        print("total: %d" % total)
        return 0
    if args.action == "stats":
        total = 0
        for asm in enumerate_asms(args.size, cap=args.cap):
            total += 1
            stats = asm_stats(asm)
            print(
                "%s  inversions=%d negatives=%d exponent=%d"
                % (sketch(asm), stats.inversions, stats.negatives, stats.plus_exponent)
            )
        print("total: %d" % total)
        return 0
    # region-sum
    cells = _asm_pattern(args)
    value, minimizer = min_region_sum(args.size, cells, cap=args.cap)
    print("cells: %d" % len(cells))
    print("minimum sum over all size-%d matrices: %d" % (args.size, value))
    print("minimizer: %s" % sketch(minimizer))
    return 0


def cmd_tile(args) -> int:
    if args.shape:
        cells = _region_from_shape(args.shape)
    elif args.cells:
        cells = _parse_region(args.cells)
    else:
        raise SizeMismatch("provide --shape or --cells")
    if args.weights:
        try:
            triples = json.loads(args.weights)
            weights = {
                edge_key((int(a), int(b)), (int(c), int(d))): parse_rational(w)
                for (a, b), (c, d), w in triples
            }
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise SizeMismatch("could not read weights JSON: %s" % exc)
        print("cells: %d" % len(cells))
        print("weighted matching sum: %s" % matching_sum(cells, weights))
    else:
        print("cells: %d" % len(cells))
        print("tilings: %d" % count_tilings(cells))
    return 0


def cmd_tfk(args) -> int:
    approx = tfk_count(args.n)
    exact = count_tilings(square_region(2 * args.n))
    rel = abs(approx - exact) / exact if exact else 0.0
    print("product formula: %.6f" % approx)
    print("exact count:     %d" % exact)
    print("relative error:  %.3e" % rel)
    return 0


def cmd_kuo_check(args) -> int:
    rng = Random(args.seed)
    failed = 0
    for order in range(args.min_order, args.order + 1):
        plain = kuo_identity_check(order)
        outcomes = ["all-ones %s" % ("OK" if plain.holds else "FAIL")]
        if not plain.holds:
            failed += 1
        good = 0
        for _ in range(args.trials):
            check = kuo_identity_check(order, random_edge_weights(order, rng))
            if check.holds:
                good += 1
            else:
                failed += 1
        if args.trials:
            outcomes.append("random %d/%d OK" % (good, args.trials))
        print("order %d: %s" % (order, ", ".join(outcomes)))
    if failed:
        print("FAILED: %d identity violations" % failed, file=sys.stderr)
        return 1
    return 0


def cmd_reproduce(args) -> int:
    numbers = None
    if args.checks:
        try:
            numbers = [int(x) for x in args.checks.split(",") if x.strip()]
        except ValueError:
            raise SizeMismatch("--checks wants a comma-separated list of numbers")
    session = ReproductionSession(seed=args.seed)
    results = run_all(session=session, numbers=numbers, writer=print)
    passed = sum(1 for r in results if r.passed)
    print("%d/%d checks passed (%.1fs total)" % (
        passed, len(results), sum(r.seconds for r in results)))
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdadet",
        description="Exact lambda-determinants, alternating-sign-matrix "
        "expansions, and domino-tiling cross-checks.",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for randomized checks"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    det = commands.add_parser(
        "det", help="symbolic determinant with t-perturbation and t->0 limit"
    )
    _add_matrix_arguments(det)
    det.add_argument("--eval", help="also evaluate the limit at this rational l")
    det.set_defaults(func=cmd_det)

    num = commands.add_parser(
        "det-numeric", help="rational-arithmetic determinant at a fixed l"
    )
    _add_matrix_arguments(num)
    num.add_argument("--lam", default="1", help="value of l (default 1)")
    num.set_defaults(func=cmd_det_numeric)

    trace = commands.add_parser(
        "trace", help="print every condensation layer at a fixed l"
    )
    _add_matrix_arguments(trace)
    trace.add_argument("--lam", default="1", help="value of l (default 1)")
    trace.set_defaults(func=cmd_trace)

    eq2 = commands.add_parser(
        "eq2", help="determinant via the sum over alternating-sign matrices"
    )
    _add_matrix_arguments(eq2)
    eq2.add_argument("--eval", help="also evaluate the limit at this rational l")
    eq2.add_argument("--perturb", action="store_true", help="replace zeros by t first")
    eq2.add_argument("--cap", type=int, default=None, help="enumeration size cap")
    eq2.set_defaults(func=cmd_eq2)

    diamond = commands.add_parser("diamond", help="print a diamond 0/1 matrix")
    diamond.add_argument("parity", choices=("even", "odd"))
    diamond.add_argument("order", type=int)
    diamond.add_argument("--format", choices=("grid", "json"), default="grid")
    diamond.set_defaults(func=cmd_diamond)

    asm = commands.add_parser("asm", help="alternating-sign matrix utilities")
    asm.add_argument(
        "action", choices=("count", "enumerate", "stats", "region-sum")
    )
    asm.add_argument("--size", type=int, required=True)
    asm.add_argument("--cap", type=int, default=None, help="enumeration size cap")
    asm.add_argument(
        "--cells", help="region-sum: explicit cell list as JSON [[r,c],...]"
    )
    asm.add_argument(
        "--complement",
        action="store_true",
        help="region-sum: use the complement of the diamond pattern",
    )
    asm.set_defaults(func=cmd_asm)

    tile = commands.add_parser("tile", help="count tilings or weighted matchings")
    tile.add_argument("--shape", help="square:N, aztec:N, or rect:H:W")
    tile.add_argument("--cells", help="region as JSON [[r,c],...]")
    tile.add_argument(
        "--weights",
        help='edge weights as JSON [[[r1,c1],[r2,c2],"w"], ...]; missing edges weigh 1',
    )
    tile.set_defaults(func=cmd_tile)

    tfk = commands.add_parser(
        "tfk", help="trigonometric product formula for 2n-by-2n square tilings"
    )
    tfk.add_argument("n", type=int)
    tfk.set_defaults(func=cmd_tfk)

    kuo = commands.add_parser(
        "kuo-check", help="verify the graphical condensation identity"
    )
    kuo.add_argument("--order", type=int, default=4, help="largest order to test")
    kuo.add_argument("--min-order", type=int, default=2)
    kuo.add_argument("--trials", type=int, default=20, help="random weightings per order")
    kuo.set_defaults(func=cmd_kuo_check)

    rep = commands.add_parser("reproduce", help="run every headline-number check")
    rep.add_argument("--checks", help="comma-separated check numbers (default all)")
    rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LambdaDetError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: ValueError: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
