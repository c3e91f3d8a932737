"""Command line interface.

One subcommand per capability: exact determinants (det and eq2, which
share one perturb-and-limit pipeline and differ only in the engine, and
det-numeric), the condensation trace, matrix and region generators (diamond,
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
from pathlib import Path
from random import Random

from .asm import (
    DEFAULT_CAP,
    asm_stats,
    complement_cells,
    count_asms,
    enumerate_asms,
    lambda_det_sum,
    mask_cells,
    min_region_sum,
    sketch,
)
from .condensation import lambda_det, numeric_pyramid, perturbed_det
from .errors import LambdaDetError, SizeMismatch
from .laurent import parse_rational
from .matrices import (
    PolyMatrix,
    center_perturbed,
    diamond_even,
    diamond_odd,
    diamond_pattern,
    ones_matrix,
)
from .reproduce import DEFAULT_SEED, ReproductionSession, run_all
from .tilings import (
    as_cell,
    aztec_region,
    count_tilings,
    edge_key,
    kuo_trials,
    matching_sum,
    rectangle_region,
    region_edges,
    region_from_cells,
    square_region,
    tfk_count,
)


# The most decimal digits of an int that main prints or parses.  10**5
# digits take about 0.15 s to print and 0.05 s to parse, 10**6 digits 16 s
# and 5.6 s (2-CPU host, CPython 3.11); the count of rect:2:400000, which
# takes 19 s to compute, has 83.6k.
MAX_INT_DIGITS = 10**5


def _size(text: str) -> int:
    size = int(text)
    if size < 0:
        raise ValueError("negative size %d" % size)
    return size


# Each key is a spec's name followed by one placeholder per argument, and
# its value the constructor followed by one parser per argument; the keys
# are also the usage text.
MATRIX_SPECS = {
    "ones:N": (ones_matrix, int),
    "diamond:even:N": (diamond_even, int),
    "diamond:odd:N": (diamond_odd, int),
    "mc:C": (center_perturbed, parse_rational),
}
SHAPE_SPECS = {
    "square:N": (square_region, _size),
    "aztec:N": (aztec_region, _size),
    "rect:H:W": (rectangle_region, _size, _size),
}


def _from_spec(spec: str, table: dict, kind: str):
    """What spec names in table: a matrix or a region."""
    parts = spec.split(":")
    for usage, (make, *parsers) in table.items():
        name = usage.split(":")[: -len(parsers)]
        if len(parts) == len(name) + len(parsers) and parts[: len(name)] == name:
            try:
                return make(*[parse(arg) for parse, arg in zip(parsers, parts[len(name):])])
            except ValueError as exc:
                raise SizeMismatch("bad %s spec %r: %s" % (kind, spec, exc))
    raise SizeMismatch("unknown %s spec %r (use %s)" % (kind, spec, ", ".join(table)))


def _read(what: str, text: str, parse):
    """parse(text), with malformed text, or a file that cannot be read,
    refused as a SizeMismatch."""
    try:
        return parse(text)
    # json.JSONDecodeError is a ValueError
    except (OSError, TypeError, ValueError) as exc:
        raise SizeMismatch("could not read %s: %s" % (what, exc))


def _load_matrix(args) -> PolyMatrix:
    sources = [s for s in (args.matrix, args.matrix_file, args.size_from) if s]
    if len(sources) != 1:
        raise SizeMismatch(
            "provide exactly one of --matrix, --matrix-file, --size-from"
        )
    if args.size_from:
        return _from_spec(args.size_from, MATRIX_SPECS, "matrix")
    if args.matrix:
        return _read("matrix JSON", args.matrix, PolyMatrix.from_json)
    return _read(
        "--matrix-file %s" % args.matrix_file,
        args.matrix_file,
        lambda path: PolyMatrix.from_json(Path(path).read_text()),
    )


def _add_matrix_arguments(sub) -> None:
    sub.add_argument("--matrix", help="matrix as a JSON string")
    sub.add_argument("--matrix-file", help="path to a matrix JSON file")
    sub.add_argument(
        "--size-from", help="generate the matrix: " + ", ".join(MATRIX_SPECS)
    )


def _parse_region(text: str):
    return _read("region JSON", text, lambda t: region_from_cells(json.loads(t)))


def _print_poly(label: str, poly) -> None:
    count = poly.term_count
    print("%s (%d term%s): %s" % (label, count, "" if count == 1 else "s", poly.to_text()))


def cmd_det(args) -> int:
    """det and eq2: the determinant by args.engine, its t->0 limit, and
    with --eval the limit's value."""
    matrix = _load_matrix(args)
    lam = None if args.eval is None else _read("--eval", args.eval, parse_rational)
    result = perturbed_det(matrix, args.engine)
    print("size: %d" % matrix.size)
    print("zeros perturbed to t: %s" % ("yes" if result.was_perturbed else "no"))
    _print_poly("determinant", result.det)
    _print_poly("limit t->0", result.limit)
    if lam is not None:
        print("limit value at l=%s: %s" % (args.eval, result.limit.eval_at(lam)))
    return 0


def cmd_det_numeric(args) -> int:
    matrix = _load_matrix(args)
    lam = _read("--lam", args.lam, parse_rational)
    print(numeric_pyramid(matrix, lam).top)
    return 0


def cmd_trace(args) -> int:
    matrix = _load_matrix(args)
    pyramid = numeric_pyramid(matrix, _read("--lam", args.lam, parse_rational))
    for k in range(1, pyramid.size + 1):
        print("layer %d:" % k)
        for row in pyramid.layer(k):
            print("  " + " ".join(str(v) for v in row))
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
    pattern = diamond_pattern(args.size)
    return complement_cells(pattern) if args.complement else mask_cells(pattern)


def cmd_asm(args) -> int:
    if args.action == "count":
        print(count_asms(args.size))
        return 0
    if args.action in ("enumerate", "stats"):
        total = 0
        for asm in enumerate_asms(args.size, cap=args.cap):
            total += 1
            line = sketch(asm)
            if args.action == "stats":
                stats = asm_stats(asm)
                line += "  inversions=%d negatives=%d exponent=%d" % (
                    stats.inversions, stats.negatives, stats.plus_exponent)
            print(line)
        print("total: %d" % total)
        return 0
    # region-sum
    cells = _asm_pattern(args)
    value, minimizer = min_region_sum(args.size, cells)
    print("cells: %d" % len(cells))
    print("minimum sum over all size-%d matrices: %d" % (args.size, value))
    print("minimizer: %s" % sketch(minimizer))
    return 0


def cmd_tile(args) -> int:
    if args.shape:
        cells = _from_spec(args.shape, SHAPE_SPECS, "shape")
    elif args.cells:
        cells = _parse_region(args.cells)
    else:
        raise SizeMismatch("provide --shape or --cells")
    if args.weights:
        pairs = _read("weights JSON", args.weights, lambda text: [
            (edge_key(as_cell(a), as_cell(b)), parse_rational(w))
            for a, b, w in json.loads(text)
        ])
        edges = set(region_edges(cells))
        weights = {}
        for edge, w in pairs:
            if edge not in edges:
                raise SizeMismatch(
                    "weight on %s-%s, which is not an edge of the region" % edge
                )
            if edge in weights:
                raise SizeMismatch("edge %s-%s is weighted twice" % edge)
            weights[edge] = w
        result = "weighted matching sum: %s" % matching_sum(cells, weights)
    else:
        result = "tilings: %d" % count_tilings(cells)
    print("cells: %d" % len(cells))
    print(result)
    return 0


def cmd_tfk(args) -> int:
    if args.n < 0:
        raise SizeMismatch("tfk needs n >= 0, got %d" % args.n)
    exact = count_tilings(square_region(2 * args.n))
    product = tfk_count(args.n)
    print("product formula: %d" % product)
    print("exact count:     %d" % exact)
    return 0 if product == exact else 1


def cmd_kuo_check(args) -> int:
    if args.trials < 0 or args.order < args.min_order:
        raise SizeMismatch("kuo-check needs --trials >= 0 and --order >= --min-order")
    rng = Random(args.seed)
    failed = 0
    for order in range(args.min_order, args.order + 1):
        plain, *weighted = kuo_trials(order, args.trials, rng)
        good = sum(check.holds for check in weighted)
        failed += sum(not check.holds for check in (plain, *weighted))
        outcomes = ["all-ones %s" % ("OK" if plain.holds else "FAIL")]
        if args.trials:
            nonzero = sum(check.nonzero for check in weighted)
            sides = "%d with a nonzero side" % nonzero if nonzero else "every trial was 0 = 0"
            outcomes.append("random %d/%d OK (%s)" % (good, args.trials, sides))
        print("order %d: %s" % (order, ", ".join(outcomes)))
    if failed:
        print("FAILED: %d identity violations" % failed, file=sys.stderr)
        return 1
    return 0


def cmd_reproduce(args) -> int:
    numbers = None
    if args.checks is not None:
        try:
            numbers = [int(x) for x in args.checks.split(",") if x.strip()]
        except ValueError:
            raise SizeMismatch("--checks wants a comma-separated list of numbers")
        if not numbers:
            raise SizeMismatch("--checks names no check")
    session = ReproductionSession(seed=args.seed)
    results = run_all(session=session, numbers=numbers, writer=print)
    passed = sum(1 for r in results if r.passed)
    print("%d/%d checks passed (%.1fs total)" % (
        passed, len(results), sum(r.seconds for r in results)))
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdadet",
        fromfile_prefix_chars="@",
        description="Exact lambda-determinants, alternating-sign-matrix "
        "expansions, and domino-tiling cross-checks.  @FILE stands for the "
        "arguments in FILE, one a line.",
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
    det.set_defaults(func=cmd_det, engine=lambda_det)

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
        "eq2", help="det's pipeline with the sum over alternating-sign matrices"
    )
    _add_matrix_arguments(eq2)
    eq2.add_argument("--eval", help="also evaluate the limit at this rational l")
    eq2.set_defaults(func=cmd_det, engine=lambda_det_sum)

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
    asm.add_argument(
        "--cap", type=int, default=DEFAULT_CAP,
        help="enumerate, stats: enumeration size cap",
    )
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
    tile.add_argument("--shape", help=", ".join(SHAPE_SPECS))
    tile.add_argument("--cells", help="region as JSON [[r,c],...]")
    tile.add_argument(
        "--weights",
        help='edge weights as JSON [[[r1,c1],[r2,c2],"w"], ...]; missing edges weigh 1',
    )
    tile.set_defaults(func=cmd_tile)

    tfk = commands.add_parser(
        "tfk", help="exact product formula for 2n-by-2n square tilings"
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
    argv = list(sys.argv[1:] if argv is None else argv)
    if hasattr(sys, "set_int_max_str_digits"):  # no limit before CPython 3.10.7
        sys.set_int_max_str_digits(MAX_INT_DIGITS)
    # argparse reads "-1,2" after --checks as an option, not as its value;
    # joined, it reaches the same range check as --checks=-1,2.
    for i, arg in enumerate(argv[:-1]):
        if arg == "--checks" and argv[i + 1][1:2].isdigit():
            argv[i : i + 2] = ["--checks=" + argv[i + 1]]
            break
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
