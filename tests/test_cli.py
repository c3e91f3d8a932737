"""End-to-end command line coverage through cli.main."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

from lambdadet import cli, reproduce, tilings
from lambdadet.cli import main
from lambdadet.errors import SizeMismatch
from lambdadet.reproduce import run_all, run_check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TWO_BY_TWO = json.dumps({"size": 2, "entries": [[2, 3], [5, 7]]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDet:
    def test_headline_diamond(self, capsys):
        code, out, _ = run(
            capsys, "det", "--size-from", "diamond:even:4", "--eval", "1"
        )
        assert code == 0
        assert "zeros perturbed to t: yes" in out
        assert "determinant (191 terms):" in out
        assert "limit t->0 (17 terms):" in out
        assert "limit value at l=1: 12988816" in out

    def test_inline_matrix(self, capsys):
        code, out, _ = run(capsys, "det", "--matrix", TWO_BY_TWO)
        assert code == 0
        assert "zeros perturbed to t: no" in out
        assert "determinant (2 terms): 14 + 15*l^1" in out

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(TWO_BY_TWO)
        code, out, _ = run(capsys, "det", "--matrix-file", str(path))
        assert code == 0
        assert "14 + 15*l^1" in out

    def test_exactly_one_source_required(self, capsys):
        code, _, err = run(capsys, "det")
        assert code == 1
        assert "error: SizeMismatch" in err
        code, _, err = run(
            capsys, "det", "--matrix", TWO_BY_TWO, "--size-from", "ones:2"
        )
        assert code == 1

    def test_bad_json_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "det", "--matrix", "{not json")
        assert code == 1
        assert "could not read matrix JSON" in err

    def test_bad_spec_lists_choices(self, capsys):
        code, _, err = run(capsys, "det", "--size-from", "pyramid:3")
        assert code == 1
        assert "ones:N" in err


class TestNumericAndTrace:
    def test_determinant_at_a_rational_point(self, capsys):
        code, out, _ = run(
            capsys, "det-numeric", "--matrix", TWO_BY_TWO, "--lam", "1/2"
        )
        assert code == 0
        assert out.strip() == "43/2"

    def test_indeterminate_form_without_convention(self, capsys):
        code, _, err = run(
            capsys, "det-numeric", "--size-from", "ones:4", "--lam", "-1"
        )
        assert code == 1
        assert "IndeterminateForm" in err

    def test_indeterminate_form_names_the_window_and_l(self, capsys):
        # The window's lambda-determinant is 1 + l: zero at l = -1 only.
        code, out, err = run(
            capsys, "det-numeric", "--size-from", "ones:4", "--lam", "-1"
        )
        assert code == 1
        assert out == ""
        assert "the 2-by-2 window at (2, 2) is zero for every t at l = -1" in err
        assert "identically zero" not in err

    def test_indeterminate_step_resolves_to_the_exact_limit(self, capsys):
        code, out, _ = run(
            capsys, "det-numeric", "--size-from", "diamond:even:4", "--lam", "-2"
        )
        assert code == 0
        assert out.strip() == "-1313216"

    def test_pole_names_the_window(self, capsys):
        matrix = json.dumps({"entries": [[1, 1, 1], [1, 0, 1], [1, 1, 2]]})
        code, out, err = run(capsys, "det-numeric", "--matrix", matrix, "--lam", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: PoleAtZero: the 3-by-3 window at (1, 1)")

    def test_pole_is_not_reported_as_a_later_zero_over_zero(self, capsys):
        matrix = json.dumps({"entries": [
            [0, 3, 1, 0, 1], [2, 3, 0, 1, 1], [0, 2, 1, 1, 0],
            [-1, 2, 2, 0, 0], [0, 1, -1, 0, 2],
        ]})
        code, out, err = run(capsys, "det-numeric", "--matrix", matrix, "--lam", "-2")
        assert code == 1
        assert out == ""
        assert err.strip() == (
            "error: PoleAtZero: the 3-by-3 window at (1, 2) keeps t^-1 at l = -2, "
            "so it has no t -> 0 limit"
        )

    @pytest.mark.parametrize("command", ["det", "eq2"])
    def test_symbolic_pole_names_the_matrix(self, command, capsys):
        matrix = json.dumps({"entries": [[1, 1, 1], [1, 0, 1], [1, 1, 2]]})
        code, out, err = run(capsys, command, "--matrix", matrix)
        assert code == 1
        assert out == ""
        assert err.strip() == (
            "error: PoleAtZero: the 3-by-3 window at (1, 1) keeps t^-1, "
            "so it has no t -> 0 limit"
        )

    def test_inexact_division_names_the_window_and_its_divisor(self, capsys):
        # The l-entries on the diagonal leave the ring: the top window's
        # quotient would need a negative power of l.
        matrix = json.dumps({"size": 4, "entries": [
            ["1*l^1", "1/2", 0, "1/2"], ["1/2", "1*l^1", -1, 2],
            [-1, -1, "1*l^1", -1], [2, "1/2", 2, 1],
        ]})
        code, out, err = run(capsys, "det", "--matrix", matrix)
        assert code == 1
        assert out == ""
        assert err.strip() == (
            "error: InexactDivision: computing the 4-by-4 window at (1, 1), the "
            "division by the 2-by-2 window at (2, 2) is inexact (its quotient "
            "needs l^-1, which Q[l][t, 1/t] cannot hold): nonzero remainder at "
            "t-slice 0 of 2"
        )
        code, out, err = run(capsys, "eq2", "--matrix", matrix)
        assert code == 1
        assert out == ""
        assert err.startswith("error: NonMonomialEntry: ")

    @pytest.mark.parametrize("command, option", [
        ("det", "--eval"), ("det-numeric", "--lam"), ("trace", "--lam"),
    ])
    def test_a_bad_value_of_l_names_its_option(self, capsys, command, option):
        code, out, err = run(capsys, command, "--size-from", "ones:2", option, "1/0")
        assert (code, out) == (1, "")
        assert err == (
            "error: SizeMismatch: could not read %s: zero denominator in '1/0'\n"
            % option
        )

    def test_numeric_rejects_polynomial_entries(self, capsys):
        code, _, err = run(capsys, "det-numeric", "--size-from", "mc:1")
        assert code == 1
        assert "SizeMismatch" in err

    def test_trace_prints_the_pyramid(self, capsys):
        code, out, _ = run(capsys, "trace", "--size-from", "diamond:even:2")
        assert code == 0
        lines = [line.strip() for line in out.splitlines()]
        assert "layer 1:" in lines and "layer 4:" in lines
        assert "0 1 1 0" in lines
        assert "1 2 1" in lines
        assert "6 6" in lines
        assert lines[-1] == "36"

    def test_trace_of_the_eight_by_eight_diamond(self, capsys):
        code, out, _ = run(capsys, "trace", "--size-from", "diamond:even:4")
        assert code == 0
        assert out.splitlines()[-1].strip() == "12988816"

    def test_strict_trace_fails_on_indeterminate_step(self, capsys):
        code, _, err = run(
            capsys, "trace", "--size-from", "ones:4", "--lam", "-1"
        )
        assert code == 1
        assert "IndeterminateForm" in err


class TestSummation:
    def test_center_family(self, capsys):
        code, out, _ = run(capsys, "eq2", "--size-from", "mc:2", "--eval", "1")
        assert code == 0
        assert "limit t->0 (2 terms): 2*l^1 + 2*l^2" in out
        assert "limit value at l=1: 4" in out

    def test_perturbed_diamond_agrees_with_det(self, capsys):
        code, out, _ = run(
            capsys,
            "eq2",
            "--size-from",
            "diamond:even:2",
            "--eval",
            "1",
        )
        assert code == 0
        assert "limit value at l=1: 36" in out

    def test_eq2_prints_what_det_prints(self, capsys):
        # One perturb-and-limit pipeline: only the engine differs.
        argv = ("--size-from", "diamond:even:4", "--eval", "1")
        det_code, det_out, _ = run(capsys, "det", *argv)
        eq2_code, eq2_out, _ = run(capsys, "eq2", *argv)
        assert det_code == eq2_code == 0
        assert eq2_out == det_out

    def test_enumeration_cap_guards_large_sizes(self, capsys):
        # eq2 folds over profiles and lists no ASM, so the enumeration cap
        # does not apply; the fold's transition-table limit refuses size 13.
        code, out, _ = run(
            capsys, "eq2", "--size-from", "diamond:even:4", "--eval", "1"
        )
        assert code == 0
        assert "limit value at l=1: 12988816" in out
        code, _, err = run(capsys, "eq2", "--size-from", "ones:13")
        assert code == 1
        assert "TableTooLarge" in err


class TestGenerators:
    def test_diamond_grid(self, capsys):
        code, out, _ = run(capsys, "diamond", "even", "2")
        assert code == 0
        assert out.splitlines() == ["0 1 1 0", "1 1 1 1", "1 1 1 1", "0 1 1 0"]

    def test_odd_diamond_grid(self, capsys):
        code, out, _ = run(capsys, "diamond", "odd", "1")
        assert code == 0
        assert out.splitlines() == ["0 1 0", "1 1 1", "0 1 0"]

    def test_diamond_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "diamond", "even", "3", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["size"] == 6
        assert parsed["entries"][0][0] == 0


class TestAsm:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "asm", "count", "--size", "4")
        assert code == 0
        assert out.strip() == "42"

    def test_count_respects_cap(self, capsys):
        # The cap bounds enumeration only; counting is a fold (see below).
        code, _, err = run(capsys, "asm", "enumerate", "--size", "8")
        assert code == 1
        assert "CapExceeded" in err

    def test_count_folds_past_the_enumeration_cap(self, capsys):
        code, out, _ = run(capsys, "asm", "count", "--size", "9")
        assert code == 0
        assert out.strip() == "911835460"
        code, _, err = run(capsys, "asm", "count", "--size", "13")
        assert code == 1
        assert "TableTooLarge" in err

    def test_enumerate_sketches(self, capsys):
        code, out, _ = run(capsys, "asm", "enumerate", "--size", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "total: 7"
        assert "+../.+./..+" in lines
        assert ".+./+-+/.+." in lines

    def test_stats_lists_exponents(self, capsys):
        code, out, _ = run(capsys, "asm", "stats", "--size", "3")
        assert code == 0
        assert ".+./+-+/.+.  inversions=2 negatives=1 exponent=1" in out.splitlines()

    def test_region_sum_default_mask(self, capsys):
        code, out, _ = run(capsys, "asm", "region-sum", "--size", "4")
        assert code == 0
        assert "cells: 12" in out
        assert "minimum sum over all size-4 matrices: 2" in out

    def test_region_sum_complement(self, capsys):
        code, out, _ = run(
            capsys, "asm", "region-sum", "--size", "4", "--complement"
        )
        assert code == 0
        assert "cells: 4" in out
        assert "minimum sum over all size-4 matrices: 0" in out

    def test_region_sum_explicit_cells(self, capsys):
        code, out, _ = run(
            capsys, "asm", "region-sum", "--size", "3", "--cells", "[[2, 2]]"
        )
        assert code == 0
        assert "minimum sum over all size-3 matrices: -1" in out
        assert "minimizer: .+./+-+/.+." in out

    def test_region_sum_refuses_cells_outside_the_matrix(self, capsys):
        code, _, err = run(
            capsys, "asm", "region-sum", "--size", "3", "--cells", "[[0, 2]]"
        )
        assert code == 1
        assert err == (
            "error: SizeMismatch: cell (0, 2) lies outside the 3-by-3 matrix\n"
        )


class TestTilingCommands:
    def test_square_count(self, capsys):
        code, out, _ = run(capsys, "tile", "--shape", "square:8")
        assert code == 0
        assert "tilings: 12988816" in out

    def test_strip_count(self, capsys):
        code, out, _ = run(capsys, "tile", "--shape", "rect:30:2")
        assert code == 0
        assert "tilings: 1346269" in out

    def test_wide_strip_is_swept_transposed(self, capsys):
        code, out, _ = run(capsys, "tile", "--shape", "rect:2:30")
        assert code == 0
        assert "tilings: 1346269" in out

    def test_aztec_diamond_is_swept_by_diagonals(self, capsys):
        code, out, _ = run(capsys, "tile", "--shape", "aztec:14")
        assert code == 0
        assert out.splitlines() == ["cells: 420", "tilings: %d" % 2**105]

    def test_far_apart_cells_are_counted_quickly(self, capsys):
        # Two cells 3000 rows apart: the sweep walks the region's cells, not
        # its 3000 x 3001 bounding box.
        start = time.perf_counter()
        code, out, _ = run(capsys, "tile", "--cells", "[[1,1],[3000,3001]]")
        assert time.perf_counter() - start < 2
        assert (code, out) == (0, "cells: 2\ntilings: 0\n")

    def test_regions_too_wide_to_sweep_are_counted(self, capsys):
        # Frontiers of 32, 25 and 25 cells: past the sweep, so counted by
        # the determinant.
        for shape, expected in (
            ("square:32", tilings._kasteleyn_sum(tilings.square_region(32))),
            ("aztec:24", 2**300),
            ("square:25", 0),
        ):
            code, out, _ = run(capsys, "tile", "--shape", shape)
            assert code == 0
            assert out.splitlines()[1] == "tilings: %d" % expected

    def test_square_past_the_cell_bound_is_refused(self, capsys):
        code, out, err = run(capsys, "tile", "--shape", "square:66")
        assert code == 1
        assert out == ""
        assert err == (
            "error: CellsExceeded: region has 4356 cells; "
            "the determinant handles at most %d\n" % tilings.MAX_DETERMINANT_CELLS
        )

    def test_explicit_cells(self, capsys):
        code, out, _ = run(
            capsys, "tile", "--cells", "[[1,1],[1,2],[2,1],[2,2]]"
        )
        assert code == 0
        assert "tilings: 2" in out

    def test_weighted_matching(self, capsys):
        weights = json.dumps([[[1, 1], [2, 1], "5/2"]])
        code, out, _ = run(
            capsys,
            "tile",
            "--shape",
            "square:2",
            "--weights",
            weights,
        )
        assert code == 0
        assert "weighted matching sum: 7/2" in out

    def test_weight_on_a_non_edge_is_refused(self, capsys):
        weights = json.dumps([[[1, 1], [2, 2], "5"]])
        code, out, err = run(
            capsys,
            "tile",
            "--cells",
            "[[1,1],[1,2],[2,1],[2,2]]",
            "--weights",
            weights,
        )
        assert code == 1
        assert out == ""
        assert "SizeMismatch" in err
        assert "(1, 1)-(2, 2)" in err

    def test_repeated_edge_weight_is_refused(self, capsys):
        weights = json.dumps([[[1, 1], [2, 1], "5"], [[2, 1], [1, 1], "7"]])
        code, out, err = run(
            capsys,
            "tile",
            "--cells",
            "[[1,1],[1,2],[2,1],[2,2]]",
            "--weights",
            weights,
        )
        assert code == 1
        assert out == ""
        assert "SizeMismatch" in err
        assert "(1, 1)-(2, 1)" in err

    def test_shape_or_cells_required(self, capsys):
        code, _, err = run(capsys, "tile")
        assert code == 1
        assert "provide --shape or --cells" in err

    def test_tfk_report(self, capsys):
        code, out, _ = run(capsys, "tfk", "2")
        assert code == 0
        assert out.splitlines() == ["product formula: 36", "exact count:     36"]

    def test_tfk_past_the_float_range_prints_the_exact_count(self, capsys):
        # The 52 x 52 square has about 10^342 tilings.
        code, out, _ = run(capsys, "tfk", "26")
        assert code == 0
        exact = tilings._kasteleyn_sum(tilings.square_region(52))
        assert out.splitlines() == [
            "product formula: %d" % exact,
            "exact count:     %d" % exact,
        ]


    def test_tfk_exits_1_when_the_product_and_the_count_differ(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "tfk_count", lambda n: 37)
        code, out, _ = run(capsys, "tfk", "2")
        assert code == 1
        assert out.splitlines() == ["product formula: 37", "exact count:     36"]

    def test_region_longer_than_an_argument_comes_from_a_file(self, tmp_path):
        # Past 128 KiB one argument is refused by the operating system
        # ("Argument list too long"); argparse reads @file, one argument a line.
        cells = [[r, c] for r in (1, 2) for c in range(1, 7001)]
        args = tmp_path / "args.txt"
        args.write_text("--cells\n%s\n" % json.dumps(cells))
        assert args.stat().st_size > 128 * 1024
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "lambdadet", "tile", "@%s" % args],
            capture_output=True, text=True, env=env, timeout=60, check=False,
        )
        assert (result.returncode, result.stderr) == (0, "")
        # The 2 x n strip has Fibonacci(n + 1) tilings.
        a, b = 1, 1
        for _ in range(7000):
            a, b = b, a + b
        assert result.stdout.splitlines() == ["cells: 14000", "tilings: %d" % a]


class TestKuoAndReproduce:
    def test_kuo_check_passes(self, capsys):
        code, out, _ = run(capsys, "kuo-check", "--order", "3", "--trials", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("order 2: all-ones OK, random 2/2 OK")
        assert lines[1].startswith("order 3: all-ones OK, random 2/2 OK")

    def test_kuo_check_without_trials_prints_no_random_part(self, capsys):
        code, out, _ = run(capsys, "kuo-check", "--order", "3", "--trials", "0")
        assert code == 0
        assert out.splitlines() == ["order 2: all-ones OK", "order 3: all-ones OK"]

    def test_kuo_check_counts_every_violation(self, capsys, monkeypatch):
        holds = tilings.kuo_identity_check

        def weighted_fails(order, weights=None):
            check = holds(order, weights)
            return check if weights is None else replace(check, rhs=check.rhs + 1)

        monkeypatch.setattr(tilings, "kuo_identity_check", weighted_fails)
        code, out, err = run(capsys, "kuo-check", "--order", "4", "--trials", "3")
        assert code == 1
        assert out.splitlines() == [
            "order %d: all-ones OK, random 0/3 OK (3 with a nonzero side)" % order
            for order in (2, 3, 4)
        ]
        assert err == "FAILED: 9 identity violations\n"

    def test_kuo_check_says_when_every_trial_is_zero(self, capsys):
        # At order 10 random_edge_weights' zeros leave no matching of the
        # diamond or its sub-diamonds: the exit code stays 0.
        code, out, _ = run(
            capsys, "kuo-check", "--min-order", "10", "--order", "10", "--trials", "3"
        )
        assert code == 0
        assert out == "order 10: all-ones OK, random 3/3 OK (every trial was 0 = 0)\n"

    def test_check_13_counts_and_needs_trials_with_a_nonzero_side(self, monkeypatch):
        result = run_check(13)
        assert result.passed
        assert result.detail.endswith(", 291 of 400 with a nonzero side")
        trials = reproduce.kuo_trials

        def zeros_at_four(order, count, rng):
            plain, *weighted = trials(order, count, rng)
            if order == 4:
                weighted = [replace(check, lhs=0, rhs=0) for check in weighted]
            return [plain, *weighted]

        monkeypatch.setattr(reproduce, "kuo_trials", zeros_at_four)
        result = run_check(13)
        assert not result.passed
        assert result.detail == "order 4: every weighted trial is 0 = 0"

    def test_kuo_check_past_the_sweep_is_quick(self, capsys):
        # Order 24 is 25 cells wide by diagonals, past the sweep: every
        # sum of the identity comes from the determinant.
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "kuo-check", "--min-order", "24", "--order", "24", "--trials", "0"
        )
        assert code == 0
        assert out == "order 24: all-ones OK\n"
        assert time.perf_counter() - start < 10

    def test_kuo_check_bad_order(self, capsys):
        code, _, err = run(capsys, "kuo-check", "--min-order", "1", "--order", "1")
        assert code == 1
        assert "OrderExceeded" in err

    def test_reproduce_subset_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--checks", "1,3,9,14")
        assert code == 0
        assert "4/4 checks passed" in out
        assert out.count("PASS") == 4

    def test_reproduce_reports_the_known_negative_sum(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--checks", "11")
        assert code == 1
        assert "FAIL" in out
        assert "size-7 diamond sum reaches -1" in out

    def test_reproduce_rejects_bad_numbers(self, capsys):
        code, _, err = run(capsys, "reproduce", "--checks", "99")
        assert code == 1
        assert "check number must be in 1..14" in err
        code, _, err = run(capsys, "reproduce", "--checks", "one")
        assert code == 1

    def test_reproduce_refuses_an_empty_check_list(self, capsys):
        for checks in (",", ""):
            code, out, err = run(capsys, "reproduce", "--checks", checks)
            assert code == 1
            assert "SizeMismatch" in err
            assert "PASS" not in out and "FAIL" not in out
        assert run_all(numbers=[]) == []

    def test_reproduce_refuses_a_repeated_check(self, capsys):
        code, out, err = run(capsys, "reproduce", "--checks", "3,1,3")
        assert code == 1
        assert "SizeMismatch" in err and "check 3 more than once" in err
        assert "PASS" not in out and "FAIL" not in out

    def test_reproduce_refuses_an_unknown_check_before_running_any(self, capsys):
        for checks, number in (("1,99", 99), ("0", 0)):
            code, out, err = run(capsys, "reproduce", "--checks", checks)
            assert code == 1
            assert "SizeMismatch" in err and "check %d," % number in err
            assert "PASS" not in out and "FAIL" not in out

    def test_run_all_refuses_a_bad_selection_before_running_any(self):
        lines = []
        for numbers, message in (
            ([3, 99], "check 99,"),
            ([3, 3], "check 3 more than once"),
        ):
            with pytest.raises(SizeMismatch, match=message):
                run_all(numbers=numbers, writer=lines.append)
        assert lines == []
        with pytest.raises(SizeMismatch, match="check 99,"):
            run_check(99)

    def test_reproduce_reads_a_negative_check_as_a_value(self, capsys):
        for argv in (["--checks", "-1,2"], ["--checks=-1,2"]):
            code, out, err = run(capsys, "reproduce", *argv)
            assert code == 1
            assert "SizeMismatch" in err and "check -1," in err
            assert "PASS" not in out and "FAIL" not in out


SPEC_ERRORS = {
    ("det", "--size-from", "pyramid:3"): "unknown matrix spec 'pyramid:3' "
    "(use ones:N, diamond:even:N, diamond:odd:N, mc:C)",
    ("det", "--size-from", "diamond:mid:2"): "unknown matrix spec 'diamond:mid:2' "
    "(use ones:N, diamond:even:N, diamond:odd:N, mc:C)",
    ("det", "--size-from", "ones:2:3"): "unknown matrix spec 'ones:2:3' "
    "(use ones:N, diamond:even:N, diamond:odd:N, mc:C)",
    ("det", "--size-from", "ones:x"): "bad matrix spec 'ones:x': "
    "invalid literal for int() with base 10: 'x'",
    ("det", "--size-from", "mc:1/0"): "bad matrix spec 'mc:1/0': "
    "zero denominator in '1/0'",
    ("tile", "--shape", "hex:3"): "unknown shape spec 'hex:3' "
    "(use square:N, aztec:N, rect:H:W)",
    ("tile", "--shape", "rect:3"): "unknown shape spec 'rect:3' "
    "(use square:N, aztec:N, rect:H:W)",
    ("tile", "--shape", "rect:x:3"): "bad shape spec 'rect:x:3': "
    "invalid literal for int() with base 10: 'x'",
    ("tile", "--shape", "square:-2"): "bad shape spec 'square:-2': negative size -2",
    ("tile", "--shape", "rect:-1:3"): "bad shape spec 'rect:-1:3': negative size -1",
}


@pytest.mark.parametrize(
    "argv, message", SPEC_ERRORS.items(), ids=[argv[-1] for argv in SPEC_ERRORS]
)
def test_spec_errors_name_the_spec(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: SizeMismatch: %s\n" % message)


def test_help_lists_the_specs_each_table_accepts(capsys):
    for command, usage in (
        ("det", "ones:N, diamond:even:N, diamond:odd:N, mc:C"),
        ("tile", "square:N, aztec:N, rect:H:W"),
    ):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert usage in " ".join(capsys.readouterr().out.split())


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_required_option_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["asm", "count"])
        assert exc.value.code == 2


def random_weights_json(cells, rng: Random) -> str:
    """--weights JSON with a weight p/q, p in 1..9 and q in 1..4, on every edge."""
    return json.dumps([
        [list(a), list(b), "%d/%d" % (rng.randint(1, 9), rng.randint(1, 4))]
        for a, b in tilings.region_edges(cells)
    ])


# Shapes past the determinant's bound.  Built, they would hold 1-2M cells
# (the order-1000 diamond and its sub-diamonds, the 1024 x 1024 square);
# each is refused before any cell is built.
REFUSED_BEFORE_BUILDING = {
    "kuo-check-order-1000": [
        "kuo-check", "--order", "1000", "--min-order", "1000", "--trials", "0"
    ],
    "tile-aztec-1000": ["tile", "--shape", "aztec:1000"],
    "tile-square-1024": ["tile", "--shape", "square:1024"],
}

MALFORMED = {
    "lam-zero-denominator": ["det-numeric", "--size-from", "ones:2", "--lam", "1/0"],
    "eval-zero-denominator": ["det", "--size-from", "ones:2", "--eval", "1/0"],
    "spec-zero-denominator": ["det", "--size-from", "mc:1/0"],
    "entry-zero-denominator": ["det", "--matrix", json.dumps({"entries": [["1/0"]]})],
    "term-zero-denominator": ["det", "--matrix", json.dumps({"entries": [["1/0*l^1"]]})],
    "weight-zero-denominator": [
        "tile", "--shape", "square:2", "--weights", json.dumps([[[1, 1], [1, 2], "1/0"]])
    ],
    "matrix-json-list": ["det", "--matrix", "[1]"],
    "matrix-json-null": ["det", "--matrix", "null"],
    "kuo-negative-trials": ["kuo-check", "--trials", "-1"],
    "kuo-empty-order-range": ["kuo-check", "--order", "1"],
    "tfk-negative-n": ["tfk", "-3"],
    "tile-negative-square": ["tile", "--shape", "square:-2"],
    "tile-negative-rect": ["tile", "--shape", "rect:-1:3"],
    "tile-negative-aztec": ["tile", "--shape", "aztec:-2"],
    "asm-count-size-zero": ["asm", "count", "--size", "0"],
    "asm-enumerate-size-negative": ["asm", "enumerate", "--size", "-1"],
    "lam-not-a-number": ["det-numeric", "--size-from", "ones:2", "--lam", "abc"],
    "matrix-file-missing": ["det", "--matrix-file", str(HERE / "no-such-matrix.json")],
    "matrix-file-directory": ["det", "--matrix-file", str(HERE)],
    "cells-float": ["asm", "region-sum", "--size", "3", "--cells", "[[1.5,2]]"],
    "cells-bool": ["tile", "--cells", "[[true,2],[1,3]]"],
    "cells-not-pairs": ["tile", "--cells", "[[1,2,3]]"],
    "weights-cell-bool": [
        "tile", "--shape", "square:2", "--weights", json.dumps([[[True, 1], [2, 1], "2"]])
    ],
    "matrix-entry-bool": ["det", "--matrix", '{"size": 2, "entries": [[1,2],[3,true]]}'],
    "matrix-entry-float": ["det", "--matrix", '{"size": 2, "entries": [[1,2],[3,1.5]]}'],
    "matrix-size-bool": ["det", "--matrix", '{"size": true, "entries": [[1]]}'],
    "tfk-past-the-cell-bound": ["tfk", "600"],
    "tile-past-the-cell-bound": ["tile", "--shape", "square:66"],
    "tile-rect-past-every-route": ["tile", "--shape", "rect:100000:100000"],
    "tile-square-past-every-route": ["tile", "--shape", "square:100000"],
    "tile-aztec-past-every-route": ["tile", "--shape", "aztec:100000"],
    "tile-strip-past-every-route": ["tile", "--shape", "rect:1:20000000"],
    "tile-weighted-past-the-bit-bound": [
        "tile", "--shape", "square:40",
        "--weights", random_weights_json(tilings.square_region(40), Random(40)),
    ],
    **REFUSED_BEFORE_BUILDING,
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_an_error_line_not_a_traceback(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert not err.startswith("error: ValueError")


@pytest.mark.parametrize(
    "argv", REFUSED_BEFORE_BUILDING.values(), ids=REFUSED_BEFORE_BUILDING.keys()
)
def test_refused_shapes_build_no_cells(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.startswith("error: CellsExceeded: region has ")
    assert peak < 16 * 2**20


# 1 + l^10000 + l^20000 + ... + l^80000 in every entry: long packed slices.
LONG_ENTRY = " + ".join(["1"] + ["1*l^%d" % (10000 * k) for k in range(1, 9)])

# Inputs past the frontier sweep's reach, each answered in 2 s.
LARGE = {
    "tile-rect-80-18": ["tile", "--shape", "rect:80:18"],
    "tile-rect-18-80": ["tile", "--shape", "rect:18:80"],
    "tile-rect-300-24": ["tile", "--shape", "rect:300:24"],
    "tile-rect-2000-10": ["tile", "--shape", "rect:2000:10"],
    # 6,270 digits, past CPython's default limit of 4300 for printing an int.
    "tile-rect-2-30000": ["tile", "--shape", "rect:2:30000"],
    "det-long-entries": [
        "det", "--matrix", json.dumps({"size": 2, "entries": [[LONG_ENTRY] * 2] * 2})
    ],
}


@pytest.mark.parametrize("argv", LARGE.values(), ids=LARGE.keys())
def test_large_input_is_answered_within_the_budget(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert ("tilings: " if argv[0] == "tile" else "determinant (34 terms): ") in out


def rectangle_product(height: int, width: int) -> float:
    """Kasteleyn's product for the tilings of an even-by-even rectangle."""
    return math.prod(
        4 * math.cos(math.pi * j / (height + 1)) ** 2
        + 4 * math.cos(math.pi * k / (width + 1)) ** 2
        for j in range(1, (height + 1) // 2 + 1)
        for k in range(1, (width + 1) // 2 + 1)
    )


def test_long_rectangle_counts_agree_both_ways(capsys):
    counts = []
    for shape in ("rect:80:18", "rect:18:80"):
        code, out, _ = run(capsys, "tile", "--shape", shape)
        assert code == 0
        counts.append(int(out.splitlines()[1].removeprefix("tilings: ")))
    assert counts[0] == counts[1]
    assert abs(counts[0] / rectangle_product(80, 18) - 1) < 1e-9
