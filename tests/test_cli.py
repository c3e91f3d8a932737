"""End-to-end command line coverage through cli.main."""

from __future__ import annotations

import json

import pytest

from lambdadet.cli import main

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

    def test_indeterminate_step_resolves_to_the_exact_limit(self, capsys):
        code, out, _ = run(
            capsys, "det-numeric", "--size-from", "diamond:even:4", "--lam", "-2"
        )
        assert code == 0
        assert out.strip() == "-1313216"

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
            "--perturb",
            "--eval",
            "1",
        )
        assert code == 0
        assert "limit value at l=1: 36" in out

    def test_enumeration_cap_guards_large_sizes(self, capsys):
        code, _, err = run(capsys, "eq2", "--size-from", "diamond:even:4")
        assert code == 1
        assert "CapExceeded" in err
        assert "LAMBDADET_CAP" in err


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
        code, _, err = run(capsys, "asm", "count", "--size", "8")
        assert code == 1
        assert "CapExceeded" in err

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
        assert "outside the 3-by-3 matrix" in err


class TestTilingCommands:
    def test_square_count(self, capsys):
        code, out, _ = run(capsys, "tile", "--shape", "square:8")
        assert code == 0
        assert "tilings: 12988816" in out

    def test_strip_count(self, capsys):
        code, out, _ = run(capsys, "tile", "--shape", "rect:30:2")
        assert code == 0
        assert "tilings: 1346269" in out

    def test_wide_strip_is_refused(self, capsys):
        code, _, err = run(capsys, "tile", "--shape", "rect:2:30")
        assert code == 1
        assert "WidthExceeded" in err

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

    def test_shape_or_cells_required(self, capsys):
        code, _, err = run(capsys, "tile")
        assert code == 1
        assert "provide --shape or --cells" in err

    def test_tfk_report(self, capsys):
        code, out, _ = run(capsys, "tfk", "2")
        assert code == 0
        assert "exact count:     36" in out
        assert "relative error:" in out


class TestKuoAndReproduce:
    def test_kuo_check_passes(self, capsys):
        code, out, _ = run(capsys, "kuo-check", "--order", "3", "--trials", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("order 2: all-ones OK, random 2/2 OK")
        assert lines[1].startswith("order 3: all-ones OK, random 2/2 OK")

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


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_required_option_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["asm", "count"])
        assert exc.value.code == 2
