"""The experiment scripts under scripts/ run end to end."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_output(name: str, *args: str) -> list[str]:
    """Run a script and return the lines it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def run_script(name: str, *args: str) -> dict[str, list[str]]:
    """Run a script and return its table rows keyed by their first field."""
    return {
        fields[0]: fields
        for fields in (line.split() for line in run_output(name, *args))
        if fields and fields[0].isdigit()
    }


def test_partial_sum_scan_finds_the_size_seven_negative():
    rows = run_script("asm_partial_sum_scan.py", "--max-size", "7")
    assert sorted(rows, key=int) == [str(n) for n in range(2, 8)]
    _size, matrices, mask_min, complement = rows["7"][:4]
    assert (matrices, mask_min, complement) == ("218348", "-1", "0")
    assert all(int(rows[str(n)][2]) >= 0 for n in range(2, 7))


def test_diamond_term_growth_recovers_square_counts():
    rows = run_script("diamond_term_growth.py", "--max-order", "3")
    assert [rows[str(n)][4] for n in (1, 2, 3)] == ["2", "36", "6728"]


def test_code_line_total_is_the_sum_of_its_rows():
    rows = {
        name: int(count)
        for name, count in (line.split() for line in run_output("code_lines.py"))
    }
    total = rows.pop("total")
    assert "cli.py" in rows and "__init__.py" in rows
    assert total == sum(rows.values()) > 0
