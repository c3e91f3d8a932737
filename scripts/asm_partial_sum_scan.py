"""Scan masked partial sums of alternating-sign matrices for negatives.

For each size n the nonzero pattern of the parity-matched diamond matrix
masks a region of cells; the scan minimizes the sum of entries over that
region (and over its complement) across every size-n alternating-sign
matrix.  A permutation matrix restricted to any region sums to at least
0, but the -1 entries make the general minimum a real question.  This is
the tool that turned up the first negative: at odd size 7 the
diamond-masked sum reaches -1, while every size below 7 and the even
size 8 stay non-negative; complements are provably non-negative at every
size.  The minima come from profile folds, not from listing matrices, so
`--max-size 11` runs in about a second and extends the table:
the mask minima at sizes 8, 9, 10 and 11 are 0, -3, -2 and -5, so even
size 10 is the first even size to go negative (-2), and every
complement minimum is 0.

Usage: python3 scripts/asm_partial_sum_scan.py [--max-size N]
"""

from __future__ import annotations

import argparse
import time

from lambdadet.asm import (
    complement_cells,
    count_asms,
    mask_cells,
    min_region_sum,
    sketch,
)
from lambdadet.matrices import diamond_pattern


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=7)
    args = parser.parse_args()

    header = "%4s %15s %10s %12s %9s" % (
        "size", "matrices", "mask min", "complement", "seconds"
    )
    print(header)
    print("-" * len(header))
    witnesses = []
    for size in range(2, args.max_size + 1):
        pattern = diamond_pattern(size)
        start = time.perf_counter()
        mask_min, mask_argmin = min_region_sum(size, mask_cells(pattern))
        comp_min, comp_argmin = min_region_sum(size, complement_cells(pattern))
        elapsed = time.perf_counter() - start
        print(
            "%4d %15d %10d %12d %9.2f"
            % (size, count_asms(size), mask_min, comp_min, elapsed)
        )
        if mask_min < 0:
            witnesses.append((size, mask_min, mask_argmin))
        if comp_min < 0:
            witnesses.append((size, comp_min, comp_argmin))
    if witnesses:
        print()
        for size, value, argmin in witnesses:
            print("size %d reaches %d: %s" % (size, value, sketch(argmin)))
    else:
        print("\nno negative partial sums up to size %d" % args.max_size)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
