"""Domino tilings and perfect matchings of grid regions.

A region is a set of (row, column) cells, 1-based, not necessarily
connected.  Tilings by dominoes correspond to perfect matchings of the
adjacency graph on cells, so everything here is phrased over matchings;
edges may carry rational weights, and the weight of a matching is the
product of its edge weights (tiling counts are the all-ones case).

Two evaluators are provided on purpose.  matching_sum sweeps the region
cell by cell with a bitmask profile of covered cells along the frontier,
going by rows, columns, diagonals or anti-diagonals, whichever keeps the
frontier narrowest.  Its work is states x in-region cells, on int states
(rational weights are cleared of denominators first), and it is fine
while that frontier is at most 24 cells: 24 for a square of side 24, and
n + 1 for the Aztec diamond of order n, which goes by diagonals.  An
unweighted region swept by rows or columns that equals its mirror image
across the middle row of its sweep sweeps only its top half and joins
the two halves at the middle cut, which takes about half the work.
matching_sum_brute recurses on the first uncovered cell and is kept
deliberately naive so it can serve as an independent check of the
sweep.  The Aztec-diamond families, their four-fold overlapping
sub-diamonds, and the graphical condensation identity that ties them to
the determinant recurrence all live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Mapping

from .errors import OrderExceeded, WidthExceeded
from .laurent import Rational

Cell = tuple[int, int]
Edge = tuple[Cell, Cell]
Region = frozenset[Cell]

MAX_PROFILE_WIDTH = 24
MAX_BRUTE_CELLS = 60


def edge_key(a: Cell, b: Cell) -> Edge:
    """Canonical (sorted) form of an edge between two cells."""
    return (a, b) if a <= b else (b, a)


def region_from_cells(cells: Iterable[Iterable[int]]) -> Region:
    return frozenset((int(r), int(c)) for r, c in cells)


def rectangle_region(height: int, width: int) -> Region:
    return frozenset((r, c) for r in range(1, height + 1) for c in range(1, width + 1))


def square_region(n: int) -> Region:
    return rectangle_region(n, n)


def diamond_cells(size: int) -> Region:
    """Cells (r, c) in [1, size]^2 with |2r-size-1| + |2c-size-1| <= 2 (size // 2).

    The paper's central diamond: for size 2n it is |2r-2n-1| + |2c-2n-1|
    <= 2n, the Aztec diamond of order n; for size 2n+1 it is
    |r-n-1| + |c-n-1| <= n.  Empty for size < 1.
    """
    bound = 2 * (size // 2)
    return frozenset(
        (r, c)
        for r in range(1, size + 1)
        for c in range(1, size + 1)
        if abs(2 * r - size - 1) + abs(2 * c - size - 1) <= bound
    )


def aztec_region(n: int) -> Region:
    """The Aztec diamond of order n, diamond_cells(2n): 2n(n+1) cells.
    Order 0, and any negative order, is empty."""
    return diamond_cells(2 * n)


def aztec_count_formula(n: int) -> int:
    """Closed-form tiling count of the order-n Aztec diamond."""
    return 2 ** (n * (n + 1) // 2)


def region_edges(cells: Region) -> list[Edge]:
    """All adjacent cell pairs inside the region, in canonical form."""
    out = []
    for (r, c) in sorted(cells):
        if (r, c + 1) in cells:
            out.append(((r, c), (r, c + 1)))
        if (r + 1, c) in cells:
            out.append(((r, c), (r + 1, c)))
    return out


def _weight_lookup(weights: Mapping[Edge, Rational] | None):
    if weights is None:
        return lambda a, b: 1
    return lambda a, b: weights.get(edge_key(a, b), 1)


def matching_sum(
    cells: Region, weights: Mapping[Edge, Rational] | None = None
) -> Rational:
    """Sum of matching weights by a frontier sweep.

    The region is swept in the one of four cell orders whose frontier is
    narrowest: by rows (at most W cells wide, for a bounding box of
    height H and width W), by columns (H), by diagonals r + c, or by
    anti-diagonals r - c.  The diagonal frontier lies on two neighbouring
    diagonals whose cells take disjoint ranges of r - c, each in steps of
    2, so it is at most (span(r - c) + 1) // 2 + 1 cells, where span is
    max - min over the region; the anti-diagonal bound is the same with
    r + c.  Ties keep rows, then columns.  The chosen bound must be at
    most MAX_PROFILE_WIDTH (WidthExceeded otherwise); an order-n Aztec
    diamond, 2n cells wide, needs n + 1.

    Every perfect matching has len(cells) // 2 edges, so the weights are
    first scaled by D, the lcm of their denominators: the sweep then
    carries ints only, and the sum is sweep(D * w) / D ** (len(cells) // 2).
    Edges outside the region are ignored and do not enter D.

    Half-sweep.  When weights is None, the order is rows or columns, and
    the region, in the local coordinates of that sweep (H rows), equals
    its mirror image r -> H - 1 - r, the sweep of the bottom rows is the
    mirror of the sweep of the top ones.  So only the cells of rows
    < ceil(H / 2) are swept, in the same order.  Let A be the states after
    the rows < H // 2 and B those after the rows < ceil(H / 2): A[mask]
    counts the tilings of the top rows whose vertical dominoes cross the
    middle cut at the columns in mask, and B[mask], read in the mirror,
    counts the tilings of the rest that meet them there.  The count is

        sum over mask of A[mask] * B[mask]

    (B is A when H is even; when H is odd, B adds the middle row).
    """
    if not cells:
        return 1
    rows = [r for r, _ in cells]
    columns = [c for _, c in cells]
    differences = [r - c for r, c in cells]
    sums = [r + c for r, c in cells]
    r0, c0 = min(rows), min(columns)
    height = max(rows) - r0 + 1
    width = max(columns) - c0 + 1
    bounds = (
        width,
        height,
        (max(differences) - min(differences) + 1) // 2 + 1,
        (max(sums) - min(sums) + 1) // 2 + 1,
    )
    order = min(range(4), key=bounds.__getitem__)
    if bounds[order] > MAX_PROFILE_WIDTH:
        raise WidthExceeded(
            "region needs a frontier of %d cells (rows %d, columns %d, "
            "diagonals %d, anti-diagonals %d); the sweep handles at most %d"
            % (bounds[order], *bounds, MAX_PROFILE_WIDTH)
        )
    # Local (row, column) coordinates from (0, 0): columns transpose the
    # region and anti-diagonals mirror it (c -> W - 1 - c), so that rows or
    # diagonals of the local box are swept.  Weights are looked up on the
    # original cells.
    if order == 1:
        local = {(c - c0, r - r0): (r, c) for (r, c) in cells}
        height, width = width, height
    elif order == 3:
        local = {(r - r0, width - 1 - c + c0): (r, c) for (r, c) in cells}
    else:
        local = {(r - r0, c - c0): (r, c) for (r, c) in cells}
    lookup = _weight_lookup(weights)

    def weight(cell: Cell, neighbour: Cell) -> Rational:
        """Weight of the edge between local cells, 0 if it leaves the region."""
        if neighbour not in local:
            return 0
        return lookup(local[cell], local[neighbour])

    # The frontier holds one bit per column: cell (r, c) hands its slot c
    # to (r + 1, c), and next in slot c + 1 comes (r, c + 1).  By rows that
    # holds in reading order.  By diagonals the cells go by ascending r + c
    # and, within a diagonal, ascending r, so (r - 1, c + 1) has already
    # handed slot c + 1 to (r, c + 1).
    if order < 2:
        positions = ((r, c) for r in range(height) for c in range(width))
    else:
        positions = (
            (r, d - r)
            for d in range(height + width - 1)
            for r in range(max(0, d - width + 1), min(d + 1, height))
        )
    # One step per in-region cell: a cell outside the region never has its
    # frontier bit set, so sweeping it would copy the states unchanged.
    steps = [
        (c, weight((r, c), (r + 1, c)), weight((r, c), (r, c + 1)))
        for r, c in positions
        if (r, c) in local
    ]
    scale = math.lcm(*(w.denominator for _, down, right in steps for w in (down, right)))
    if weights is None and order < 2 and all((height - 1 - r, c) in local for r, c in local):
        # Mirror-symmetric by rows: sweep the top half only (top is A and
        # middle is B above).  The cells of rows < height // 2 come first
        # in the steps; by the mirror, rows >= ceil(height / 2) hold as
        # many cells as they do.
        cut = sum(r < height // 2 for r, _ in local)
        top = _sweep({0: 1}, steps[:cut], scale)
        middle = _sweep(top, steps[cut : len(steps) - cut], scale)
        return sum(count * middle.get(mask, 0) for mask, count in top.items())
    total = _sweep({0: 1}, steps, scale).get(0, 0)
    if scale == 1:
        return total
    value = Fraction(total, scale ** (len(cells) // 2))
    return value.numerator if value.denominator == 1 else value


def _sweep(
    states: dict[int, int], steps: list[tuple[int, Rational, Rational]], scale: int
) -> dict[int, int]:
    """Carry the profile states through the steps (empty once none is left).

    A state is a mask of the frontier slots already covered, mapped to
    the weighted number of partial matchings that reach it; each step
    (slot, down weight, right weight) is one cell."""
    for c, down, right in steps:
        bit = 1 << c
        next_bit = bit << 1
        down = down.numerator * (scale // down.denominator)
        right = right.numerator * (scale // right.denominator)
        new: dict[int, int] = {}
        get = new.get
        for mask, acc in states.items():
            if mask & bit:
                cleared = mask ^ bit
                new[cleared] = get(cleared, 0) + acc
                continue
            if down:
                below = mask | bit
                new[below] = get(below, 0) + acc * down
            if right and not mask & next_bit:
                beside = mask | next_bit
                new[beside] = get(beside, 0) + acc * right
        states = new
        if not states:
            break
    return states


def count_tilings(cells: Region) -> int:
    """Number of domino tilings of the region."""
    return matching_sum(cells)


def matching_sum_brute(
    cells: Region, weights: Mapping[Edge, Rational] | None = None
) -> Rational:
    """Same sum by direct recursion on the first uncovered cell.

    Kept simple as an independent oracle; refuses regions with more than
    MAX_BRUTE_CELLS cells (OrderExceeded).
    """
    if len(cells) > MAX_BRUTE_CELLS:
        raise OrderExceeded(
            "brute-force matching enumeration is limited to %d cells, got %d"
            % (MAX_BRUTE_CELLS, len(cells))
        )
    lookup = _weight_lookup(weights)

    def recurse(remaining: frozenset[Cell]) -> Rational:
        if not remaining:
            return 1
        r, c = min(remaining)
        total: Rational = 0
        for partner in ((r, c + 1), (r + 1, c)):
            if partner in remaining:
                w = lookup((r, c), partner)
                if w:
                    total += w * recurse(remaining - {(r, c), partner})
        return total

    return recurse(frozenset(cells))


# -- the window-to-region correspondence --------------------------------


def diamond_window_region(N: int, k: int, i: int, j: int) -> Region | None:
    """Region whose tiling count equals pyramid value (k, i, j) of the
    order-N even diamond matrix at l = 1.

    The k-by-k window with top left corner (i, j) meets the four zero
    staircases of the diamond matrix to depths

        west  = N + 1 - i - j          (northwest staircase)
        north = k - 1 - N - i + j      (northeast staircase)
        south = k - 1 - N - j + i      (southwest staircase)
        east  = 2k + i + j - 3N - 3    (southeast staircase)

    clamped at 0.  The matching region is the order k-1 Aztec diamond
    with that many boundary columns or rows of cells removed on each
    side.  A depth beyond k-1 swallows the whole diamond: the window's
    determinant is 0 and no region exists (None is returned; the empty
    region for k = 1 counts one empty tiling).
    """
    m = k - 1
    west = max(0, N + 1 - i - j)
    north = max(0, k - 1 - N - i + j)
    south = max(0, k - 1 - N - j + i)
    east = max(0, 2 * k + i + j - 3 * N - 3)
    if max(west, north, south, east) > m:
        return None
    return frozenset(
        (r, c)
        for (r, c) in aztec_region(m)
        if c > west and r > north and c <= 2 * m - east and r <= 2 * m - south
    )


# -- square counts in closed form ---------------------------------------


def tfk_count(n: int) -> float:
    """Floating-point product formula for tilings of the 2n-by-2n square:
    product over 1 <= j, k <= n of (4 cos^2(pi j / (2n+1)) + 4 cos^2(pi k / (2n+1)))."""
    total = 1.0
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            total *= 4 * math.cos(math.pi * j / (2 * n + 1)) ** 2 + 4 * math.cos(
                math.pi * k / (2 * n + 1)
            ) ** 2
    return total


# -- graphical condensation ---------------------------------------------

# Each order n diamond contains four overlapping order n-1 diamonds and a
# central order n-2 diamond; a child's cell (r, c) sits at the parent
# cell (r, c) plus the listed offset.
SUB_DIAMOND_OFFSETS = {
    "west": (1, 0),
    "north": (0, 1),
    "east": (1, 2),
    "south": (2, 1),
    "center": (2, 2),
}


def sub_diamond_cells(n: int, which: str) -> Region:
    """Cells of a sub-diamond of the order-n diamond, in parent coordinates."""
    dr, dc = SUB_DIAMOND_OFFSETS[which]
    order = n - 2 if which == "center" else n - 1
    return frozenset((r + dr, c + dc) for (r, c) in aztec_region(order))


def tip_edges(n: int) -> dict[str, Edge]:
    """The four extreme edges of the order-n diamond graph."""
    return {
        "north": edge_key((1, n), (1, n + 1)),
        "south": edge_key((2 * n, n), (2 * n, n + 1)),
        "west": edge_key((n, 1), (n + 1, 1)),
        "east": edge_key((n, 2 * n), (n + 1, 2 * n)),
    }


@dataclass(frozen=True)
class KuoCheck:
    """Both sides of the condensation identity on one weighted diamond."""

    order: int
    lhs: Rational
    rhs: Rational

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def kuo_identity_check(
    order: int, weights: Mapping[Edge, Rational] | None = None
) -> KuoCheck:
    """Verify W(G) W(G_center) = w_n w_s W(G_west) W(G_east)
                                + w_w w_e W(G_north) W(G_south)

    on the order-n diamond graph with the given edge weights (missing
    edges weigh 1).  Sub-diamond weights are inherited from the parent,
    and w_n, w_s, w_w, w_e are the four tip edge weights.  Dividing by
    W(G_center) turns this into the determinant recurrence at l = 1.
    """
    if order < 2:
        raise OrderExceeded("the identity needs order at least 2")
    lookup = _weight_lookup(weights)
    tips = {name: lookup(*edge) for name, edge in tip_edges(order).items()}
    sums = {
        which: matching_sum(sub_diamond_cells(order, which), weights)
        for which in SUB_DIAMOND_OFFSETS
    }
    lhs = matching_sum(aztec_region(order), weights) * sums["center"]
    rhs = (
        tips["north"] * tips["south"] * sums["west"] * sums["east"]
        + tips["west"] * tips["east"] * sums["north"] * sums["south"]
    )
    return KuoCheck(order=order, lhs=lhs, rhs=rhs)


def random_edge_weights(order: int, rng: Random) -> dict[Edge, Fraction]:
    """Non-negative rational weights for every edge of the order-n diamond."""
    return {
        edge: Fraction(rng.randint(0, 9), rng.randint(1, 4))
        for edge in region_edges(aztec_region(order))
    }


def kuo_trials(order: int, trials: int, rng: Random) -> list[KuoCheck]:
    """The identity at order unweighted, then under trials weightings
    drawn one after another from rng by random_edge_weights."""
    return [kuo_identity_check(order)] + [
        kuo_identity_check(order, random_edge_weights(order, rng))
        for _ in range(trials)
    ]
