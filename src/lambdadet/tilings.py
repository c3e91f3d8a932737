"""Domino tilings and perfect matchings of grid regions.

A region is a set of (row, column) cells, 1-based, not necessarily
connected.  Tilings by dominoes correspond to perfect matchings of the
adjacency graph on cells, so everything here is phrased over matchings;
edges may carry rational weights, and the weight of a matching is the
product of its edge weights (tiling counts are the all-ones case).

Two evaluators are provided on purpose.  matching_sum sweeps the region
cell by cell with a bitmask profile of covered cells along the frontier.
Its work is states x in-region cells, on int states (rational weights
are cleared of denominators first), and it is fine while the shorter
side of the region is at most 24 cells.
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

    A region wider than tall is swept transposed, which leaves the
    answer unchanged, so the shorter side of the bounding box must be at
    most MAX_PROFILE_WIDTH (WidthExceeded otherwise).  Every perfect
    matching has len(cells) // 2 edges, so the weights are first scaled
    by D, the lcm of their denominators: the sweep then carries ints
    only, and the sum is sweep(D * w) / D ** (len(cells) // 2).  Edges
    outside the region are ignored and do not enter D.
    """
    if not cells:
        return 1
    rows = sorted({r for r, _ in cells})
    columns = sorted({c for _, c in cells})
    width = columns[-1] - columns[0] + 1
    height = rows[-1] - rows[0] + 1
    if min(width, height) > MAX_PROFILE_WIDTH:
        raise WidthExceeded(
            "region bounding box is %d by %d; the sweep handles at most %d "
            "along its shorter side" % (height, width, MAX_PROFILE_WIDTH)
        )
    r0, c0 = rows[0], columns[0]
    local = {(r - r0, c - c0) for (r, c) in cells}
    transposed = width > height
    if transposed:
        local = {(c, r) for (r, c) in local}
        height, width = width, height
    lookup = _weight_lookup(weights)

    def weight(r: int, c: int, r2: int, c2: int) -> Rational:
        """Weight of the edge between local cells, 0 if it leaves the region."""
        if (r2, c2) not in local:
            return 0
        if transposed:
            r, c, r2, c2 = c, r, c2, r2
        return lookup((r + r0, c + c0), (r2 + r0, c2 + c0))

    # One step per in-region cell: a cell outside the region never has its
    # frontier bit set, so sweeping it would copy the states unchanged.
    steps = [
        (c, weight(r, c, r + 1, c), weight(r, c, r, c + 1))
        for r in range(height)
        for c in range(width)
        if (r, c) in local
    ]
    scale = math.lcm(*(w.denominator for _, down, right in steps for w in (down, right)))
    states: dict[int, int] = {0: 1}
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
            return 0
    total = states.get(0, 0)
    if scale == 1:
        return total
    value = Fraction(total, scale ** (len(cells) // 2))
    return value.numerator if value.denominator == 1 else value


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
