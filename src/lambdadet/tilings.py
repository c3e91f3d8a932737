"""Domino tilings and perfect matchings of grid regions.

A region is a set of (row, column) cells, 1-based, not necessarily
connected.  Tilings by dominoes correspond to perfect matchings of the
adjacency graph on cells, so everything here is phrased over matchings;
edges may carry rational weights, and the weight of a matching is the
product of its edge weights (tiling counts are the all-ones case).

Three evaluators are provided on purpose.  The frontier sweep
(_sweep_sum) goes cell by cell with a bitmask profile of covered cells
along the frontier, by rows, columns, diagonals or anti-diagonals,
whichever keeps the frontier B narrowest: its work, on int states
(rational weights are cleared of denominators first), is about
len(cells) << B.  The Kasteleyn determinant (_kasteleyn_sum; Kasteleyn,
Physica 27, 1961, with the face condition of Kenyon's Lectures on
dimers) is one fraction-free elimination of a signed sparse matrix with
a row per black cell, in the sweep's cell order: its work is about
len(cells) * B**2, which check_cells bounds.  One rule, _route, of
len(cells) and B, sends fat regions (squares of side 10 and more and
Aztec diamonds of order 9 and more among them) and regions past a
second of sweeping to the determinant, where it refuses those past
check_cells's +-1 bound, and other thin ones to the sweep; it is asked
before any cell is ordered or built.  matching_sum works in two steps:
a region step, which depends on the cells alone (the parity test, the
route and its engine, an int function of the region's int edge values:
the sweep's steps, or the determinant's matrix places and signs)
and is kept for the last 16 regions summed, and one weight step for
both routes, which scales the weights to ints, runs the engine and
divides the scale back out.
matching_sum_brute recurses on the first uncovered cell and is kept
deliberately naive so it can serve as an independent check of the other
two.  The Aztec-diamond families, their four-fold overlapping
sub-diamonds, Kuo's condensation identity that ties them to the
determinant recurrence and the square's exact product formula live here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Mapping

from .errors import CellsExceeded, OrderExceeded, SizeMismatch
from .laurent import Rational

Cell = tuple[int, int]
Edge = tuple[Cell, Cell]
Region = frozenset[Cell]
# A prepared route: the sum as an int function of the region's int edge
# values, in the order of the edges its region step returns.
Engine = Callable[[list[int]], int]

# len(cells) << B, states x steps at frontier B: about a second of sweeping.
MAX_SWEEP_WORK = 1 << 24
# The 64x64 square, 4096 cells, takes the determinant about 0.7 s.
MAX_DETERMINANT_CELLS = 4096
# cells**2 * bits past this refuses a region with weights of bits bits.
MAX_WEIGHTED_WORK = (MAX_DETERMINANT_CELLS // 2) ** 2
MAX_BRUTE_CELLS = 60


def edge_key(a: Cell, b: Cell) -> Edge:
    """Canonical (sorted) form of an edge between two cells."""
    return (a, b) if a <= b else (b, a)


def as_cell(value) -> Cell:
    """value as a cell: a pair of ints (bools, floats and anything else
    are refused with SizeMismatch)."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        if all(type(v) is int for v in value):
            return (value[0], value[1])
    raise SizeMismatch("a cell is a pair of integers, not %r" % (value,))


def region_from_cells(cells: Iterable[Iterable[int]]) -> Region:
    return frozenset(map(as_cell, cells))


def rectangle_region(height: int, width: int) -> Region:
    """The height-by-width box of cells, at frontier bound min(height,
    width).  _route refuses (CellsExceeded) what matching_sum would, and an
    odd box past the same bound, before any cell is built."""
    _route(max(height, 0) * max(width, 0), max(min(height, width), 0))
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
    """The Aztec diamond of order n, diamond_cells(2n): 2n(n+1) cells at
    frontier bound n + 1.  Order 0, and any negative order, is empty.
    Refused before any cell is built, as rectangle_region is."""
    _route(2 * max(n, 0) * (n + 1), max(n, 0) + 1)
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


def matching_sum(
    cells: Region, weights: Mapping[Edge, Rational] | None = None
) -> Rational:
    """Sum of matching weights, by the frontier sweep or by the determinant.

    The sum is taken in two steps.  The region step, _evaluator(cells),
    depends on the cells alone: it tests the parity, picks the route and
    prepares that route's engine, an int function of int edge values in
    region_edges order: for a swept region its steps with the index of the
    edge each one weighs, for the determinant each edge's matrix place and
    Kasteleyn signs.  The one weight step, _weigh, looks each edge's
    weight up, scales the weights to ints, runs the engine and divides the
    scale back out.  The last 16 region steps are kept
    (functools.lru_cache), so a region summed under many weightings, as by
    kuo_trials, is prepared once, on either route.

    A region whose black cells (r + c even) and white cells differ in
    number has no perfect matching and gives 0 at once.  Otherwise let B
    be the narrowest frontier bound of the sweep (see _sweep_cells).  The
    region goes (_route) to the Kasteleyn determinant when it is fat, B >=
    10 and len(cells) <= 4 * B**2, or when its sweep work len(cells) << B
    passes MAX_SWEEP_WORK; every other region is swept.  The constants were
    measured (best of 3-7 runs, 2-CPU host, CPython 3.11), unweighted and
    with a random Fraction weight in [1/4, 9] on every edge:

    - below B = 10 the two are within a factor of 2, and the sweep keeps
      the weighted sums: Aztec order 8 (B = 9) takes 0.0026 s swept and
      0.0016 s by the determinant, 0.0039 s and 0.0036 s weighted.  From
      B = 10 the determinant wins on fat regions: square 10 takes
      0.0040 s and 0.0009 s, Aztec order 10 0.0093 s and 0.0026 s, square
      14 0.11 s and 0.0026 s;
    - in the sweep's order the determinant is linear in the length too:
      rectangle 10x200 (20 B**2 cells) takes 0.13 s swept and 0.034 s by
      it, and weighted 10x40 (4 B**2) 0.026 s and 0.017 s.  But weighted
      10x200 takes it 1.2-1.35 s, past check_cells, and the sweep
      0.2-0.4 s: so thin regions stay on the sweep;
    - the rectangles 10x1638, 12x409 and 14x102, at MAX_SWEEP_WORK =
      2**24, take 1.9, 1.3 and 1.1 s swept, and 0.34, 0.10 and 0.027 s by
      the determinant.  Rectangles 80x18 and 2000x10 took the sweep 22 s
      and 4.4 s.

    A region past check_cells's bounds too, such as a long weighted
    strip, is refused (CellsExceeded) before any matrix is built.
    """
    cells = frozenset(cells)
    return _weigh(cells, *_evaluator(cells), weights)


@functools.lru_cache(maxsize=16)
def _evaluator(cells: Region) -> tuple[list[Edge], Engine]:
    """matching_sum's region step: the region's edges and its engine."""
    if not cells:
        return [], lambda values: 1
    if 2 * sum((r + c) % 2 for r, c in cells) != len(cells):
        return [], lambda values: 0
    local, frontier = _sweep_cells(cells)
    if _route(len(cells), frontier):
        return _kasteleyn_engine(cells, local, frontier)
    return _sweep_engine(cells, local)


def _route(count: int, frontier: int) -> bool:
    """Whether matching_sum takes count cells at frontier bound frontier to
    the determinant, refusing (CellsExceeded) past check_cells's +-1 bound
    there; asked before any cell is ordered or built (see matching_sum)."""
    if (frontier >= 10 and count <= 4 * frontier**2) or count << frontier > MAX_SWEEP_WORK:
        check_cells(count, 1, frontier)
        return True
    return False


def _weigh(
    cells: Region, edges: list[Edge], engine: Engine, weights: Mapping[Edge, Rational] | None
) -> Rational:
    """matching_sum's weight step: the engine run on the weights of the
    edges (missing edges weigh 1; edges outside the region are ignored).

    Every perfect matching has len(cells) // 2 edges, so the weights are
    first scaled by D, the lcm of their denominators: the engine then
    carries ints only, and the sum is engine(D * w) / D ** (len(cells) // 2).
    """
    if not weights:
        return engine([1] * len(edges))
    values = [weights.get(edge, 1) for edge in edges]
    scale = math.lcm(*(w.denominator for w in values))
    total = engine([w.numerator * (scale // w.denominator) for w in values])
    if scale == 1:
        return total
    value = Fraction(total, scale ** (len(cells) // 2))
    return value.numerator if value.denominator == 1 else value


def _sweep_sum(
    cells: Region, weights: Mapping[Edge, Rational] | None = None
) -> Rational:
    """Sum of matching weights by a frontier sweep, whatever the region's
    shape, planned afresh on every call (matching_sum keeps its plans)."""
    if not cells:
        return 1
    return _weigh(cells, *_sweep_engine(cells, _sweep_cells(cells)[0]), weights)


def _sweep_cells(cells: Region) -> tuple[dict[Cell, Cell], int]:
    """The region's cells in the sweep's order, keyed by local (row, column),
    and that order's frontier bound B.

    The region is swept in the one of four cell orders whose frontier is
    narrowest: by rows (at most W cells wide, for a bounding box of
    height H and width W), by columns (H), by diagonals r + c, or by
    anti-diagonals r - c.  The diagonal frontier lies on two neighbouring
    diagonals whose cells take disjoint ranges of r - c, each in steps of
    2, so it is at most (span(r - c) + 1) // 2 + 1 cells, where span is
    max - min over the region; the anti-diagonal bound is the same with
    r + c.  Ties keep rows, then columns; an order-n Aztec diamond, 2n
    cells wide, needs n + 1, and an H-by-W box min(H, W).  A region that
    matching_sum would refuse is refused (_route) before any is ordered.
    """
    rows = [r for r, _ in cells]
    columns = [c for _, c in cells]
    differences = [r - c for r, c in cells]
    sums = [r + c for r, c in cells]
    r0, c0 = min(rows), min(columns)
    bounds = (max(columns) - c0 + 1, max(rows) - r0 + 1, *(
        (max(span) - min(span) + 1) // 2 + 1 for span in (differences, sums)))
    order = min(range(4), key=bounds.__getitem__)
    _route(len(cells), bounds[order])
    # Local (row, column) coordinates from (0, 0): columns transpose the
    # region and anti-diagonals mirror it (c -> W - 1 - c), so that rows or
    # diagonals of the local box are swept.
    if order == 1:
        local = {(c - c0, r - r0): (r, c) for (r, c) in cells}
    elif order == 3:
        local = {(r - r0, bounds[0] - 1 - c + c0): (r, c) for (r, c) in cells}
    else:
        local = {(r - r0, c - c0): (r, c) for (r, c) in cells}
    # By diagonals the cells go by ascending r + c and, within a diagonal,
    # ascending r.
    diagonal = None if order < 2 else (lambda cell: (cell[0] + cell[1], cell[0]))
    return {key: local[key] for key in sorted(local, key=diagonal)}, bounds[order]


def _sweep_engine(cells: Region, local: dict[Cell, Cell]) -> tuple[list[Edge], Engine]:
    """The region's edges and the frontier sweep's engine: its steps, one
    (slot, down edge, right edge) per cell of _sweep_cells, each edge an
    index into the edges, -1 where it leaves the region."""
    edges = region_edges(cells)
    index = {edge: i for i, edge in enumerate(edges)}

    def edge(cell: Cell, neighbour: Cell) -> int:
        """The index of the edge between local cells, -1 if it leaves the region."""
        if neighbour not in local:
            return -1
        return index[edge_key(local[cell], local[neighbour])]

    # The frontier holds one bit per column: cell (r, c) hands its slot c
    # to (r + 1, c), and next in slot c + 1 comes (r, c + 1).  By rows that
    # holds in reading order.  By diagonals (r - 1, c + 1) has already
    # handed slot c + 1 to (r, c + 1).  Only in-region cells are steps: a
    # cell outside the region never has its frontier bit set, so sweeping
    # it would copy the states unchanged.
    plan = [(c, edge((r, c), (r + 1, c)), edge((r, c), (r, c + 1))) for r, c in local]
    return edges, functools.partial(_sweep, plan)


def _sweep(plan: list[tuple[int, int, int]], values: list[int]) -> int:
    """The plan's sweep under the int edge values.

    A state is a mask of the frontier slots already covered, mapped to
    the weighted number of partial matchings that reach it; each step
    (slot, down edge, right edge) is one cell."""
    values = [*values, 0]  # index -1, an edge that leaves the region, weighs 0
    states = {0: 1}
    for c, down, right in plan:
        bit = 1 << c
        next_bit = bit << 1
        down, right = values[down], values[right]
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
    return states.get(0, 0)


def check_cells(count: int, bits: int = 1, frontier: int = 64) -> None:
    """Refuse (CellsExceeded) a region of count cells, past what the
    determinant takes in about a second at that frontier bound, when its
    scaled weights reach bits bits (_route asks it at one bit).

    Unweighted entries are +-1, and the minors that the elimination
    carries count matchings, so they stay short: the work is about
    count * frontier**2, refused past 4096**2, where the 64x64 square
    takes 0.7 s (the 10x2000 rectangle, at an eighth of it, 0.5 s).  Past
    a frontier of 64 the bound stays 4096 cells.  Longer entries make
    every minor longer.  Timed on even squares with random weights of
    exactly bits bits (2-CPU host, CPython 3.11), the cell count that
    takes 1 s is about 1450 / 950 / 780 / 570 / 390 at 2 / 4 / 7 / 14 /
    30 bits: cells * sqrt(bits) is near 2048 at each, so a region past
    one bit is refused when cells**2 * bits > MAX_WEIGHTED_WORK = 2048**2.
    Weights p/q with p up to 9 and q up to 4 scale to 7 bits, which
    admits 774 cells: the square of side 26 and the Aztec diamond of
    order 19, not the square of side 28 (1.0 s) or 40 (4.8 s).
    """
    limit = MAX_DETERMINANT_CELLS**2 // min(frontier**2, MAX_DETERMINANT_CELLS)
    if count > limit:
        raise CellsExceeded(
            "region has %d cells; the determinant handles at most %d" % (count, limit)
        )
    if bits > 1 and count * count * bits > MAX_WEIGHTED_WORK:
        raise CellsExceeded(
            "region has %d cells with %d-bit scaled weights; the determinant "
            "handles at most %d at that width"
            % (count, bits, math.isqrt(MAX_WEIGHTED_WORK // bits))
        )


def _kasteleyn_sum(
    cells: Region, weights: Mapping[Edge, Rational] | None = None
) -> Rational:
    """Sum of matching weights as a Kasteleyn determinant (see
    _kasteleyn_engine), prepared afresh on every call (matching_sum keeps
    its preparations)."""
    return _weigh(cells, *_kasteleyn_engine(cells, *_sweep_cells(cells)), weights)


def _kasteleyn_engine(
    cells: Region, local: dict[Cell, Cell], frontier: int
) -> tuple[list[Edge], Engine]:
    """The region's edges and the Kasteleyn determinant's engine.

    The matrix is the black x white biadjacency matrix (black cells have
    r + c even).  Its signs meet Kasteleyn's condition on every face:
    +1 on horizontal edges and, on the vertical edge (r, c)-(r+1, c),
    (-1)^(the number of region cells in row r left of column c).  Why:

    - with (-1)^c on vertical edges every unit face has one minus sign,
      as it must.  A larger face, around missing cells, needs one more
      sign change when it holds an odd number of lattice points (Pick's
      theorem);
    - a ray from a missing cell (r, c0) to the right, toggling every
      vertical edge (r, c')-(r+1, c') with c' > c0, changes the sign of
      the face that holds that cell and of no other bounded face.  Rays
      from every missing cell of the bounding box so change each face once
      per missing cell it holds.  The region cells it holds are those of
      islands, which number an even count whenever a matching exists;
    - the vertical edge at (r, c) is crossed by one ray per missing cell
      of row r in columns left..c-1, which is (c - left) less the region
      cells there.  Its sign (-1)^c * (-1)^that is the rule above times
      (-1)^left, the same for every vertical edge, and a cycle has an even
      number of vertical edges.

    Then det = +-(sum of matching weights), with one sign for every
    weighting of the region (see _kasteleyn).  Rows and columns go in the
    sweep's order, padded to a square by zeros if the colours differ.
    """
    edges = region_edges(cells)
    rows: dict[int, list[int]] = {}
    for r, c in sorted(cells):
        rows.setdefault(r, []).append(c)
    left_of = {(r, c): k for r, columns in rows.items() for k, c in enumerate(columns)}
    signs = [1 if a[0] == b[0] else 1 - 2 * (left_of[a] % 2) for a, b in edges]
    black = [cell for cell in local.values() if sum(cell) % 2 == 0]
    white = [cell for cell in local.values() if sum(cell) % 2]
    index = {cell: i for part in (black, white) for i, cell in enumerate(part)}
    places = [(index[a], index[b]) if sum(a) % 2 == 0 else (index[b], index[a]) for a, b in edges]
    size = max(len(black), len(white))
    return edges, functools.partial(_kasteleyn, size, places, signs, frontier)


def _kasteleyn(
    size: int, places: list[tuple[int, int]], signs: list[int], frontier: int, values: list[int]
) -> int:
    """The sum of matchings under the int edge values, from the signed
    determinant of _kasteleyn_engine, of size rows with edge e at places[e].

    With no negative value the sum is |det|, and otherwise det takes the
    sign of the all-ones determinant (a sum of 0 when that is 0).  A
    region past check_cells's bound on its values' bit length is refused
    (CellsExceeded), unless no matching avoids its zero values: the +-1
    determinant on its nonzero edges, which the bound does not limit,
    tells, and the sum is then 0.  So the Kuo checks of
    random_edge_weights, whose zeros leave no such matching on large Aztec
    diamonds, still run past order 19 (0.3-1.0 s for three weightings at
    orders 20-30).
    """
    try:
        check_cells(2 * size, max(map(abs, values), default=1).bit_length(), frontier)
    except CellsExceeded:
        # The signs restricted to the nonzero values count the matchings
        # that avoid every zero value, on short entries; with none of
        # them the sum is 0.
        if _determinant(size, places, [s if w else 0 for s, w in zip(signs, values)]):
            raise
        return 0
    total = _determinant(size, places, [s * w for s, w in zip(signs, values)])
    if min(values, default=0) >= 0:
        return abs(total)
    ones = _determinant(size, places, signs)
    return total * ((ones > 0) - (ones < 0))


def _determinant(size: int, places: list[tuple[int, int]], entries: list[int]) -> int:
    """Determinant of the size x size int matrix with entries[e] at
    places[e] = (row, column), each place once, and 0 elsewhere, by
    fraction-free (Bareiss) elimination on sparse rows, column by column
    (the Kasteleyn matrix's in the sweep's order, where the fill stays
    about a frontier wide).

    At step k the pivot is, among the rows with an entry in column k, the
    one with the fewest entries; every other such row r becomes
    (p_k * r - r[k] * pivot) / p_(k-1).  A row with no entry in column k
    would only be scaled by p_k / p_(k-1), so it is left as it is and
    remembers the step s it was last brought to: when it is next used,
    each entry v becomes v * p_(k-1) / p_s at once, which is exact.  The
    last pivot is the determinant of the rows in pivot order.
    """
    rows: list[dict[int, int]] = [{} for _ in range(size)]
    holders: list[set[int]] = [set() for _ in range(size)]
    for (i, j), value in zip(places, entries):
        if value:
            rows[i][j] = value
            holders[j].add(i)
    pivots = [1]  # pivots[s] is the pivot of step s - 1; rows start at s = 0
    level = [0] * len(rows)
    order = []
    for k, candidates in enumerate(holders):
        if not candidates:
            return 0
        for i in candidates:
            s = level[i]
            if s != k:
                up, down = pivots[k], pivots[s]
                rows[i] = {j: v * up // down for j, v in rows[i].items()}
                level[i] = k
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        order.append(p)
        pivot = rows[p]
        for j in pivot:
            holders[j].discard(p)
        top, previous = pivot[k], pivots[k]
        for i in list(candidates):
            row = rows[i]
            factor = row.pop(k)
            new = {j: v * top for j, v in row.items()}
            for j, v in pivot.items():
                if j != k:
                    new[j] = new.get(j, 0) - factor * v
            for j, v in list(new.items()):
                if v:
                    new[j] = v // previous
                    if j not in row:
                        holders[j].add(i)
                else:
                    del new[j]
                    if j in row:
                        holders[j].discard(i)
            rows[i] = new
            level[i] = k + 1
        pivots.append(top)
    # The permutation that puts the rows in pivot order has sign
    # (-1)^(n - its number of cycles).
    cycles = 0
    seen: set[int] = set()
    for start in order:
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = order[start]
    return (-1) ** (len(order) - cycles) * pivots[-1]


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
    get = (weights or {}).get

    def recurse(remaining: frozenset[Cell]) -> Rational:
        if not remaining:
            return 1
        r, c = min(remaining)
        total: Rational = 0
        for partner in ((r, c + 1), (r + 1, c)):
            if partner in remaining:
                w = get(edge_key((r, c), partner), 1)
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


def tfk_count(n: int) -> int:
    """Kasteleyn's and Temperley-Fisher's product for the tilings of the
    2n-by-2n square, over 1 <= j, k <= n of x_j + x_k with x_j =
    4 cos^2(pi j / (2n+1)), exactly.  The x_j are the roots of R(x) =
    sum_i (-1)^i C(2n-i, i) x^(n-i), and S(y) = sum_i C(2n-i, i) y^(n-i)
    is the product of y + x_k, so this is Res(R, S), R being monic: the
    determinant of their Sylvester matrix, where row r < n holds R's
    coefficients and row n + r S's, each from column r on."""
    terms = [(r, i, math.comb(2 * n - i, i)) for r in range(n) for i in range(n + 1)]
    places = [(r, r + i) for r, i, _ in terms] + [(n + r, r + i) for r, i, _ in terms]
    entries = [(-1) ** i * a for _, i, a in terms] + [a for *_, a in terms]
    return _determinant(2 * n, places, entries)


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

    @property
    def nonzero(self) -> bool:
        """Whether either side is nonzero: a check of 0 = 0 shows little."""
        return bool(self.lhs or self.rhs)


def kuo_identity_check(
    order: int, weights: Mapping[Edge, Rational] | None = None
) -> KuoCheck:
    """Verify W(G) W(G_center) = w_n w_s W(G_west) W(G_east)
                                + w_w w_e W(G_north) W(G_south)

    on the order-n diamond graph with the given edge weights (missing
    edges weigh 1).  Sub-diamond weights are inherited from the parent,
    and w_n, w_s, w_w, w_e are the four tip edge weights.  Dividing by
    W(G_center) turns this into the determinant recurrence at l = 1.
    An order past matching_sum's bounds is refused before any cell is
    built, and a weighting past them before any sub-diamond is summed.
    """
    if order < 2:
        raise OrderExceeded("the identity needs order at least 2")
    whole, parts, tips, _ = _kuo_regions(order)
    get = (weights or {}).get
    north, south, west, east = (get(edge, 1) for edge in tips)
    total = matching_sum(whole, weights)
    sums = {which: matching_sum(cells, weights) for which, cells in parts}
    lhs = total * sums["center"]
    rhs = (
        north * south * sums["west"] * sums["east"]
        + west * east * sums["north"] * sums["south"]
    )
    return KuoCheck(order=order, lhs=lhs, rhs=rhs)


@functools.lru_cache(maxsize=4)
def _kuo_regions(
    order: int,
) -> tuple[Region, tuple[tuple[str, Region], ...], tuple[Edge, ...], tuple[Edge, ...]]:
    """The order-n diamond, its named sub-diamonds, its north, south, west
    and east tip edges, and its edges in region_edges order: built once
    per order, so that matching_sum meets the same regions every trial."""
    whole = aztec_region(order)
    parts = tuple((which, sub_diamond_cells(order, which)) for which in SUB_DIAMOND_OFFSETS)
    return whole, parts, tuple(tip_edges(order).values()), tuple(region_edges(whole))


# _EDGE_WEIGHTS[p][q - 1] is p/q, every weight random_edge_weights can draw.
_EDGE_WEIGHTS = tuple(tuple(Fraction(p, q) for q in range(1, 5)) for p in range(10))


def random_edge_weights(order: int, rng: Random) -> dict[Edge, Fraction]:
    """Non-negative rational weights p/q, p in 0..9 and q in 1..4, for
    every edge of the order-n diamond, drawn in region_edges order."""
    *_, edges = _kuo_regions(order)
    return {edge: _EDGE_WEIGHTS[rng.randint(0, 9)][rng.randint(1, 4) - 1] for edge in edges}


def kuo_trials(order: int, trials: int, rng: Random) -> list[KuoCheck]:
    """The identity at order unweighted, then under trials weightings
    drawn one after another from rng by random_edge_weights."""
    return [kuo_identity_check(order)] + [
        kuo_identity_check(order, random_edge_weights(order, rng))
        for _ in range(trials)
    ]
