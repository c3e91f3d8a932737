"""Tiling counters against each other, closed forms, and the condensation
identity."""

from __future__ import annotations

import math
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdadet import tilings
from lambdadet.condensation import numeric_pyramid
from lambdadet.errors import CellsExceeded, OrderExceeded
from lambdadet.matrices import diamond_even
from lambdadet.tilings import (
    SUB_DIAMOND_OFFSETS,
    KuoCheck,
    aztec_count_formula,
    aztec_region,
    count_tilings,
    diamond_cells,
    diamond_window_region,
    edge_key,
    kuo_identity_check,
    kuo_trials,
    matching_sum,
    matching_sum_brute,
    random_edge_weights,
    rectangle_region,
    region_edges,
    region_from_cells,
    square_region,
    sub_diamond_cells,
    tfk_count,
    tip_edges,
)

SQUARE_COUNTS = {2: 2, 4: 36, 6: 6728, 8: 12988816}


class TestRegions:
    def test_edge_key_is_order_free(self):
        assert edge_key((2, 3), (2, 4)) == edge_key((2, 4), (2, 3)) == ((2, 3), (2, 4))

    def test_rectangle_and_square_sizes(self):
        assert len(rectangle_region(3, 5)) == 15
        assert square_region(4) == rectangle_region(4, 4)
        assert rectangle_region(-5000, -5000) == frozenset()

    def test_regions_past_every_route_are_refused_before_building(self):
        # 2**24 cells, check_cells's limit at frontier 1, is the most that
        # any route admits.
        limit = tilings.MAX_DETERMINANT_CELLS**2
        tilings.check_cells(limit, 1, 1)
        start = time.perf_counter()
        for build, args, count in (
            (rectangle_region, (1, limit + 1), limit + 1),
            (rectangle_region, (4097, 4096), 4097 * 4096),
            (square_region, (10**5,), 10**10),
            (aztec_region, (2897,), 2 * 2897 * 2898),
        ):
            with pytest.raises(CellsExceeded, match="region has %d cells" % count):
                build(*args)
        assert time.perf_counter() - start < 1

    def test_shape_frontier_bounds_are_the_sweeps(self):
        # The constructors ask _route at min(H, W) and n + 1 without
        # building the cells; _sweep_cells finds the same bounds.
        for height in range(1, 21):
            for width in range(1, 21):
                box = frozenset((r, c) for r in range(1, height + 1)
                                for c in range(1, width + 1))
                assert tilings._sweep_cells(box)[1] == min(height, width)
        for n in range(1, 40):
            assert tilings._sweep_cells(diamond_cells(2 * n))[1] == n + 1

    @pytest.mark.parametrize(
        "build, args, refused, engine",
        [
            # 8 x 8192 is 2**16 cells, whose sweep work at frontier 8 is
            # MAX_SWEEP_WORK; one column more takes the determinant.
            (rectangle_region, (8, 8192), False, "_sweep"),
            (rectangle_region, (8, 8193), False, "_kasteleyn"),
            # The determinant admits 4096**2 // min(B, 64)**2 cells: 41943 at
            # B = 20 (a thin box, past the sweep's work), 4096 at B = 64,
            # and 5724 for the order-53 diamond at B = 54, not 5940 for
            # order 54 at B = 55.
            (rectangle_region, (20, 2097), False, "_kasteleyn"),
            (rectangle_region, (20, 2098), True, None),
            (rectangle_region, (64, 64), False, "_kasteleyn"),
            (rectangle_region, (64, 65), True, None),
            (rectangle_region, (300, 300), True, None),
            (aztec_region, (53,), False, "_kasteleyn"),
            (aztec_region, (54,), True, None),
        ],
    )
    def test_shapes_are_refused_exactly_when_their_cells_are(
        self, build, args, refused, engine
    ):
        if build is aztec_region:
            cells = diamond_cells(2 * args[0])
        else:
            height, width = args
            cells = frozenset((r, c) for r in range(1, height + 1)
                              for c in range(1, width + 1))

        def refusal(make, *what):
            try:
                make(*what)
            except CellsExceeded as exc:
                return str(exc)
            return None

        # matching_sum refuses in its region step, before any summing.
        made, summed = refusal(build, *args), refusal(tilings._evaluator, cells)
        try:
            assert made == summed
            assert (made is not None) is refused
            if not refused:
                assert route(cells) is getattr(tilings, engine)
        finally:
            tilings._evaluator.cache_clear()

    def test_an_odd_box_past_the_bound_is_refused_though_it_sums_to_zero(self):
        box = frozenset((r, c) for r in range(1, 66) for c in range(1, 66))
        assert matching_sum(box) == 0
        with pytest.raises(CellsExceeded, match="region has 4225 cells"):
            square_region(65)

    def test_aztec_region_sizes(self):
        assert aztec_region(0) == frozenset()
        for n in range(1, 6):
            assert len(aztec_region(n)) == 2 * n * (n + 1)

    def test_diamond_cells_follow_both_parity_forms(self):
        for size in range(1, 20):
            n, odd = divmod(size, 2)
            span = range(1, size + 1)
            if odd:
                expected = {
                    (r, c) for r in span for c in span
                    if abs(r - n - 1) + abs(c - n - 1) <= n
                }
            else:
                expected = {
                    (r, c) for r in span for c in span
                    if abs(2 * r - 2 * n - 1) + abs(2 * c - 2 * n - 1) <= 2 * n
                }
            assert diamond_cells(size) == expected
            if not odd:
                assert aztec_region(n) == expected
        assert diamond_cells(0) == diamond_cells(-3) == aztec_region(-1) == frozenset()

    def test_aztec_region_order_one_shape(self):
        assert aztec_region(1) == region_from_cells([(1, 1), (1, 2), (2, 1), (2, 2)])

    def test_region_edges_on_a_square(self):
        edges = region_edges(square_region(2))
        assert len(edges) == 4
        assert all(edge == edge_key(*edge) for edge in edges)


class TestCounting:
    def test_small_fixed_counts(self):
        assert count_tilings(frozenset()) == 1
        assert count_tilings(region_from_cells([(1, 1)])) == 0
        assert count_tilings(rectangle_region(1, 2)) == 1
        assert count_tilings(rectangle_region(2, 3)) == 3
        assert count_tilings(square_region(3)) == 0

    def test_square_counts(self):
        for size, expected in SQUARE_COUNTS.items():
            assert count_tilings(square_region(size)) == expected

    def test_larger_squares_pin_the_sweep(self):
        assert count_tilings(square_region(10)) == 258584046368
        assert count_tilings(square_region(12)) == 53060477521960000
        assert count_tilings(square_region(14)) == 112202208776036178000000
        assert count_tilings(square_region(16)) == 2444888770250892795802079170816
        cells = rectangle_region(9, 8)
        ones = {edge: 1 for edge in region_edges(cells)}
        assert count_tilings(cells) == matching_sum(cells, ones) > 0

    def test_aztec_counts_match_formula(self):
        for n in range(0, 6):
            assert count_tilings(aztec_region(n)) == aztec_count_formula(n)

    def test_long_strip_is_a_fibonacci_number(self):
        assert count_tilings(rectangle_region(30, 2)) == 1346269

    def test_sweep_matches_brute_on_random_ragged_regions(self):
        rng = Random(408)
        box = [(r, c) for r in range(1, 5) for c in range(1, 6)]
        for _ in range(30):
            cells = frozenset(cell for cell in box if rng.random() < 0.7)
            assert matching_sum(cells) == matching_sum_brute(cells)

    def test_weighted_sweep_matches_brute(self):
        rng = Random(409)
        cells = rectangle_region(3, 4)
        for _ in range(10):
            weights = {
                edge: Fraction(rng.randint(0, 6), rng.randint(1, 3))
                for edge in region_edges(cells)
            }
            assert matching_sum(cells, weights) == matching_sum_brute(cells, weights)

    def test_zero_weight_disables_an_edge(self):
        cells = square_region(2)
        weights = {edge_key((1, 1), (1, 2)): 0}
        assert matching_sum(cells, weights) == 1
        assert matching_sum(cells, {edge_key((1, 1), (2, 1)): Fraction(5, 2)}) == (
            1 + Fraction(5, 2)
        )

    @given(
        st.sets(
            st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=0, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluators_always_agree(self, cells):
        region = frozenset(cells)
        assert matching_sum(region) == matching_sum_brute(region)


def asymmetric_weights(cells, rng):
    """A distinct rational weight per edge, zeros and negatives included."""
    return {
        edge: Fraction(rng.randint(-4, 7), rng.randint(1, 9))
        for edge in region_edges(cells)
    }


class TestIntegerStateSweep:
    """The sweep clears denominators and carries int states; brute force
    on the same weights is the oracle."""

    @pytest.mark.parametrize("height, width", [(7, 3), (3, 7), (5, 4), (4, 5)])
    def test_ragged_weighted_regions_match_brute(self, height, width):
        rng = Random(412 + height)
        box_edges = region_edges(rectangle_region(height, width))
        nonzero = 0
        for _ in range(12):
            # A union of disjoint random dominoes: ragged, but tileable.
            rng.shuffle(box_edges)
            cells: set = set()
            for a, b in box_edges:
                if a not in cells and b not in cells and rng.random() < 0.8:
                    cells |= {a, b}
            cells = frozenset(cells)
            weights = asymmetric_weights(cells, rng)
            value = matching_sum(cells, weights)
            assert value == matching_sum_brute(cells, weights)
            nonzero += value != 0
        assert nonzero >= 6

    def test_weighted_aztec_five_at_the_brute_cap(self):
        rng = Random(413)
        cells = aztec_region(5)
        assert len(cells) == 60
        weights = {
            edge: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6))
            for edge in region_edges(cells)
        }
        value = matching_sum(cells, weights)
        assert value == matching_sum_brute(cells, weights)
        assert isinstance(value, Fraction) and value.denominator > 1

    def test_edges_outside_the_region_are_ignored(self):
        cells = rectangle_region(4, 3)
        weights = asymmetric_weights(cells, Random(414))
        padded = dict(weights)
        padded[edge_key((5, 1), (5, 2))] = Fraction(1, 10**40 + 7)
        padded[edge_key((1, 3), (1, 4))] = Fraction(3, 2**61 - 1)
        padded[edge_key((4, 3), (5, 3))] = Fraction(-7, 10**30)
        assert matching_sum(cells, padded) == matching_sum(cells, weights)
        assert matching_sum(cells, padded) == matching_sum_brute(cells, weights)

    def test_integral_results_come_back_as_ints(self):
        cells = square_region(2)
        value = matching_sum(cells, {edge_key((1, 1), (1, 2)): Fraction(1, 2)})
        assert value == Fraction(3, 2)
        halves = {edge: Fraction(1, 2) for edge in region_edges(cells)}
        value = matching_sum(cells, halves)
        assert value == Fraction(1, 2) and isinstance(value, Fraction)
        reciprocal = {
            edge_key((1, 1), (1, 2)): Fraction(1, 2),
            edge_key((2, 1), (2, 2)): Fraction(2),
            edge_key((1, 1), (2, 1)): Fraction(3, 2),
            edge_key((1, 2), (2, 2)): Fraction(2, 3),
        }
        value = matching_sum(cells, reciprocal)
        assert value == 2 and type(value) is int

    def test_odd_regions_sum_to_zero(self):
        rng = Random(415)
        for cells in (rectangle_region(3, 3), aztec_region(3) - {(1, 3)}):
            assert len(cells) % 2 == 1
            weights = asymmetric_weights(cells, rng)
            assert matching_sum(cells, weights) == 0
            assert matching_sum(cells) == 0

    @given(
        st.sets(
            st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=0, max_size=12
        ),
        st.fractions(min_value=-4, max_value=4, max_denominator=7),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_every_weight_scales_the_sum(self, cells, factor, data):
        region = frozenset(cells)
        weights = {
            edge: data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
            for edge in region_edges(region)
        }
        scaled = {edge: factor * w for edge, w in weights.items()}
        expected = factor ** (len(region) // 2) * matching_sum_brute(region, weights)
        assert matching_sum(region, scaled) == expected
        assert matching_sum(region, weights) == matching_sum_brute(region, weights)


def reflected(cells, weights, flip):
    """The region and its weights with every cell moved by flip."""
    return (
        frozenset(map(flip, cells)),
        {edge_key(flip(a), flip(b)): w for (a, b), w in weights.items()},
    )


def transposed(cells, weights):
    """The region and its weights reflected in the main diagonal."""
    return reflected(cells, weights, lambda cell: (cell[1], cell[0]))


def mirrored(cells, weights):
    """The region and its weights reflected left to right."""
    right = max(c for _, c in cells) + 1
    return reflected(cells, weights, lambda cell: (cell[0], right - cell[1]))


def band(side, width, anti=False):
    """Cells of the side-by-side square with |r - c| <= width, or with
    |r + c - side - 1| <= width for anti."""
    return frozenset(
        (r, c)
        for r in range(1, side + 1)
        for c in range(1, side + 1)
        if abs(r + c - side - 1 if anti else r - c) <= width
    )


def random_dominoes(cells, rng):
    """A union of disjoint random dominoes inside cells: ragged, but tileable."""
    edges = region_edges(cells)
    rng.shuffle(edges)
    chosen: set = set()
    for a, b in edges:
        if a not in chosen and b not in chosen and rng.random() < 0.8:
            chosen |= {a, b}
    return frozenset(chosen)


# Regions of at most 60 cells whose narrowest sweep order is, in turn,
# rows (frontier bounds: rows 3, columns 8, diagonals 6, anti-diagonals
# 6), columns, diagonals (the order-4 Aztec diamond: 8, 8, 5, 5, a tie
# that keeps diagonals; the ragged |r - c| band: 14, 14, 3, 14) and
# anti-diagonals (the order-4 diamond with a tail at its west tip: 8, 8,
# 6, 5; the ragged |r + c - 15| band: 14, 14, 14, 3).
ORDER_SHAPES = {
    "rows": rectangle_region(8, 3),
    "columns": rectangle_region(3, 8),
    "diagonals": aztec_region(4),
    "diagonal band": random_dominoes(band(14, 2), Random(0)),
    "anti-diagonals": aztec_region(4) | {(6, 1), (7, 1)},
    "anti-diagonal band": random_dominoes(band(14, 2, anti=True), Random(0)),
}


def nonzero_weights(cells, rng):
    """A distinct nonzero rational weight per edge, negatives included."""
    return {
        edge: Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 9))
        for edge in region_edges(cells)
    }


def with_zeros(weights, rng):
    """The same weights with about a third of the edges set to 0."""
    return {edge: 0 if rng.random() < 0.35 else w for edge, w in weights.items()}


def route(cells):
    """The engine that matching_sum's kept region step runs on the cells."""
    _, engine = tilings._evaluator(cells)
    return engine.func


class TestSweepOrders:
    """Each of the four cell orders, held to brute force and to the
    symmetries of the square grid."""

    @pytest.mark.parametrize("name", sorted(ORDER_SHAPES))
    def test_weighted_sum_matches_brute(self, name):
        cells = ORDER_SHAPES[name]
        assert len(cells) <= 60
        rng = Random(sorted(ORDER_SHAPES).index(name) + 416)
        assert matching_sum(cells) == matching_sum_brute(cells) > 0
        for _ in range(3):
            weights = nonzero_weights(cells, rng)
            value = matching_sum(cells, weights)
            assert value == matching_sum_brute(cells, weights) != 0
            zeroed = with_zeros(weights, rng)
            assert matching_sum(cells, zeroed) == matching_sum_brute(cells, zeroed)

    @pytest.mark.parametrize("name", sorted(ORDER_SHAPES))
    def test_transposing_or_mirroring_keeps_the_sum(self, name):
        cells = ORDER_SHAPES[name]
        weights = nonzero_weights(cells, Random(sorted(ORDER_SHAPES).index(name)))
        value = matching_sum(cells, weights)
        for transform in (transposed, mirrored):
            assert matching_sum(*transform(cells, weights)) == value
        assert matching_sum(*transposed(*mirrored(cells, weights))) == value

    def test_regions_only_one_order_fits(self):
        # Each region is more than 30 cells wide in three of the four
        # orders and 3 cells wide in the fourth, which sweeps it.
        def strip(n):  # tilings of the 3-by-2n rectangle
            a, b = 1, 3
            for _ in range(n - 1):
                a, b = b, 4 * b - a
            return b

        assert count_tilings(rectangle_region(60, 3)) == strip(30)
        assert count_tilings(rectangle_region(3, 60)) == strip(30)
        ragged = random_dominoes(band(40, 2), Random(421))
        weights = nonzero_weights(ragged, Random(422))
        value = matching_sum(ragged, weights)
        assert value != 0
        assert matching_sum(*mirrored(ragged, weights)) == value
        assert matching_sum(*transposed(*mirrored(ragged, weights))) == value

    def test_forty_square_band_is_accepted(self):
        # Its bounding box is 40 wide both ways; its diagonal frontier is 3.
        # |r - c| <= 2 has 116 cells of one colour and 78 of the other.
        assert count_tilings(band(40, 2)) == 0
        assert count_tilings(band(40, 2, anti=True)) == 0

    def test_aztec_order_beyond_the_row_frontier(self):
        # 26 cells wide by rows, 14 by diagonals.
        assert count_tilings(aztec_region(13)) == aztec_count_formula(13)

    @pytest.mark.parametrize(
        "step",
        [(0, 1000), (1000, 0), (1000, 1000), (1000, -1000)],
        ids=["row", "column", "diagonal", "anti-diagonal"],
    )
    def test_scattered_pieces_match_brute(self, step):
        # Four ragged pieces, each a step further on: along a row, a column,
        # a diagonal and an anti-diagonal, so each of the four orders sweeps
        # a few dozen cells in a bounding box up to 3000 cells on a side.
        dr, dc = step
        for seed in range(3):
            rng = Random(seed + 423)
            pieces = [random_dominoes(rectangle_region(3, 4), rng) for _ in range(4)]
            cells = frozenset(
                (r + k * dr, c + k * dc) for k, piece in enumerate(pieces) for r, c in piece
            )
            assert len(cells) <= 48
            assert matching_sum(cells) == matching_sum_brute(cells) > 0
            weights = nonzero_weights(cells, rng)
            assert matching_sum(cells, weights) == matching_sum_brute(cells, weights) != 0
            zeroed = with_zeros(weights, rng)
            assert matching_sum(cells, zeroed) == matching_sum_brute(cells, zeroed)


def mirror_flip(height, width, across):
    """Reflection of the height-by-width box across its middle row
    (across="rows") or its middle column (across="columns")."""
    if across == "rows":
        return lambda cell: (height + 1 - cell[0], cell[1])
    return lambda cell: (cell[0], width + 1 - cell[1])


def mirror_dominoes(height, width, across, rng):
    """A seeded union of disjoint dominoes in the box, each with its mirror
    image: ragged, with holes, tileable and mirror-symmetric."""
    flip = mirror_flip(height, width, across)
    edges = region_edges(rectangle_region(height, width))
    rng.shuffle(edges)
    chosen: set = set()
    for a, b in edges:
        pair = {a, b, flip(a), flip(b)}
        if len(pair) != 3 and not pair & chosen and rng.random() < 0.8:
            chosen |= pair
    return frozenset(chosen)


def mirror_scatter(height, width, across, rng):
    """A seeded random subset of the box joined with its mirror image;
    often untileable."""
    flip = mirror_flip(height, width, across)
    cells = {cell for cell in rectangle_region(height, width) if rng.random() < 0.6}
    return frozenset(cells | set(map(flip, cells)))


# (height, width, across): top-bottom mirrors are taller than wide, so they
# are swept by rows; left-right mirrors are wider than tall, so they are
# swept by columns.  Both give even and odd local heights.
MIRROR_BOXES = [
    (6, 3, "rows"), (7, 3, "rows"), (8, 4, "rows"), (9, 5, "rows"),
    (12, 7, "rows"), (13, 8, "rows"),
    (3, 6, "columns"), (3, 7, "columns"), (4, 8, "columns"), (5, 9, "columns"),
    (7, 12, "columns"), (8, 13, "columns"), (1, 10, "columns"), (1, 11, "columns"),
]


class TestMirrorJoin:
    """Mirror-symmetric regions, ragged and with holes on the mirror line
    and across it, held to the sweep, the determinant and, up to 60
    cells, brute force."""

    def check(self, cells):
        """The count of cells, the same by every evaluator."""
        value = tilings._sweep_sum(cells)
        assert tilings._kasteleyn_sum(cells) == value
        if len(cells) <= 60:
            assert matching_sum_brute(cells) == value
        return value

    @pytest.mark.parametrize("height, width, across", MIRROR_BOXES)
    def test_mirror_regions_match_the_full_sweep(self, height, width, across):
        rng = Random(height * 100 + width)
        counts = []
        for _ in range(3):
            for build in (mirror_dominoes, mirror_scatter):
                cells = build(height, width, across, rng)
                counts.append(self.check(cells))
        assert any(counts)

    @pytest.mark.parametrize("height, width, across", MIRROR_BOXES)
    def test_one_cell_off_the_mirror_takes_the_full_sweep(self, height, width, across):
        rng = Random(height * 100 + width + 1)
        flip = mirror_flip(height, width, across)
        cells = mirror_dominoes(height, width, across, rng)
        # A cell off the mirror line, away from the box's edge, so the
        # bounding box keeps its mirror line.
        inner = sorted(
            cell for cell in cells
            if flip(cell) != cell and 1 < cell[0] < height and 1 < cell[1] < width
        ) or sorted(cell for cell in cells if flip(cell) != cell)
        for cell in inner[:: max(1, len(inner) // 3)]:
            assert self.check(cells - {cell}) == 0
        # And one cell added beside the region, breaking the mirror.
        outside = sorted(
            cell for cell in rectangle_region(height, width) - cells if flip(cell) != cell
        )
        for cell in outside[:2]:
            self.check(cells | {cell})

    def test_squares_and_zero_counts(self):
        for side in range(1, 9):
            expected = SQUARE_COUNTS.get(side, 0)
            assert self.check(square_region(side)) == expected
        assert self.check(rectangle_region(3, 5)) == 0
        # Even height, balanced colours, but its first and last rows are
        # 3-cell strips cut off from the rest.
        cut_off = rectangle_region(6, 3) - {(2, c) for c in range(1, 4)} - {
            (5, c) for c in range(1, 4)
        }
        assert self.check(cut_off) == 0
        assert self.check(rectangle_region(10, 3)) == 571
        assert self.check(region_from_cells([(1, 1)])) == 0
        # Holes on the mirror line and across it.
        assert self.check(square_region(5) - {(3, 3)}) == 196
        assert self.check(square_region(6) - {(3, 2), (4, 2)}) > 0
        assert self.check(square_region(6) - {(3, 3), (4, 4)}) == 0
        assert self.check(square_region(6) - {(3, 3), (4, 5)}) > 0


def ring(centre, radius):
    """Cells at king's-move distance exactly radius from centre."""
    (y, x) = centre
    return {
        (r, c)
        for r in range(y - radius, y + radius + 1)
        for c in range(x - radius, x + radius + 1)
        if max(abs(r - y), abs(c - x)) == radius
    }


# Holes that break Kasteleyn's sign condition, alone and nested.  The 7x7
# square less the ring of radius 2 about (4, 4) leaves a one-cell-wide
# frame and a 3x3 island inside a 16-cell hole.
NESTED_HOLES = {
    # One odd hole, a single cell.
    "odd hole": square_region(5) - {(3, 3)},
    "two odd holes in a column": square_region(6) - {(2, 3), (5, 3)},
    # Odd holes in pairs on one row, whose rays to the right cross the
    # same edges.
    "odd holes side by side": square_region(6) - {(3, 2), (3, 4), (5, 3), (5, 5)},
    # A 17-cell hole holding an 8-cell island.
    "odd hole around an island": square_region(7) - ring((4, 4), 2) - {(3, 3)},
    # A 16-cell hole holding an 8-cell island with a one-cell hole of its own.
    "island with an odd hole": square_region(7) - ring((4, 4), 2) - {(4, 4)},
    # Both: a 17-cell hole and the island's one-cell hole.
    "odd hole around an island with an odd hole": (
        square_region(9) - ring((5, 5), 2) - {(5, 8), (5, 5), (1, 1)}
    ),
    # Cells that touch only at corners are one hole, or one with the
    # outside: (2, 5) touches the notch at (1, 4).
    "diagonal hole": square_region(6) - {(2, 2), (3, 3), (4, 4), (5, 2), (2, 5), (1, 4)},
}


def unmended_determinant(cells):
    """|det| with (-1)^c on every vertical edge (r, c)-(r+1, c) and no
    sign change around holes: the tiling count of a region without holes
    and, for some regions with an odd hole, a wrong one."""
    edges, engine = tilings._kasteleyn_engine(cells, *tilings._sweep_cells(cells))
    size, places = engine.args[:2]
    signs = [1 if a[0] == b[0] else (-1) ** (a[1] % 2) for a, b in edges]
    return abs(tilings._determinant(size, places, signs))


def random_region(height, width, rng):
    """A seeded random subset of the box, dense enough to have holes."""
    keep = rng.uniform(0.6, 0.95)
    return frozenset(
        (r, c)
        for r in range(1, height + 1)
        for c in range(1, width + 1)
        if rng.random() < keep
    )


class TestKasteleyn:
    """The determinant held to the sweep and to brute force, each reached
    through its own function."""

    def check(self, cells, weights=None):
        """The determinant's sum, equal to the sweep's and, up to 36 cells,
        to brute force's."""
        value = tilings._kasteleyn_sum(cells, weights)
        assert value == tilings._sweep_sum(cells, weights)
        if len(cells) <= 36:
            assert value == matching_sum_brute(cells, weights)
        return value

    @pytest.mark.parametrize("name", sorted(NESTED_HOLES))
    def test_nested_and_odd_holes(self, name):
        cells = NESTED_HOLES[name]
        assert self.check(cells) > 0
        assert unmended_determinant(cells) != self.check(cells)
        rng = Random(sorted(NESTED_HOLES).index(name) + 430)
        assert self.check(cells, nonzero_weights(cells, rng)) != 0

    def test_seeded_ragged_regions(self):
        rng = Random(431)
        mended = nonzero = 0
        for i in range(400):
            height, width = rng.randint(2, 8), rng.randint(2, 8)
            if i % 2:
                cells = random_dominoes(rectangle_region(height, width), rng)
            else:
                cells = random_region(height, width, rng)
            if not cells:
                continue
            value = self.check(cells)
            nonzero += value != 0
            mended += unmended_determinant(cells) != value
        # Some regions count right only with the sign change around holes.
        assert mended >= 40 and nonzero >= 200

    @pytest.mark.parametrize("kind", ["positive", "zeros", "negatives"])
    def test_seeded_weighted_regions(self, kind):
        rng = Random(432 + ["positive", "zeros", "negatives"].index(kind))
        nonzero = 0
        for _ in range(60):
            cells = random_region(rng.randint(2, 7), rng.randint(2, 7), rng)
            if not cells:
                continue
            weights = nonzero_weights(cells, rng)
            if kind != "negatives":
                weights = {edge: abs(w) for edge, w in weights.items()}
            if kind == "zeros":
                weights = with_zeros(weights, rng)
            nonzero += self.check(cells, weights) != 0
        assert nonzero >= 5

    def test_squares_and_aztec_diamonds(self):
        for side in (10, 12, 14):
            cells = square_region(side)
            assert tilings._kasteleyn_sum(cells) == tilings._sweep_sum(cells)
        assert tilings._kasteleyn_sum(aztec_region(12)) == aztec_count_formula(12)
        assert matching_sum(aztec_region(24)) == 2**300

    def test_fixed_l_condensation_counts_vertical_dominoes(self):
        # The order-n diamond at l = l0 is l0^(n(n-1)/2) times the 2n x 2n
        # square's matching sum with weight sqrt(l0) on vertical edges.
        for n in (8, 9, 10):
            square = square_region(2 * n)
            for l0 in (4, 9):
                root = math.isqrt(l0)
                weights = {(a, b): root for a, b in region_edges(square) if a[1] == b[1]}
                expected = l0 ** (n * (n - 1) // 2) * tilings._kasteleyn_sum(square, weights)
                assert numeric_pyramid(diamond_even(n), l0).top == expected


# Thin boxes whose narrowest sweep order is, in turn, rows, columns,
# diagonals r + c and anti-diagonals r - c, each with its sort key.
THIN_BOXES = {
    "rows": (rectangle_region(12, 3), lambda cell: cell),
    "columns": (rectangle_region(3, 12), lambda cell: (cell[1], cell[0])),
    "diagonals": (band(10, 1), lambda cell: (cell[0] + cell[1], cell[0])),
    "anti-diagonals": (band(10, 1, anti=True), lambda cell: (cell[0] - cell[1], cell[0])),
}


class TestDeterminantInEachOrder:
    """With the sweep's work bound at 0 every region takes the determinant,
    which eliminates in the sweep's order: held to the sweep and, up to 36
    cells, to brute force."""

    @pytest.fixture(autouse=True)
    def no_sweep_work(self, monkeypatch):
        monkeypatch.setattr(tilings, "MAX_SWEEP_WORK", 0)
        tilings._evaluator.cache_clear()
        yield
        tilings._evaluator.cache_clear()

    @pytest.mark.parametrize("name", sorted(THIN_BOXES))
    def test_thin_regions_match_the_sweep(self, name):
        box, key = THIN_BOXES[name]
        rng = Random(sorted(THIN_BOXES).index(name) + 2500)
        for _ in range(4):
            cells = random_dominoes(box, rng)
            ordered = tilings._sweep_cells(cells)[0].values()
            assert list(ordered) == sorted(cells, key=key)
            assert route(cells) is tilings._kasteleyn
            weights = nonzero_weights(cells, rng)
            for case in (None, weights, with_zeros(weights, rng)):
                expected = tilings._sweep_sum(cells, case)
                if len(cells) <= 36:
                    assert expected == matching_sum_brute(cells, case)
                assert matching_sum(cells, case) == expected
            assert matching_sum(cells) > 0


class TestPreparedRegions:
    """matching_sum's kept region steps, held to a fresh sweep and to brute
    force while the weights change between calls."""

    @pytest.mark.parametrize(
        "cells, engine",
        [
            (random_dominoes(rectangle_region(6, 6), Random(424)), "_sweep"),
            (square_region(10), "_kasteleyn"),
        ],
        ids=["swept", "determinant"],
    )
    def test_weights_change_between_calls(self, cells, engine):
        assert route(cells) is getattr(tilings, engine)
        rng = Random(425)
        first = nonzero_weights(cells, rng)
        second = with_zeros(nonzero_weights(cells, rng), rng)
        assert 0 in second.values() and min(second.values()) < 0
        for weights in (first, None, second, first):
            expected = tilings._sweep_sum(cells, weights)
            if len(cells) <= 36:
                assert expected == matching_sum_brute(cells, weights)
            assert matching_sum(cells, weights) == expected

    @pytest.mark.parametrize(
        "cells",
        [random_dominoes(rectangle_region(6, 6), Random(427)), aztec_region(10)],
        ids=["swept", "determinant"],
    )
    def test_other_weights_reuse_the_region_step(self, cells, monkeypatch):
        names = ("region_edges", "_sweep_cells")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, name=name, step=getattr(tilings, name)):
                calls[name] += 1
                return step(*args)

            monkeypatch.setattr(tilings, name, counted)
        tilings._evaluator.cache_clear()
        rng = Random(428)
        first, second = nonzero_weights(cells, rng), nonzero_weights(cells, rng)
        matching_sum(cells, first)
        assert min(calls.values()) >= 1
        calls.update(dict.fromkeys(names, 0))
        value = matching_sum(cells, second)
        assert calls == dict.fromkeys(names, 0)
        assert value == tilings._sweep_sum(cells, second) != matching_sum(cells, first)

    def test_equal_regions_share_their_step(self):
        cells = ORDER_SHAPES["diagonal band"]
        copy = frozenset(sorted(cells))
        assert copy is not cells
        weights = nonzero_weights(cells, Random(426))
        expected = matching_sum_brute(cells, weights)
        assert matching_sum(cells, weights) == matching_sum(copy, weights) == expected
        assert matching_sum(set(cells), weights) == expected
        assert tilings._evaluator(copy) is tilings._evaluator(cells)

    def test_the_kept_steps_stay_bounded(self):
        kept = tilings._evaluator.cache_info().maxsize
        assert kept is not None
        previous, count = 1, 1  # tilings of the 2-by-0 and 2-by-1 strips
        for width in range(2, 3 * kept):
            previous, count = count, count + previous
            assert count_tilings(rectangle_region(2, width)) == count
            assert tilings._evaluator.cache_info().currsize <= kept


class TestWindowRegions:
    def test_trimmed_diamond_is_a_translated_square(self):
        for n in range(1, 5):
            shift = n - 1
            translated = frozenset(
                (r + shift, c + shift) for (r, c) in square_region(2 * n)
            )
            assert diamond_window_region(n, 2 * n, 1, 1) == translated

    def test_trimmed_diamond_counts_match_squares(self):
        for n in range(1, 4):
            region = diamond_window_region(n, 2 * n, 1, 1)
            assert count_tilings(region) == SQUARE_COUNTS[2 * n]

    def test_corner_trimmed_square_fixture(self):
        corners = {(1, 1), (1, 2), (2, 1), (1, 3), (1, 4), (2, 4)}
        region = square_region(4) - corners
        assert count_tilings(region) == 6
        assert matching_sum_brute(region) == 6

    def test_window_regions_reproduce_order_two_pyramid(self):
        pyramid = numeric_pyramid(diamond_even(2), 1)
        for k in range(1, 5):
            span = 4 - k + 1
            for i in range(1, span + 1):
                for j in range(1, span + 1):
                    region = diamond_window_region(2, k, i, j)
                    expected = 0 if region is None else count_tilings(region)
                    assert pyramid.value(k, i, j) == expected

    def test_window_region_spot_checks_order_three(self):
        pyramid = numeric_pyramid(diamond_even(3), 1)
        for (k, i, j) in [(6, 1, 1), (5, 2, 2), (4, 1, 3), (3, 2, 1), (2, 5, 5)]:
            region = diamond_window_region(3, k, i, j)
            expected = 0 if region is None else count_tilings(region)
            assert pyramid.value(k, i, j) == expected

    def test_full_window_trims_to_the_square(self):
        for n in (2, 3):
            shift = n - 1
            translated = frozenset(
                (r + shift, c + shift) for (r, c) in square_region(2 * n)
            )
            assert diamond_window_region(n, 2 * n, 1, 1) == translated

    def test_swallowed_window_returns_none(self):
        assert diamond_window_region(2, 1, 1, 1) is None
        assert diamond_window_region(3, 2, 1, 1) is None


class TestCondensationIdentity:
    def test_sub_diamonds_nest_in_the_parent(self):
        for n in (2, 3, 4):
            parent = aztec_region(n)
            for which in SUB_DIAMOND_OFFSETS:
                assert sub_diamond_cells(n, which) <= parent

    def test_tip_edges_are_graph_edges(self):
        for n in (2, 3):
            edges = set(region_edges(aztec_region(n)))
            assert set(tip_edges(n).values()) <= edges

    def test_identity_on_unweighted_diamonds(self):
        for n in range(2, 6):
            check = kuo_identity_check(n)
            assert check.holds
            assert check.lhs == aztec_count_formula(n) * aztec_count_formula(n - 2)

    def test_identity_on_random_weights(self):
        rng = Random(410)
        for n in (2, 3, 4):
            for _ in range(10):
                check = kuo_identity_check(n, random_edge_weights(n, rng))
                assert check.holds

    def test_identity_components_against_brute_force(self):
        rng = Random(411)
        weights = random_edge_weights(2, rng)
        for which in SUB_DIAMOND_OFFSETS:
            cells = sub_diamond_cells(2, which)
            assert matching_sum(cells, weights) == matching_sum_brute(cells, weights)

    def test_edge_weights_are_the_fractions_of_the_stream(self):
        rng, ref = Random(413), Random(413)
        for order in (2, 5):
            weights = random_edge_weights(order, rng)
            assert list(weights) == list(region_edges(aztec_region(order)))
            expected = [Fraction(ref.randint(0, 9), ref.randint(1, 4)) for _ in weights]
            assert list(weights.values()) == expected
        assert rng.random() == ref.random()

    def test_trials_draw_their_weights_in_order(self):
        # Up to order 8 every sum is swept; at order 9 the whole diamond
        # goes to the determinant and its sub-diamonds stay on the sweep.
        for order, whole_route in ((3, "_sweep"), (8, "_sweep"), (9, "_kasteleyn")):
            checks = kuo_trials(order, 4, Random(412))
            rng = Random(412)
            assert checks == [kuo_identity_check(order)] + [
                kuo_identity_check(order, random_edge_weights(order, rng)) for _ in range(4)
            ]
            assert all(check.holds for check in checks)
            assert route(aztec_region(order)) is getattr(tilings, whole_route)
            for which in SUB_DIAMOND_OFFSETS:
                assert route(sub_diamond_cells(order, which)) is tilings._sweep
        assert kuo_trials(2, 0, rng) == [kuo_identity_check(2)]

    def test_holds_flag_reports_disagreement(self):
        assert not KuoCheck(order=2, lhs=1, rhs=2).holds


def cosine_product(n):
    """Kasteleyn's and Temperley-Fisher's product for the 2n x 2n square,
    in floats: over 1 <= j, k <= n of 4 cos^2(pi j / (2n+1)) + 4 cos^2(pi k / (2n+1))."""
    return math.prod(
        4 * math.cos(math.pi * j / (2 * n + 1)) ** 2
        + 4 * math.cos(math.pi * k / (2 * n + 1)) ** 2
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    )


class TestTrigonometricProduct:
    def test_rounds_to_exact_small_counts(self):
        for n, exact in ((1, 2), (2, 36), (3, 6728), (4, 12988816)):
            assert round(tfk_count(n)) == exact

    def test_relative_error_stays_tiny(self):
        for n, exact in ((5, 258584046368), (6, 53060477521960000)):
            assert abs(tfk_count(n) - exact) / exact < 1e-9

    def test_is_the_exact_tiling_count(self):
        for n in range(17):
            value = tfk_count(n)
            assert type(value) is int
            assert value == count_tilings(square_region(2 * n))

    def test_is_the_cosine_product(self):
        # The exact product's only remaining link to trigonometry.
        for n in range(9):
            assert abs(tfk_count(n) / cosine_product(n) - 1) < 1e-9


def fraction_determinant(matrix):
    """Determinant by Gaussian elimination over Fractions, with row swaps."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


def sparse_determinant(matrix, rng=None):
    """tilings._determinant of a dense matrix given by its nonzero places,
    in a shuffled order when rng is given."""
    nonzero = [((i, j), v) for i, row in enumerate(matrix) for j, v in enumerate(row) if v]
    if rng is not None:
        rng.shuffle(nonzero)
    places = [place for place, _ in nonzero]
    return tilings._determinant(len(matrix), places, [v for _, v in nonzero])


class TestSparseDeterminant:
    """The sparse Bareiss determinant held to Fraction elimination."""

    def test_seeded_matrices(self):
        rng = Random(290)
        singular = 0
        for _ in range(400):
            size = rng.randint(1, 7)
            density = rng.uniform(0.2, 1)
            matrix = [
                [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(size)]
                for _ in range(size)
            ]
            if size > 2 and rng.random() < 0.25:
                # The last row a combination of the first two: singular.
                matrix[-1] = [2 * a - b for a, b in zip(matrix[0], matrix[1])]
            expected = fraction_determinant(matrix)
            singular += expected == 0
            assert sparse_determinant(matrix, rng) == expected
        assert singular >= 60

    def test_zero_pivots_and_the_empty_matrix(self):
        assert tilings._determinant(0, [], []) == 1
        assert sparse_determinant([[0, 2], [3, 4]]) == -6
        assert sparse_determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert sparse_determinant([[0, 5, 1], [0, 3, 2], [4, 1, 1]]) == 28
        assert sparse_determinant([[1, 2], [2, 4]]) == 0
        assert sparse_determinant([[0, 1], [0, 7]]) == 0


class TestGuards:
    def test_wide_region_is_swept_transposed(self):
        assert matching_sum(rectangle_region(2, 30)) == 1346269

    def test_region_past_the_cell_bound_is_refused(self):
        # 66 * 66 = 4356 cells, past MAX_DETERMINANT_CELLS, and 66 wide
        # every way, past what the sweep takes: refused before any matrix
        # is built.
        assert tilings.MAX_DETERMINANT_CELLS < 66 * 66
        start = time.perf_counter()
        with pytest.raises(CellsExceeded, match="region has 4356 cells"):
            matching_sum(square_region(66))
        assert time.perf_counter() - start < 1

    def test_weighted_region_past_the_bit_bound_is_refused(self):
        # Weights p/q, p up to 9 and q up to 4, scale to 7-bit ints here:
        # 1600**2 * 7 is past 2048**2, so the square of side 40 is refused
        # before elimination, where unweighted it is counted.
        rng = Random(40)
        square = square_region(40)
        weights = {edge: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                   for edge in region_edges(square)}
        start = time.perf_counter()
        with pytest.raises(CellsExceeded, match="1600 cells with 7-bit scaled weights; "
                                                "the determinant handles at most 774"):
            matching_sum(square, weights)
        assert time.perf_counter() - start < 1
        assert matching_sum(square) == tilings._kasteleyn_sum(square)
        # The bound is cells**2 * bits <= 2048**2 past one bit: at 7 bits the
        # square of side 26 and the order-19 Aztec diamond are admitted, the
        # square of side 28 is not; +-1 entries keep the 4096-cell bound.
        for cells, bits, admitted in ((26 * 26, 7, True), (2 * 19 * 20, 7, True),
                                      (28 * 28, 7, False), (4096, 1, True),
                                      (1448, 2, True), (1449, 2, False)):
            if admitted:
                tilings.check_cells(cells, bits)
            else:
                with pytest.raises(CellsExceeded):
                    tilings.check_cells(cells, bits)

    def test_weighted_region_with_no_matching_past_the_bound_sums_to_zero(self):
        # Zero weights on both edges of the corner cell leave no matching,
        # so the sum is 0 however long the other weights are; restoring
        # one of them brings the refusal back.
        rng = Random(30)
        square = square_region(30)
        weights = {edge: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                   for edge in region_edges(square)}
        corner = [edge for edge in weights if (1, 1) in edge]
        assert len(corner) == 2
        for edge in corner:
            weights[edge] = Fraction(0)
        assert matching_sum(square, weights) == 0
        weights[corner[0]] = Fraction(9, 4)
        with pytest.raises(CellsExceeded, match="900 cells with 7-bit"):
            matching_sum(square, weights)

    def test_weighted_kuo_sums_past_the_sweep_are_admitted(self):
        # Order 19 is the largest diamond whose 7-bit weighted sum the
        # bound admits; every weighting is summed by the determinant.
        rng = Random(19)
        whole = aztec_region(19)
        assert route(whole) is tilings._kasteleyn
        weights = {edge: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                   for edge in region_edges(whole)}
        assert matching_sum(whole, weights) > 0
        # Past it, random_edge_weights' zeros leave no matching of the
        # diamond or its sub-diamonds: the sums are admitted, but both
        # sides are 0, so the weighted identity checks only 0 = 0.
        plain, *weighted = kuo_trials(24, 2, Random(24))
        assert plain.holds and plain.nonzero
        assert all(check.holds and (check.lhs, check.rhs) == (0, 0) for check in weighted)

    def test_brute_force_cell_cap(self):
        with pytest.raises(OrderExceeded):
            matching_sum_brute(aztec_region(6))

    def test_identity_needs_order_two(self):
        with pytest.raises(OrderExceeded):
            kuo_identity_check(1)
