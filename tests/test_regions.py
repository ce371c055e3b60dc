"""Exact regions, rasterization, grids, and associated structures.

The closed-form rasterization is checked against the per-cell trapezoid
integration it replaced, kept below as the oracle.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsig import (
    Band,
    FuzzyGrid,
    GridPartition,
    GridSet,
    RegionSet,
    ValidationError,
    build_associated_set,
    build_uninformative_set,
    equivalent,
    grid_projections,
    rasterize,
    region_area_in_window,
    structure_from_grid,
)
from privsig.catalog import (
    quarter_three_quarter_blocks,
    upper_triangle_grid,
)
from privsig.errors import PrivacyError
from privsig.catalog import conditionally_iid_pair
from conftest import (
    random_private_structure,
    striped_three_state_partition,
)


# ---------------------------------------------------------------------------
# Oracle: per-cell trapezoid integration in Fractions
# ---------------------------------------------------------------------------

def oracle_band_area(band, u0, u1, v0, v1):
    """Exact area of the band inside the absolute window [u0,u1]x[v0,v1].

    After clipping to the band's rectangle and normalizing coordinates, the
    band is ``{(x, y) : frac(x + y) in Y}``; its intersection with an axis-
    aligned window is a union of trapezoids, integrated in closed form: the
    cross-section length of the window at diagonal level ``s = x + y`` is a
    piecewise-linear "tent" and the area is its integral over the translates
    ``Y`` and ``Y + 1``.
    """
    (a1, b1), (a2, b2) = band.rect
    u0, u1 = max(u0, a1), min(u1, b1)
    v0, v1 = max(v0, a2), min(v1, b2)
    if u0 >= u1 or v0 >= v1:
        return F(0)
    w1, w2 = b1 - a1, b2 - a2
    p0, p1 = (u0 - a1) / w1, (u1 - a1) / w1
    q0, q1 = (v0 - a2) / w2, (v1 - a2) / w2

    def tent(sv):
        lo = max(p0, sv - q1)
        hi = min(p1, sv - q0)
        return hi - lo if hi > lo else F(0)

    corners = sorted({p0 + q0, p0 + q1, p1 + q0, p1 + q1})
    area = F(0)
    for lo, hi in band.y_set:
        for shift in (0, 1):
            c, d = lo + shift, hi + shift
            for s0, s1 in zip(corners, corners[1:]):
                e0, e1 = max(s0, c), min(s1, d)
                if e1 > e0:
                    area += (e1 - e0) * (tent(e0) + tent(e1)) / 2
    return area * w1 * w2


def oracle_rasterize(region, r):
    """Cells of the exact resolution-r grid, one oracle integral per cell."""
    cells = np.empty((r, r, 2), dtype=object)
    for i in range(r):
        for j in range(r):
            cells[i, j, 1] = F(0)
    for band in region.bands:
        (a1, b1), (a2, b2) = band.rect
        for i in range(math.floor(a1 * r), math.ceil(b1 * r)):
            for j in range(math.floor(a2 * r), math.ceil(b2 * r)):
                a = oracle_band_area(band, F(i, r), F(i + 1, r), F(j, r), F(j + 1, r))
                if a:
                    cells[i, j, 1] += a * r * r
    for i in range(r):
        for j in range(r):
            cells[i, j, 0] = 1 - cells[i, j, 1]
    return cells


def typed(cells):
    return [(type(v), v) for v in np.asarray(cells).ravel().tolist()]


@st.composite
def regions(draw):
    """Banded rectangles on rational cuts (denominators 2..13) that tile the
    square or leave holes; each band set has 0-3 intervals whose ends are
    multiples of 1/d, with empty intervals and ends at 0 and 1 allowed."""
    def cuts():
        den = draw(st.integers(2, 13))
        inner = draw(st.lists(st.integers(1, den - 1), max_size=3, unique=True))
        return [F(0), *sorted(F(v, den) for v in inner), F(1)]

    xs, ys = cuts(), cuts()
    tiling = draw(st.booleans())
    bands = []
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            if not (tiling or draw(st.booleans())):
                continue
            den = draw(st.integers(2, 13))
            k = draw(st.integers(0, 3))
            ends = sorted(draw(st.lists(st.integers(0, den), min_size=2 * k, max_size=2 * k)))
            y_set = [(F(ends[2 * t], den), F(ends[2 * t + 1], den)) for t in range(k)]
            bands.append(Band(((x0, x1), (y0, y1)), y_set))
    return RegionSet(bands)


window_ends = st.builds(F, st.integers(-7, 21), st.integers(1, 13))


def fuzzy_triangle(resolution):
    """Exact rasterization of the continuous set x1 + x2 > 1."""
    r = resolution
    cells = np.empty((r, r, 2), dtype=object)
    for i in range(r):
        for j in range(r):
            if i + j >= r:
                v = F(1)
            elif i + j == r - 1:
                v = F(1, 2)
            else:
                v = F(0)
            cells[i, j, 1] = v
            cells[i, j, 0] = 1 - v
    return FuzzyGrid(cells)


class TestRegionValidation:
    def test_band_endpoints(self):
        with pytest.raises(ValidationError):
            Band(((0, "3/2"), (0, 1)), ((0, 1),))
        with pytest.raises(ValidationError):
            Band(((0, 1), (0, 1)), ((F(1, 2), F(1, 4)),))

    def test_overlapping_rects_rejected(self):
        b1 = Band(((0, F(1, 2)), (0, 1)), ((0, F(1, 4)),))
        b2 = Band(((F(1, 4), 1), (0, 1)), ((0, F(1, 4)),))
        with pytest.raises(ValidationError):
            RegionSet((b1, b2))

    def test_measure(self):
        region = build_uninformative_set(F(1, 4), [(F(3, 8), F(5, 8))])
        assert region.measure == F(1, 4)

    def test_wrong_total_length(self):
        with pytest.raises(ValidationError):
            build_uninformative_set(F(1, 2), [(0, F(1, 4))])


class TestUninformativeSet:
    @pytest.mark.parametrize("p,y", [
        (F(1, 2), [(0, F(1, 2))]),
        (F(1), [(0, 1)]),
        (F(1, 4), [(F(3, 8), F(5, 8))]),
        (F(2, 3), [(0, F(1, 3)), (F(1, 2), F(5, 6))]),
    ])
    @pytest.mark.parametrize("resolution", [1, 3, 4, 5])
    def test_projections_constant(self, p, y, resolution):
        region = build_uninformative_set(p, y)
        grid = rasterize(region, resolution)
        assert typed(grid.cells) == typed(oracle_rasterize(region, resolution))
        for axis in (0, 1):
            assert grid_projections(grid, axis, state=1) == [p] * resolution

    def test_full_square(self):
        grid = rasterize(build_uninformative_set(1, [(0, 1)]), 3)
        assert all(v == 1 for v in grid.cells[..., 1].ravel())

    def test_hand_cell_values(self):
        # Y = [0, 1/2] at R = 4: the band intersects each cell in a shape
        # whose area is a union of triangles; first column top to bottom.
        grid = rasterize(build_uninformative_set(F(1, 2), [(0, F(1, 2))]), 4)
        col0 = [grid.cells[0, j, 1] for j in range(4)]
        assert col0 == [F(1), F(1, 2), F(0), F(1, 2)]


class TestRasterize:
    def test_mass_equals_measure(self):
        region = build_uninformative_set(F(2, 3), [(0, F(1, 3)), (F(1, 2), F(5, 6))])
        for r in (2, 3, 5):
            grid = rasterize(region, r)
            mass = sum(grid.cells[..., 1].ravel().tolist()) / F(r * r)
            assert mass == region.measure

    def test_subdivision_consistency(self):
        # Parent cell value is the exact mean of its four children.
        region = build_uninformative_set(F(3, 7), [(F(1, 7), F(4, 7))])
        coarse = rasterize(region, 3)
        fine = rasterize(region, 6)
        for i in range(3):
            for j in range(3):
                children = [
                    fine.cells[2 * i + a, 2 * j + b, 1]
                    for a in (0, 1) for b in (0, 1)
                ]
                assert sum(children) / 4 == coarse.cells[i, j, 1]

    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    def test_non_integer_resolution_is_refused(self, bad):
        region = build_uninformative_set(F(1, 2), [(0, F(1, 2))])
        with pytest.raises(ValidationError, match="'resolution'"):
            rasterize(region, bad)

    @settings(max_examples=120, deadline=None)
    @given(regions(), st.integers(1, 12))
    def test_cells_match_the_oracle(self, region, r):
        grid = rasterize(region, r)
        assert typed(grid.cells) == typed(oracle_rasterize(region, r))
        assert sum(grid.cells[..., 1].ravel().tolist()) / (r * r) == region.measure

    def test_large_denominators_match_the_oracle(self):
        # Edges over the prime 2**61 - 1 put the band arithmetic and the cell
        # totals on Python ints.
        big = 2**61 - 1
        a, b = F(big // 3, big), F(2 * big // 3, big)
        region = RegionSet([
            Band(((0, a), (0, 1)), [(F(1, big), F(big // 2, big))]),
            Band(((a, 1), (0, b)), [(0, F(1, 3)), (F(1, 2), 1)]),
        ])
        for r in (1, 3, 5):
            grid = rasterize(region, r)
            assert typed(grid.cells) == typed(oracle_rasterize(region, r))
            assert sum(grid.cells[..., 1].ravel().tolist()) / (r * r) == region.measure
        window = (F(1, 7), F(6, 7), F(1, big), F(5, 7))
        assert region_area_in_window(region, *window) == sum(
            (oracle_band_area(band, *window) for band in region.bands), F(0))

    @settings(max_examples=120, deadline=None)
    @given(regions(), st.lists(window_ends, min_size=4, max_size=4))
    def test_window_area_matches_the_oracle(self, region, window):
        # Windows may be inverted or reach outside the square.
        area = region_area_in_window(region, *window)
        assert type(area) is F
        assert area == sum((oracle_band_area(b, *window) for b in region.bands), F(0))

    def test_window_area_additivity(self):
        region = build_uninformative_set(F(1, 2), [(F(1, 4), F(3, 4))])
        whole = region_area_in_window(region, 0, 1, 0, 1)
        left = region_area_in_window(region, 0, F(1, 3), 0, 1)
        right = region_area_in_window(region, F(1, 3), 1, 0, 1)
        assert whole == left + right == F(1, 2)


class TestGridProjections:
    def test_triangle_grid_set(self):
        g = upper_triangle_grid(8)
        assert grid_projections(g, 0) == [F(i, 8) for i in range(8)]
        assert grid_projections(g, 1) == [F(j, 8) for j in range(8)]

    def test_fuzzy_triangle_matches_identity_posteriors(self):
        g = fuzzy_triangle(8)
        expected = [F(2 * k - 1, 16) for k in range(1, 9)]
        assert grid_projections(g, 0, state=1) == expected
        assert grid_projections(g, 1, state=1) == expected

    def test_full_square_ones(self):
        g = GridSet(np.ones((4, 4), dtype=bool))
        assert grid_projections(g, 0) == [F(1)] * 4

    def test_blocks_pattern(self):
        g = quarter_three_quarter_blocks()
        for axis in (0, 1):
            proj = grid_projections(g, axis, state=1)
            assert sorted(proj) == [F(1, 4), F(1, 4), F(3, 4), F(3, 4)]

    def test_partition_needs_state(self):
        with pytest.raises(ValidationError):
            grid_projections(quarter_three_quarter_blocks(), 0)

    def test_exact_fuzzy_grid_of_ints(self):
        cells = np.empty((2, 2, 2), dtype=object)
        cells[...] = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
        for axis in (0, 1):
            proj = grid_projections(FuzzyGrid(cells), axis, state=0)
            assert proj == [F(1, 2), F(1, 2)]
            assert all(type(v) is F for v in proj)

    def test_mixed_int_and_fraction_grid(self):
        cells = np.empty((2, 2, 2), dtype=object)
        cells[...] = [[[1, 0], [0, 1]], [[0, 1], [F(1, 2), F(1, 2)]]]
        proj = grid_projections(FuzzyGrid(cells), 0, state=1)
        assert proj == [F(1, 2), F(3, 4)]
        assert all(type(v) is F for v in proj)


class TestStructureFromGrid:
    def test_all_one_label_collapses(self):
        s = structure_from_grid(GridPartition(np.zeros((4, 4), dtype=int)))
        assert s.m == 1 and s.prior == (1.0,)

    def test_triangle_prior(self):
        s = structure_from_grid(GridPartition(np.array([[0, 1], [1, 1]])))
        assert s.prior == (0.25, 0.75)

    def test_striped_partition_prior(self):
        s = structure_from_grid(striped_three_state_partition(5, 20), exact=True)
        assert s.prior == (F(1, 4), F(1, 2), F(1, 4))

    def test_fuzzy_grid_structure(self):
        s = structure_from_grid(fuzzy_triangle(4))
        from privsig import is_private_private, is_perfect

        assert is_private_private(s)
        assert not is_perfect(s)


class TestAssociatedSet:
    def test_requires_private(self):
        with pytest.raises(PrivacyError):
            build_associated_set(conditionally_iid_pair(F(3, 4)))

    def test_blocks_round_trip(self):
        blocks = structure_from_grid(quarter_three_quarter_blocks(), exact=True)
        region = build_associated_set(blocks)
        assert region.measure == F(1, 2)
        rebuilt = structure_from_grid(rasterize(region, 4))
        assert equivalent(blocks, rebuilt)

    def test_random_round_trip(self, rng):
        # Axis edges are multiples of 1/4, so rasterizing at the alphabet
        # resolution reproduces the posteriors exactly.
        for _ in range(6):
            s = random_private_structure(rng, m=2, n=2, resolution=4, exact=True)
            if s.m != 2:
                continue
            region = build_associated_set(s)
            rebuilt = structure_from_grid(rasterize(region, 4))
            assert equivalent(s, rebuilt)

    def test_uninformative_second_agent_constant_bands(self):
        # s2 carries nothing: every rectangle in a column has the same
        # band measure.
        s = conditionally_iid_pair(F(3, 4))  # not private; build manually
        from privsig import FiniteStructure

        entries = []
        for v2 in (0, 1):
            entries += [
                (0, (0, v2), F(3, 16)), (0, (1, v2), F(1, 16)),
                (1, (0, v2), F(1, 16)), (1, (1, v2), F(3, 16)),
            ]
        s = FiniteStructure.from_entries(2, (2, 2), entries, exact=True)
        region = build_associated_set(s)
        measures = {}
        for band in region.bands:
            (a1, _), _ = band.rect
            measures.setdefault(a1, set()).add(band.y_measure)
        for column_measures in measures.values():
            assert len(column_measures) == 1
