"""JSON/CSV round-trips and number formatting."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from privsig import AtomicDist, ValidationError, step_cdf
from privsig.catalog import (
    quarter_three_quarter_blocks,
    symmetric_binary_signal,
)
from privsig.serialize import (
    atomic_dist_from_json,
    atomic_dist_to_json,
    dist_to_cdf_csv,
    dumps,
    fuzzy_grid_from_json,
    fuzzy_grid_to_json,
    grid_partition_from_json,
    grid_partition_to_json,
    region_set_from_json,
    region_set_to_json,
    structure_from_json,
    structure_to_json,
)
from privsig.structures import build_uninformative_set, rasterize
from conftest import random_atomic


def test_float_17_digits_round_trip():
    values = [0.1, 1 / 3, 0.44, 2e-300, 123456.789]
    for v in values:
        assert float(json.loads(dumps(v))) == v


def test_rationals_as_strings():
    assert dumps(F(8, 9)) == '"8/9"'
    assert dumps({"p": F(3, 1)}) == '{"p":"3"}'


def test_nonfinite_rejected():
    with pytest.raises(ValidationError):
        dumps(float("nan"))


def test_atomic_dist_round_trip(rng):
    for exact in (False, True):
        for _ in range(10):
            d = random_atomic(rng, exact=exact)
            doc = json.loads(dumps(atomic_dist_to_json(d)))
            back = atomic_dist_from_json(doc)
            assert back.atoms == d.atoms


def test_atomic_dist_schema():
    d = AtomicDist([(0.25, 0.5), (0.75, 0.5)])
    doc = atomic_dist_to_json(d)
    assert doc == {"atoms": [{"x": 0.25, "w": 0.5}, {"x": 0.75, "w": 0.5}]}


def test_missing_field_named():
    with pytest.raises(ValidationError, match="atoms"):
        atomic_dist_from_json({"points": []})


def test_structure_round_trip():
    s = symmetric_binary_signal(F(3, 4))
    doc = json.loads(dumps(structure_to_json(s)))
    back = structure_from_json(doc)
    assert back.m == s.m and back.alphabet_sizes == s.alphabet_sizes
    assert np.array_equal(back.pmf, s.pmf)


def test_grid_partition_round_trip():
    g = quarter_three_quarter_blocks()
    back = grid_partition_from_json(json.loads(dumps(grid_partition_to_json(g))))
    assert np.array_equal(back.cells, g.cells)


def test_region_and_fuzzy_round_trip():
    region = build_uninformative_set(F(1, 4), [(F(3, 8), F(5, 8))])
    back = region_set_from_json(json.loads(dumps(region_set_to_json(region))))
    assert back.bands == region.bands
    grid = rasterize(region, 3)
    gback = fuzzy_grid_from_json(json.loads(dumps(fuzzy_grid_to_json(grid))))
    assert np.array_equal(gback.cells, grid.cells)


def test_exact_fuzzy_round_trip_at_r32():
    region = build_uninformative_set(F(2, 5), [(F(1, 5), F(3, 5))])
    grid = rasterize(region, 32)
    doc = json.loads(dumps(fuzzy_grid_to_json(grid)))
    back = fuzzy_grid_from_json(doc)
    assert back.cells.shape == grid.cells.shape
    assert back.cells.tolist() == grid.cells.tolist()
    assert [type(v) for v in back.cells.flat] == [type(v) for v in grid.cells.flat]
    # Each occurrence of a malformed string is still refused.
    doc["cells"][5][7][1] = "1/0"
    with pytest.raises(ValidationError):
        fuzzy_grid_from_json(doc)


def test_cdf_csv():
    d = AtomicDist([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])
    text = dist_to_cdf_csv(d)
    lines = text.strip().splitlines()
    assert lines[0] == "x,F"
    assert lines[1].startswith("0.25,0.5")
    assert lines[-1].split(",")[1] == "1"
    assert len(lines) == 1 + len(step_cdf(d).breakpoints)
