"""JSON and CSV forms of the package's value types.

Floats are emitted with 17 significant digits (lossless round-trip) and
exact rationals as ``"p/q"`` strings, so every document the CLI writes
re-parses to an identical in-memory object.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from ._num import number_from_json, number_to_json
from .beliefs import AtomicDist, StepCDF, step_cdf
from .errors import ValidationError
from .feasibility_welfare import WelfareResult
from .games import DesignerProblem, _table
from .infobounds import InfoReport
from .structures import (
    Band,
    FiniteStructure,
    FuzzyGrid,
    GridPartition,
    GridSet,
    RegionSet,
)


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits."""
    parts = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValidationError("cannot serialize non-finite numbers")
        parts.append(f"{obj:.17g}")
    elif isinstance(obj, Fraction):
        parts.append(json.dumps(number_to_json(obj)))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _write(val, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(",")
            _write(val, parts)
        parts.append("]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _field(doc, name, kind=None):
    if not isinstance(doc, dict) or name not in doc:
        raise ValidationError(f"field '{name}': missing")
    value = doc[name]
    if kind is not None and (
        not isinstance(value, kind) or (kind is int and isinstance(value, bool))
    ):
        raise ValidationError(f"field '{name}': wrong type")
    return value


def _number(value, name):
    """:func:`number_from_json` of ``value``; an error names the field."""
    try:
        return number_from_json(value)
    except ValidationError as exc:
        raise ValidationError(f"field '{name}': {exc}") from None


# -- AtomicDist --------------------------------------------------------------

def atomic_dist_to_json(dist: AtomicDist) -> dict:
    return {"atoms": [
        {"x": number_to_json(x), "w": number_to_json(w)} for x, w in dist.atoms
    ]}


def atomic_dist_from_json(doc) -> AtomicDist:
    atoms = _field(doc, "atoms", list)
    pairs = []
    for entry in atoms:
        pairs.append((_number(_field(entry, "x"), "x"), _number(_field(entry, "w"), "w")))
    return AtomicDist(pairs)


def step_cdf_to_csv(cdf: StepCDF) -> str:
    lines = ["x,F"]
    for x, v in cdf.breakpoints:
        lines.append(f"{_csv_num(x)},{_csv_num(v)}")
    return "\n".join(lines) + "\n"


def _csv_num(v):
    if isinstance(v, Fraction):
        return f"{float(v):.17g}"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def dist_to_cdf_csv(dist: AtomicDist) -> str:
    return step_cdf_to_csv(step_cdf(dist))


# -- FiniteStructure ---------------------------------------------------------

def structure_to_json(s: FiniteStructure) -> dict:
    entries = []
    for idx, p in np.ndenumerate(s.pmf):
        if p == 0:
            continue
        entries.append({
            "state": int(idx[0]),
            "signals": [int(v) for v in idx[1:]],
            "p": number_to_json(p),
        })
    return {
        "m": s.m,
        "n": s.n,
        "alphabets": [int(a) for a in s.alphabet_sizes],
        "pmf": entries,
    }


def structure_from_json(doc) -> FiniteStructure:
    m = _field(doc, "m", int)
    n = _field(doc, "n", int)
    alphabets = _field(doc, "alphabets", list)
    if len(alphabets) != n or not all(type(a) is int and a > 0 for a in alphabets):
        raise ValidationError("field 'alphabets': expected one positive integer size per agent")
    raw = _field(doc, "pmf", list)
    entries = []
    exact = False
    for entry in raw:
        p = _number(_field(entry, "p"), "p")
        exact = exact or isinstance(p, Fraction)
        entries.append((
            _field(entry, "state", int),
            tuple(_field(entry, "signals", list)),
            p,
        ))
    return FiniteStructure.from_entries(m, tuple(alphabets), entries, exact=exact)


# -- Grids -------------------------------------------------------------------

def grid_set_to_json(g: GridSet) -> dict:
    return {
        "n": g.n,
        "R": g.resolution,
        "cells": g.cells.astype(int).tolist(),
    }


def grid_set_from_json(doc) -> GridSet:
    return GridSet(np.asarray(_field(doc, "cells", list)))


def grid_partition_to_json(g: GridPartition) -> dict:
    return {"n": g.n, "R": g.resolution, "cells": g.cells.tolist()}


def grid_partition_from_json(doc) -> GridPartition:
    return GridPartition(np.asarray(_field(doc, "cells", list)))


def fuzzy_grid_to_json(g: FuzzyGrid) -> dict:
    if g.n != 2:
        raise ValidationError("fuzzy grid JSON supports n = 2")
    cells = [
        [[number_to_json(v) for v in g.cells[i, j]] for j in range(g.resolution)]
        for i in range(g.resolution)
    ]
    return {"n": g.n, "R": g.resolution, "m": g.m, "cells": cells}


def fuzzy_grid_from_json(doc) -> FuzzyGrid:
    raw = _field(doc, "cells", list)
    exact = any(
        isinstance(v, str)
        for row in raw for cell in row for v in cell
    )
    if exact:
        r = len(raw)
        m = len(raw[0][0])
        arr = np.empty((r, r, m), dtype=object)
        # A rasterized grid repeats few distinct strings: parse each once.
        parsed = {}
        for i, row in enumerate(raw):
            for j, cell in enumerate(row):
                for k, v in enumerate(cell):
                    if isinstance(v, str):
                        if v not in parsed:
                            parsed[v] = number_from_json(v)
                        arr[i, j, k] = parsed[v]
                    else:
                        arr[i, j, k] = number_from_json(v)
        return FuzzyGrid(arr)
    return FuzzyGrid(np.asarray(raw, dtype=float))


# -- Regions -----------------------------------------------------------------

def region_set_to_json(r: RegionSet) -> dict:
    bands = []
    for band in r.bands:
        (a1, b1), (a2, b2) = band.rect
        bands.append({
            "rect": [
                [number_to_json(a1), number_to_json(b1)],
                [number_to_json(a2), number_to_json(b2)],
            ],
            "y": [[number_to_json(lo), number_to_json(hi)] for lo, hi in band.y_set],
        })
    return {"n": 2, "bands": bands}


def _pairs(entry, name, count=None):
    """``entry[name]`` as a list of ``[lo, hi]`` pairs, ``count`` of them if given."""
    value = _field(entry, name, list)
    if not all(isinstance(p, list) and len(p) == 2 for p in value) or (
        count is not None and len(value) != count
    ):
        raise ValidationError(f"field '{name}': expected a list of [lo, hi] pairs")
    return value


def region_set_from_json(doc) -> RegionSet:
    shapes = [(_pairs(e, "rect", 2), _pairs(e, "y")) for e in _field(doc, "bands", list)]
    try:
        return RegionSet(tuple(Band(rect, y) for rect, y in shapes))
    except ValidationError as exc:
        raise ValidationError(f"field 'bands': {exc}") from None


# -- Reports -----------------------------------------------------------------

def info_report_to_json(report: InfoReport) -> dict:
    doc = {
        "per_agent": list(report.per_agent),
        "joint": report.joint,
        "bound": report.bound,
        "slack": report.slack,
        "inequality": report.inequality,
        "units": report.units,
    }
    if report.per_state_slacks is not None:
        doc["per_state_slacks"] = list(report.per_state_slacks)
    return doc


def welfare_result_to_json(result: WelfareResult) -> dict:
    return {
        "alpha": result.alpha,
        "beta": result.beta,
        "welfare": result.welfare,
        "mu1": atomic_dist_to_json(result.mu1),
        "mu2": atomic_dist_to_json(result.mu2),
        "reveal_one": result.reveal_one,
    }


def designer_problem_from_json(doc) -> DesignerProblem:
    game = _table(_field(doc, "u", list), "u")
    u_d = _field(doc, "u_d", dict)
    prior = [_number(v, "prior") for v in _field(doc, "prior", list)]
    tables = []
    for k in range(len(prior)):
        key = str(k)
        if key not in u_d:
            raise ValidationError(f"field 'u_d': missing table for state {k}")
        tables.append(_table(u_d[key], "u_d"))
    equilibrium = None
    if "equilibrium" in doc:
        eq = doc["equilibrium"]
        equilibrium = (
            [_number(v, "strategy1") for v in _field(eq, "strategy1", list)],
            [_number(v, "strategy2") for v in _field(eq, "strategy2", list)],
        )
    return DesignerProblem(game, tables, prior, equilibrium)


def samples_to_csv(s1_values, disclosure_values) -> str:
    lines = ["s1,s2star"]
    for v, x in zip(s1_values, disclosure_values):
        lines.append(f"{int(v)},{float(x):.17g}")
    return "\n".join(lines) + "\n"
