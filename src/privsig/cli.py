"""Command-line front end: JSON in, JSON (or CSV) out.

Subcommands: conjugate, pareto-check, uniqueness, disclose, feasible,
welfare, bounds, designer, rasterize.  Inputs come from ``--in FILE`` (or
stdin); output goes to stdout.  Exit codes: 0 success, 2 validation error,
3 resource-budget error or memory exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .beliefs import conjugate
from .disclosure import finite_disclosure, simulate_disclosure
from .errors import ResourceBudgetError, ValidationError
from .feasibility_welfare import (
    feasibility_certificate,
    is_feasible_pair,
    maximize_welfare,
)
from .games import designer_optimum, independent_baseline, relaxed_optimum
from .infobounds import (
    check_binary_strengthening,
    check_quadratic_bound,
    check_superadditivity,
)
from .structures import GridPartition, GridSet, rasterize
from .uniqueness import (
    _label_swap,
    additive_set_test,
    is_pareto_optimal_2x2,
    lorentz_uniqueness_2d,
    partition_uniqueness_witness,
    switch_uniqueness_matrix,
)

_BOUND_CHECKS = {
    "superadditivity": check_superadditivity,
    "binary": check_binary_strengthening,
    "quadratic": check_quadratic_bound,
}


def _read_json(path):
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValidationError(f"field 'in': cannot read {path}: {exc.strerror}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"field 'in': malformed JSON at line {exc.lineno}")


def _emit(text):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(doc):
    _emit(serialize.dumps(doc))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="privsig",
        description="Tools for private private information structures.",
    )
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="order/equality tolerance (default 1e-9)")
    parser.add_argument("--resolution", type=int, default=256,
                        help="grid resolution for discretizations (default 256)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for sampling subcommands (default 0)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conjugate", help="conjugate of a belief distribution")
    p.add_argument("--in", dest="infile", default=None)

    p = sub.add_parser("pareto-check", help="conjugacy test for a belief pair")
    p.add_argument("--mu1", required=True)
    p.add_argument("--mu2", required=True)

    p = sub.add_parser("uniqueness", help="set/partition-of-uniqueness tests")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--additive", action="store_true",
                   help="run the additive-set feasibility test instead")
    p.add_argument("--epsilon", type=float, default=None,
                   help="complement margin for --additive (default 1/(4R))")

    p = sub.add_parser("disclose", help="finite optimal private disclosure")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--samples-out", dest="samples_out", default=None)

    p = sub.add_parser("feasible", help="feasibility of a belief pair")
    p.add_argument("--mu1", required=True)
    p.add_argument("--mu2", required=True)
    p.add_argument("--certificate", action="store_true")

    p = sub.add_parser("welfare", help="welfare-maximal frontier structure")
    p.add_argument("--in", dest="infile", default=None)

    p = sub.add_parser("bounds", help="information bound checks")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--ineq", choices=sorted(_BOUND_CHECKS), required=True)

    p = sub.add_parser("designer", help="zero-sum designer optimum")
    p.add_argument("--in", dest="infile", default=None)

    p = sub.add_parser("rasterize", help="exact grid of a banded region")
    p.add_argument("--in", dest="infile", default=None)
    return parser


def _cmd_conjugate(args):
    dist = serialize.atomic_dist_from_json(_read_json(args.infile))
    out = conjugate(dist)
    if args.format == "csv":
        _emit(serialize.dist_to_cdf_csv(out))
    else:
        _emit_json(serialize.atomic_dist_to_json(out))


def _cmd_pareto_check(args):
    mu1 = serialize.atomic_dist_from_json(_read_json(args.mu1))
    mu2 = serialize.atomic_dist_from_json(_read_json(args.mu2))
    _emit_json({"pareto_optimal": is_pareto_optimal_2x2(mu1, mu2, args.tol)})


def _integer_array(doc, key, ndims):
    """``doc[key]`` as an integer array with one of the dimensions ``ndims``;
    ragged nesting, other entries and other dimensions are validation errors."""
    try:
        arr = np.asarray(doc.get(key))
    except ValueError:
        raise ValidationError(f"field '{key}': rows must have equal lengths") from None
    if not np.issubdtype(arr.dtype, np.integer) or arr.ndim not in ndims:
        raise ValidationError(f"field '{key}': expected a nested integer array")
    return arr


def _grid_from_doc(doc):
    cells = _integer_array(doc, "cells", (2, 3))
    if cells.max(initial=0) <= 1:
        return GridSet(cells)
    return GridPartition(cells)


def _cmd_uniqueness(args):
    doc = _read_json(args.infile)
    if "matrix" in doc:
        mat = _integer_array(doc, "matrix", (2,))
        unique = switch_uniqueness_matrix(mat)
        witness = None
        if not unique:
            witness = _label_swap(mat).tolist()
        _emit_json({"unique": unique, "witness": witness})
        return
    if "cells" not in doc:
        raise ValidationError("field 'cells': missing (need a grid or a matrix)")
    grid = _grid_from_doc(doc)
    if args.additive:
        if not isinstance(grid, GridSet):
            raise ValidationError("field 'cells': additive test needs a binary grid")
        h = additive_set_test(grid, args.epsilon)
        _emit_json({"unique": h is not None, "witness": h})
        return
    if isinstance(grid, GridSet):
        _emit_json({"unique": lorentz_uniqueness_2d(grid), "witness": None})
        return
    unique, witness = partition_uniqueness_witness(grid)
    doc = {"unique": unique, "witness": None}
    if witness is not None:
        doc["witness"] = serialize.fuzzy_grid_to_json(witness)
    _emit_json(doc)


def _cmd_disclose(args):
    s = serialize.structure_from_json(_read_json(args.infile))
    result = finite_disclosure(s)
    csv_text = None
    if args.samples:  # 0, the default, draws none; a negative count is refused
        s1, s2star = simulate_disclosure(s, args.samples, args.seed)
        csv_text = serialize.samples_to_csv(s1, s2star)
    if args.format == "csv":
        if csv_text is None:
            raise ValidationError("field 'samples': csv output needs --samples > 0")
        _emit(csv_text)
    else:
        _emit_json(serialize.structure_to_json(result))
    if csv_text is not None and args.samples_out:
        with open(args.samples_out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)


def _cmd_feasible(args):
    mu1 = serialize.atomic_dist_from_json(_read_json(args.mu1))
    mu2 = serialize.atomic_dist_from_json(_read_json(args.mu2))
    feasible = is_feasible_pair(mu1, mu2, args.tol)
    doc = {"feasible": feasible}
    if args.certificate:
        cert = feasibility_certificate(mu1, mu2, args.tol) if feasible else None
        doc["certificate"] = None if cert is None else serialize.structure_to_json(cert)
    _emit_json(doc)


def _cmd_welfare(args):
    doc = _read_json(args.infile)
    for key in ("u1", "u2", "prior"):
        if key not in doc:
            raise ValidationError(f"field '{key}': missing")
    result = maximize_welfare(doc["u1"], doc["u2"], doc["prior"])
    _emit_json(serialize.welfare_result_to_json(result))


def _cmd_bounds(args):
    s = serialize.structure_from_json(_read_json(args.infile))
    report = _BOUND_CHECKS[args.ineq](s)
    _emit_json(serialize.info_report_to_json(report))


def _cmd_designer(args):
    problem = serialize.designer_problem_from_json(_read_json(args.infile))
    kernel, payoff = designer_optimum(problem)
    _emit_json({
        "payoff": serialize.number_to_json(payoff),
        "kernel": [
            [[serialize.number_to_json(v) for v in row] for row in table]
            for table in kernel
        ],
        "baseline": serialize.number_to_json(independent_baseline(problem)),
        "relaxed": serialize.number_to_json(relaxed_optimum(problem)),
    })


def _cmd_rasterize(args):
    region = serialize.region_set_from_json(_read_json(args.infile))
    grid = rasterize(region, args.resolution)
    _emit_json(serialize.fuzzy_grid_to_json(grid))


_COMMANDS = {
    "conjugate": _cmd_conjugate,
    "pareto-check": _cmd_pareto_check,
    "uniqueness": _cmd_uniqueness,
    "disclose": _cmd_disclose,
    "feasible": _cmd_feasible,
    "welfare": _cmd_welfare,
    "bounds": _cmd_bounds,
    "designer": _cmd_designer,
    "rasterize": _cmd_rasterize,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
