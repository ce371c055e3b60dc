"""End-to-end CLI: dispatch, schemas, exit codes, determinism."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from privsig.cli import run
from privsig.serialize import dumps, structure_to_json
from privsig.catalog import (
    quarter_three_quarter_blocks,
    rock_paper_scissors_problem,
    symmetric_binary_signal,
)
from privsig.structures import structure_from_grid


@pytest.fixture
def write(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(dumps(doc) if not isinstance(doc, str) else doc)
        return str(path)

    return _write


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIG_DIST = {"atoms": [
    {"x": "1/10", "w": "1/5"}, {"x": "2/5", "w": "3/10"}, {"x": "3/5", "w": "1/2"},
]}
QUARTER_DIST = {"atoms": [{"x": 0.25, "w": 0.5}, {"x": 0.75, "w": 0.5}]}


def test_conjugate(write, capsys):
    code, out, _ = run_cli(capsys, ["conjugate", "--in", write("d.json", FIG_DIST)])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"atoms": [
        {"x": "0", "w": "2/5"}, {"x": "1/2", "w": "1/5"},
        {"x": "4/5", "w": "3/10"}, {"x": "1", "w": "1/10"},
    ]}


def test_conjugate_csv(write, capsys):
    code, out, _ = run_cli(
        capsys, ["--format", "csv", "conjugate", "--in", write("d.json", FIG_DIST)]
    )
    assert code == 0
    assert out.splitlines()[0] == "x,F"


def test_pareto_check(write, capsys):
    path = write("q.json", QUARTER_DIST)
    code, out, _ = run_cli(capsys, ["pareto-check", "--mu1", path, "--mu2", path])
    assert code == 0
    assert json.loads(out) == {"pareto_optimal": False}


QUARTER_CONJUGATE = {"atoms": [{"x": 0, "w": 0.25}, {"x": 0.5, "w": 0.5}, {"x": 1, "w": 0.25}]}


@pytest.mark.parametrize("tol, command", [
    ("nan", "pareto-check"), ("inf", "pareto-check"), ("-1", "feasible"), ("nan", "feasible"),
])
def test_bad_tol_exits_2(write, capsys, tol, command):
    mu1, mu2 = write("q.json", QUARTER_DIST), write("c.json", QUARTER_CONJUGATE)
    code, out, err = run_cli(capsys, [f"--tol={tol}", command, "--mu1", mu1, "--mu2", mu2])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'tol'" in err
    assert len(err.strip().splitlines()) == 1


def test_uniqueness_matrix_with_witness(write, capsys):
    path = write("m.json", {"matrix": [[1, 0], [0, 1]]})
    code, out, _ = run_cli(capsys, ["uniqueness", "--in", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["unique"] is False
    assert doc["witness"] == [[0, 1], [1, 0]]


def test_uniqueness_grid_and_partition(write, capsys):
    grid = {"n": 2, "R": 4, "cells": [[0, 0, 0, 0], [0, 0, 0, 1],
                                      [0, 0, 1, 1], [0, 1, 1, 1]]}
    code, out, _ = run_cli(capsys, ["uniqueness", "--in", write("g.json", grid)])
    assert code == 0 and json.loads(out)["unique"] is True
    part = {"n": 2, "R": 2, "cells": [[0, 1], [1, 2]]}
    code, out, _ = run_cli(capsys, ["uniqueness", "--in", write("p.json", part)])
    assert code == 0
    assert json.loads(out)["unique"] is True


def test_uniqueness_additive(write, capsys):
    grid = {"cells": [[0, 1], [1, 1]]}
    code, out, _ = run_cli(
        capsys, ["uniqueness", "--in", write("g.json", grid), "--additive"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["unique"] is True and len(doc["witness"]) == 2


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_uniqueness_additive_nonfinite_epsilon(write, capsys, epsilon):
    grid = {"cells": [[0, 1], [1, 1]]}
    code, out, err = run_cli(capsys, [
        "uniqueness", "--in", write("g.json", grid), "--additive", f"--epsilon={epsilon}",
    ])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'epsilon'" in err
    assert len(err.strip().splitlines()) == 1


def test_uniqueness_large_matrix_witness(write, capsys):
    # 6 x 7 = 42 cells, beyond the enumeration oracle's budget.
    mat = np.triu(np.ones((6, 7), dtype=int))
    mat[[2, 3], 2:4] = [[0, 1], [1, 0]]
    path = write("m.json", {"matrix": mat.tolist()})
    code, out, _ = run_cli(capsys, ["uniqueness", "--in", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["unique"] is False
    mate = np.array(doc["witness"])
    assert set(mate.ravel().tolist()) <= {0, 1} and not np.array_equal(mate, mat)
    assert mate.sum(axis=0).tolist() == mat.sum(axis=0).tolist()
    assert mate.sum(axis=1).tolist() == mat.sum(axis=1).tolist()


def test_disclose_with_samples(write, capsys, tmp_path):
    s = symmetric_binary_signal(F(3, 4))
    path = write("s.json", structure_to_json(s))
    samples = tmp_path / "samples.csv"
    code, out, _ = run_cli(capsys, [
        "--seed", "3", "disclose", "--in", path,
        "--samples", "50", "--samples-out", str(samples),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["alphabets"] == [2, 3]
    text = samples.read_text()
    assert text.splitlines()[0] == "s1,s2star"
    assert len(text.splitlines()) == 51


def test_feasible_with_certificate(write, capsys):
    path = write("q.json", QUARTER_DIST)
    code, out, _ = run_cli(
        capsys, ["feasible", "--mu1", path, "--mu2", path, "--certificate"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["certificate"]["m"] == 2


def test_feasible_certificate_on_degenerate_pair_exit_code(write, capsys):
    path = write("p.json", {"atoms": [{"x": 0, "w": 1}]})
    code, out, err = run_cli(
        capsys, ["feasible", "--mu1", path, "--mu2", path, "--certificate"]
    )
    assert code == 2
    assert out == ""
    assert "'mu1'" in err and "(0, 1)" in err
    assert "Traceback" not in err


def test_designer_infinite_prior_exit_code(write, capsys):
    doc = ('{"u": [[0, 1], [1, 0]], "u_d": {"0": [[1, 0], [0, 1]]}, '
           '"prior": [Infinity]}')
    code, _, err = run_cli(capsys, ["designer", "--in", write("p.json", doc)])
    assert code == 2
    assert "'prior'" in err and "Traceback" not in err


GAME = [[1, -1], [-1, 1]]
DESIGNER = {"u": GAME, "u_d": {"0": [[1, 0], [0, 1]]}, "prior": [1]}
STRUCTURE = {"m": 2, "n": 2, "alphabets": [2, 2], "pmf": [
    {"state": 0, "signals": [0, 0], "p": "1/2"}, {"state": 1, "signals": [1, 1], "p": "1/2"},
]}


def signals(first):
    """STRUCTURE with the signals of its first entry replaced."""
    return {**STRUCTURE, "pmf": [{**STRUCTURE["pmf"][0], "signals": first}, STRUCTURE["pmf"][1]]}


def band(rect, y):
    return {"n": 2, "bands": [{"rect": rect, "y": y}]}


@pytest.mark.parametrize("command, doc, field", [
    ("welfare", {"u1": GAME, "u2": GAME, "prior": "a"}, "prior"),
    ("welfare", {"u1": GAME, "u2": GAME, "prior": [0.5]}, "prior"),
    ("welfare", {"u1": [[1, -1], [-1]], "u2": GAME, "prior": 0.5}, "u1"),
    ("uniqueness", {"cells": [[0, 1], [1]]}, "cells"),
    ("uniqueness", {"matrix": [[0, 1], [1]]}, "matrix"),
    ("designer", {**DESIGNER, "u": [[]]}, "u"),
    ("designer", {**DESIGNER, "u": [1, 2]}, "u"),
    ("designer", {**DESIGNER, "u_d": {"0": 5}}, "u_d"),
    ("disclose", {**STRUCTURE, "alphabets": ["a", 2]}, "alphabets"),
    ("disclose", {**STRUCTURE, "alphabets": [-1, 2]}, "alphabets"),
    ("disclose", {**STRUCTURE, "m": True}, "m"),
    ("rasterize", band([[0, 1]], [["0", "1/2"]]), "rect"),
    ("rasterize", band([[0, 1], [0, 1]], [[0]]), "y"),
    ("uniqueness", {"cells": [["a", "b"], ["c", "d"]]}, "cells"),
    ("uniqueness", {"cells": [[0.5, 1], [1, 0]]}, "cells"),
    ("conjugate", {"atoms": [{"x": True, "w": 1}]}, "x"),
    ("disclose", signals([-1, 0]), "signals"),
    ("disclose", signals([0, "a"]), "signals"),
    ("disclose", signals([0, True]), "signals"),
    ("disclose", signals([0, 2]), "signals"),
    ("uniqueness", {"matrix": [["a", "b"], ["c", "d"]]}, "matrix"),
    ("uniqueness", {"matrix": [[0.5, 1], [1, 0]]}, "matrix"),
    ("uniqueness", {"matrix": [0, 1]}, "matrix"),
    ("uniqueness", {"matrix": [[2, 0], [0, 1]]}, "matrix"),
], ids=["welfare-prior-string", "welfare-prior-list", "welfare-ragged-u1",
        "uniqueness-ragged-cells", "uniqueness-ragged-matrix",
        "designer-empty-row-u", "designer-flat-u", "designer-number-u_d",
        "disclose-string-alphabet", "disclose-negative-alphabet", "disclose-boolean-m",
        "rasterize-one-rect-pair", "rasterize-short-y-pair",
        "uniqueness-string-cells", "uniqueness-fractional-cells",
        "conjugate-boolean-x",
        "disclose-negative-signal", "disclose-string-signal", "disclose-boolean-signal",
        "disclose-signal-beyond-alphabet",
        "uniqueness-string-matrix", "uniqueness-fractional-matrix", "uniqueness-flat-matrix",
        "uniqueness-non-binary-matrix"])
def test_malformed_document_exit_code(write, capsys, command, doc, field):
    code, out, err = run_cli(capsys, [command, "--in", write("d.json", doc)])
    assert code == 2
    assert out == ""
    assert f"'{field}'" in err and "Traceback" not in err


def test_bounds_refuse_a_negative_signal(write, capsys):
    # numpy's negative indexing used to read signal -1 as signal 1, so this
    # printed the report of signals [1, 0].
    path = write("s.json", signals([-1, 0]))
    code, out, err = run_cli(capsys, ["bounds", "--ineq", "binary", "--in", path])
    assert code == 2 and out == ""
    assert "'signals'" in err and "Traceback" not in err


def test_welfare(write, capsys):
    path = write("w.json", {"u1": [[1, -1], [-1, 1]],
                            "u2": [[1, -1], [-1, 1]], "prior": 0.5})
    code, out, _ = run_cli(capsys, ["welfare", "--in", path])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["welfare"] - (4 - 2 * math.sqrt(2))) <= 1e-12
    assert abs(doc["alpha"] - (math.sqrt(0.5) - 0.5)) <= 1e-12
    assert doc["beta"] == 0.5
    assert doc["reveal_one"] == 1.0


def test_bounds(write, capsys):
    s = structure_from_grid(quarter_three_quarter_blocks(), exact=True)
    path = write("b.json", structure_to_json(s))
    code, out, _ = run_cli(capsys, ["bounds", "--ineq", "binary", "--in", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["inequality"] == "binary"
    assert abs(doc["slack"] - 0.619) < 1e-3


def test_designer(write, capsys):
    problem = rock_paper_scissors_problem()
    doc = {
        "u": [[0, -1, 1], [1, 0, -1], [-1, 1, 0]],
        "u_d": {
            "0": [[int(v) for v in row] for row in problem.designer_payoffs[0]],
            "1": [[int(v) for v in row] for row in problem.designer_payoffs[1]],
        },
        "prior": [0.5, 0.5],
    }
    code, out, _ = run_cli(capsys, ["designer", "--in", write("p.json", doc)])
    assert code == 0
    result = json.loads(out)
    assert result["baseline"] == "2/3"
    assert result["relaxed"] == "2"
    assert result["payoff"] == "10/9"


def test_rasterize(write, capsys):
    region = {"n": 2, "bands": [
        {"rect": [["0", "1"], ["0", "1"]], "y": [["0", "1/2"]]},
    ]}
    code, out, _ = run_cli(
        capsys, ["--resolution", "2", "rasterize", "--in", write("r.json", region)]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["R"] == 2 and doc["m"] == 2
    assert doc["cells"][0][0] == ["1/2", "1/2"]


def test_malformed_json_exit_code(write, capsys):
    code, _, err = run_cli(capsys, ["conjugate", "--in", write("bad.json", "{nope")])
    assert code == 2
    assert "line" in err


def test_missing_field_exit_code(write, capsys):
    code, _, err = run_cli(capsys, ["conjugate", "--in", write("bad.json", {"a": 1})])
    assert code == 2
    assert "atoms" in err


def test_budget_exit_code(write, capsys):
    part = {"cells": (np.arange(1600).reshape(40, 40) % 3).tolist()}
    code, _, err = run_cli(capsys, ["uniqueness", "--in", write("p.json", part)])
    assert code == 3
    assert "budget" in err


def test_byte_identical_determinism(write, capsys):
    s = symmetric_binary_signal(0.75)
    path = write("s.json", structure_to_json(s))
    argv = ["--seed", "9", "disclose", "--in", path, "--samples", "100"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_round_trip_of_emitted_json(write, capsys):
    from privsig.serialize import atomic_dist_from_json

    code, out, _ = run_cli(capsys, ["conjugate", "--in", write("d.json", FIG_DIST)])
    assert code == 0
    first = atomic_dist_from_json(json.loads(out))
    doc2 = json.loads(dumps({"atoms": [
        {"x": "0", "w": "2/5"}, {"x": "1/2", "w": "1/5"},
        {"x": "4/5", "w": "3/10"}, {"x": "1", "w": "1/10"},
    ]}))
    second = atomic_dist_from_json(doc2)
    assert first.atoms == second.atoms
