"""Self-tests of the benchmark: the checker must refuse wrong answers, the
runner must count them as failures, and seeds must vary contents only.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent)]
import run  # noqa: E402

run.environment()

import numpy as np  # noqa: E402

import privsig  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from privsig import lp  # noqa: E402


def first_op(ops, name, exact=None):
    return min(
        (op for op in ops if op.name == name and (exact is None or op.exact == exact)),
        key=lambda op: op.items,
    )


def first_round(workload, seed):
    return workloads.build(workload, seed)[0]


@pytest.fixture(scope="module")
def belief_ops():
    return first_round("belief_order", 7)


@pytest.fixture(scope="module")
def grid_ops():
    return first_round("grid_tables", 7)


def wrong_conjugates(op):
    good = op.call()
    atoms = list(good.atoms)
    x, w = atoms[1]
    bump = Fraction(1, 10**6) if op.exact else 1e-6
    atoms[1] = (x + bump, w)
    return good, [privsig.AtomicDist(atoms)]


def wrong_certificates(op):
    good = op.call()
    pmf = np.array(good.pmf, copy=True)
    bad = []
    for state in (0, 1):
        k, j = map(int, np.argwhere(pmf[state] > 0)[0])
        moved = pmf.copy()
        moved[state, k, (j + 1) % pmf.shape[2]] += moved[state, k, j]
        moved[state, k, j] -= moved[state, k, j]
        bad.append(privsig.FiniteStructure(moved))
    return good, bad


def flipped_verdict(op):
    good = op.call()
    return good, [not good]


@pytest.mark.parametrize("name,exact,inject", [
    ("beliefs.conjugate", True, wrong_conjugates),
    ("beliefs.conjugate", False, wrong_conjugates),
    ("disclosure.optimal_disclosure_dist", True, wrong_conjugates),
    ("feasibility_welfare.feasibility_certificate", True, wrong_certificates),
    ("feasibility_welfare.feasibility_certificate", False, wrong_certificates),
    ("feasibility_welfare.is_feasible_pair", True, flipped_verdict),
    ("uniqueness.is_pareto_optimal_2x2", False, flipped_verdict),
])
def test_belief_checks_refuse_wrong_answers(belief_ops, name, exact, inject):
    op = first_op(belief_ops, name, exact)
    good, bad = inject(op)
    assert op.check(good)
    for answer in bad:
        assert not op.check(answer)


@pytest.mark.parametrize("name", [
    "uniqueness.lorentz_uniqueness_2d",
    "uniqueness.switch_uniqueness_matrix",
    "uniqueness.partition_uniqueness_grid",
    "structures.is_private_private",
    "structures.equivalent",
])
def test_flipped_verdicts_are_refused(grid_ops, name):
    for op in (op for op in grid_ops if op.name == name and op.size <= 16):
        good, bad = flipped_verdict(op)
        assert op.check(good)
        assert not op.check(bad[0])
        assert not op.check(np.bool_(bad[0]))


def test_moved_table_cell_is_refused(grid_ops):
    op = first_op(grid_ops, "disclosure.finite_disclosure", exact=True)
    good, bad = wrong_certificates(op)
    assert op.check(good)
    assert not any(op.check(b) for b in bad)


def rps_facts():
    prior = [Fraction(1, 2)] * 2
    eq = [Fraction(1, 9)] * 9
    payoffs = [[Fraction(v) for row in t for v in row] for t in workloads.RPS_PAYOFFS]
    objective, cons = checks.designer_model(prior, eq, payoffs)
    return prior, eq, payoffs, objective, cons


def test_designer_reference_is_ten_ninths():
    _, _, _, objective, cons = rps_facts()
    assert checks.highs_value(objective, cons, True) == pytest.approx(10 / 9, abs=1e-9)
    assert lp.solve_lp(objective, cons, maximize=True).value == Fraction(10, 9)


def test_kernel_off_its_marginal_is_refused():
    prior, eq, payoffs, objective, cons = rps_facts()
    x = lp.solve_lp(objective, cons, maximize=True).x
    kernel = [[list(x[k * 9 + 3 * a:k * 9 + 3 * a + 3]) for a in range(3)] for k in range(2)]
    facts = (prior, eq, payoffs, 10 / 9, Fraction(2, 3), Fraction(2))
    assert checks.check_designer((kernel, Fraction(10, 9)), *facts)
    # Move mass inside one state's row: the row still sums to 1, but the
    # prior-weighted average leaves the equilibrium product.
    k, a, b = next((k, a, b) for k in range(2) for a in range(3) for b in range(3) if kernel[k][a][b] > 0)
    bad = [[row[:] for row in table] for table in kernel]
    bad[k][a][b] -= Fraction(1, 18)
    bad[k][(a + 1) % 3][b] += Fraction(1, 18)
    payoff = sum(prior[s] * payoffs[s][3 * i + j] * bad[s][i][j]
                 for s in range(2) for i in range(3) for j in range(3))
    assert not checks.check_designer((bad, payoff), *facts)
    assert not checks.check_designer((kernel, Fraction(8, 9)), *facts)


def test_zero_sum_certificate_refuses_a_non_equilibrium():
    u = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    third = (Fraction(1, 3),) * 3
    assert checks.check_zero_sum((third, third, Fraction(0)), u)
    skewed = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert not checks.check_zero_sum((skewed, third, Fraction(0)), u)
    assert not checks.check_zero_sum((third, third, Fraction(1, 10)), u)


def test_runner_counts_wrong_answers_and_exceptions(belief_ops):
    op = first_op(belief_ops, "beliefs.conjugate", True)
    good, bad = wrong_conjugates(op)

    def boom():
        raise NameError("injected")

    ops = [
        workloads.Op(op.name, True, 1, 0, lambda: good, op.check),
        workloads.Op(op.name, True, 1, 0, lambda: bad[0], op.check),
        workloads.Op(op.name, True, 1, 0, boom, op.check),
    ]
    records = run.measure(ops, [(0, 3)], 0.0, run.Verifier(), traced=True)
    assert len(records) >= run.MIN_OPS
    by_op = {i: [r for r in records if r[0] == i] for i in range(3)}
    assert all(r[3] for r in by_op[0])
    assert not any(r[3] for r in by_op[1]) and all(r[4] is None for r in by_op[1])
    assert all(not r[3] and r[4] == "NameError" for r in by_op[2])
    assert run.percentile_ms(records, 0.9) is None


def test_pair_labels_hold_by_reference_sweep():
    rng = random.Random(11)
    for exact in (True, False):
        for k in (5, 40):
            mu1, conj, inner, spr = workloads.pair_atoms(rng, k, exact)
            assert checks.ref_w1(checks.ref_conjugate(conj), mu1) <= (0 if exact else 1e-12)
            assert checks.ref_min_upper_integral(inner, conj) >= (0 if exact else -1e-12)
            assert checks.ref_min_upper_integral(conj, spr) >= (0 if exact else -1e-12)
            assert checks.ref_min_upper_integral(spr, conj) < -1e-9
            assert checks.ref_w1(inner, conj) > 1e-9


#: A cheap op class per workload whose answer depends on the seeded input.
CONTENT_PROBE = {
    "belief_order": "beliefs.conjugate",
    "exact_lp": "games.solve_zero_sum",
    "grid_tables": "structures.structure_from_grid",
}


def ladder(ops):
    return Counter((op.name, op.exact, op.size) for op in ops)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_change_contents_not_the_ladder(workload):
    a, b = workloads.build(workload, 1), workloads.build(workload, 2)
    assert len(a) == len(b) == workloads.ROUNDS[workload]
    assert all(ladder(r) == ladder(a[0]) for r in a + b)
    if workload not in CONTENT_PROBE:
        return
    pick = [first_op(ops, CONTENT_PROBE[workload], True) for ops in (a[0], b[0], first_round(workload, 1))]
    first, second, again = (checks.canon(op.call()) for op in pick)
    assert first != second
    assert first == again
