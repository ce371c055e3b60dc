"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Criterion 4 pins the certified optimum 10/9 of the rock-paper-scissors
designer LP and checks it with the kernel and the dual potentials derived in
``notes/decisions.md``, in exact arithmetic and without a solver.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from privsig import (
    AtomicDist,
    GridPartition,
    GridSet,
    check_binary_strengthening,
    check_quadratic_bound,
    check_superadditivity,
    conjugate,
    designer_optimum,
    entropy,
    finite_disclosure,
    gale_ryser_unique,
    independent_baseline,
    is_feasible_pair,
    is_pareto_optimal_2x2,
    is_private_private,
    lorentz_uniqueness_2d,
    maximize_welfare,
    mean,
    partition_uniqueness_grid,
    posterior_dist,
    relaxed_optimum,
    revelation_probability,
    simulate_disclosure,
    switch_uniqueness_matrix,
    uniform_grid,
)
from privsig.catalog import (
    matching_game,
    quarter_three_quarter_blocks,
    rock_paper_scissors_problem,
    symmetric_binary_signal,
    two_bit_structure,
    upper_triangle_grid,
)
from privsig.structures import structure_from_grid
from privsig.uniqueness import brute_force_marginal_mates
from conftest import striped_three_state_partition

FIG_DIST = AtomicDist(
    [(F(1, 10), F(1, 5)), (F(2, 5), F(3, 10)), (F(3, 5), F(1, 2))]
)
QUARTERS = AtomicDist([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])


def verdict(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {text}")


def test_criterion_01_conjugate_exactness():
    expected = (
        (F(0), F(2, 5)), (F(1, 2), F(1, 5)), (F(4, 5), F(3, 10)), (F(1), F(1, 10)),
    )
    got = conjugate(FIG_DIST)
    assert got.atoms == expected
    assert mean(FIG_DIST) == mean(got) == F(11, 25)
    assert float(mean(FIG_DIST)) == 0.44
    conjugate(FIG_DIST)  # warm
    elapsed = min(
        _timed(lambda: conjugate(FIG_DIST)) for _ in range(5)
    )
    assert elapsed < 1e-3, f"conjugate took {elapsed * 1e3:.3f} ms"
    verdict(1, True, f"exact four-atom conjugate, means 11/25, {elapsed * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_optimal_disclosure():
    s = symmetric_binary_signal(F(3, 4))
    fd = finite_disclosure(s)
    assert fd.alphabet_sizes[1] == 3
    assert posterior_dist(fd, 1).atoms == (
        (F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(1, 4)),
    )
    # The disclosure is uninformative with probability exactly 2/3 on the
    # event that determines it: privacy and the posterior distribution above
    # force the 2/3 branch onto the signal-matches-state event (conditioning
    # it on a mismatch would break independence; see the decisions ledger).
    pmf = fd.pmf
    match_mass = pmf[1, 1, :].sum() + pmf[0, 0, :].sum()
    assert (pmf[1, 1, 1] + pmf[0, 0, 1]) / match_mass == F(2, 3)
    assert is_private_private(fd, 0)
    for num in range(11, 20):  # r = 0.55, 0.60, ..., 0.95
        r = num / 20
        got = revelation_probability(symmetric_binary_signal(r))
        assert abs(got - 2 * (1 - r)) <= 1e-12
    verdict(2, True, "trinary disclosure with conjugate beliefs, reveal prob 2(1-r)")


def test_criterion_03_welfare_optimum():
    u1, u2 = matching_game()
    t0 = time.perf_counter()
    res = maximize_welfare(u1, u2, 0.5)
    elapsed = time.perf_counter() - t0
    target = 4 - 2 * math.sqrt(2)
    assert abs(res.welfare - target) <= 1e-12
    assert abs(res.alpha - (math.sqrt(0.5) - 0.5)) <= 1e-12
    assert res.beta == 0.5
    assert elapsed < 5.0
    verdict(3, True, f"welfare {res.welfare:.9f} = 4 - 2*sqrt(2) in {elapsed:.2f}s")


def test_criterion_04_designer_lp():
    problem = rock_paper_scissors_problem()
    t0 = time.perf_counter()
    kernel, payoff = designer_optimum(problem)
    elapsed = time.perf_counter() - t0
    assert independent_baseline(problem) == F(2, 3)
    assert relaxed_optimum(problem) == 2
    assert elapsed < 1.0

    # Primal: the returned kernel is feasible and attains the payoff.
    prior, utils = problem.prior, problem.designer_payoffs
    eq = problem.equilibrium_product()
    n1, n2 = problem.n_actions
    cells = [(a1, a2) for a1 in range(n1) for a2 in range(n2)]
    kernel_ok = len(kernel) == problem.n_states and all(
        all(q[a1][a2] >= 0 for a1, a2 in cells)
        and sum(q[a1][a2] for a1, a2 in cells) == 1
        for q in kernel
    )
    marginal_ok = all(
        sum(p * q[a1][a2] for p, q in zip(prior, kernel)) == eq[a1][a2]
        for a1, a2 in cells
    )
    value = sum(
        p * sum(q[a1][a2] * u[a1][a2] for a1, a2 in cells)
        for p, q, u in zip(prior, kernel, utils)
    )
    # Dual (notes/decisions.md): alpha_k = 0 and beta(t) = max_k u_k(t) are
    # feasible on every edge, and their value bounds every feasible kernel.
    alpha = (F(0),) * problem.n_states
    beta = {(a1, a2): max(u[a1][a2] for u in utils) for a1, a2 in cells}
    dual_ok = all(
        a + beta[a1, a2] >= u[a1][a2]
        for a, u in zip(alpha, utils) for a1, a2 in cells
    )
    dual_value = sum(p * a for p, a in zip(prior, alpha)) + sum(
        eq[a1][a2] * beta[a1, a2] for a1, a2 in cells
    )

    ok = (
        payoff == F(10, 9) and kernel_ok and marginal_ok
        and value == payoff and dual_ok and dual_value == payoff
    )
    verdict(
        4, ok,
        f"baseline 6/9 and relaxed bound 2 exact; optimum {payoff}, kernel "
        f"value {value}, dual value {dual_value}, in {elapsed:.2f}s",
    )
    assert payoff == F(10, 9)
    assert kernel_ok, "kernel rows must be distributions"
    assert marginal_ok, "kernel must average to the equilibrium product"
    assert value == payoff, "kernel value must equal the reported payoff"
    assert dual_ok, "dual potentials must be feasible on every edge"
    assert dual_value == payoff, "dual value must certify the payoff optimal"


def test_criterion_05_pareto_verdicts_agree():
    g = uniform_grid(256)
    triangle_verdict = is_pareto_optimal_2x2(g, g, tol=1 / 256)
    blocks_verdict = is_pareto_optimal_2x2(QUARTERS, QUARTERS)
    assert triangle_verdict is True
    assert blocks_verdict is False
    lorentz_triangle = lorentz_uniqueness_2d(upper_triangle_grid(8))
    lorentz_blocks = lorentz_uniqueness_2d(
        GridSet(quarter_three_quarter_blocks().cells)
    )
    assert lorentz_triangle == triangle_verdict
    assert lorentz_blocks == blocks_verdict
    verdict(5, True, "conjugacy and rearrangement tests agree on both examples")


def test_criterion_06_uniqueness_oracles():
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        mat = (rng.random((rows, cols)) < rng.random()).astype(int)
        sw = switch_uniqueness_matrix(mat)
        gr = gale_ryser_unique(mat.sum(axis=1), mat.sum(axis=0))
        bf = len(brute_force_marginal_mates(mat)) == 1
        assert sw == gr == bf, f"oracles disagree on {mat.tolist()}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    verdict(6, True, f"{checked} patterns, three oracles agree, {elapsed:.1f}s")


def test_criterion_07_partition_of_uniqueness():
    t0 = time.perf_counter()
    # beta in {0, 1/8, 1/4} at R = 20; beta * R = 2.5 is not grid-aligned
    # for 1/8, so that stripe snaps to the nearest whole row (the partition
    # is one of uniqueness for every stripe height).
    for beta_rows in (0, 2, 5):
        partition = striped_three_state_partition(beta_rows, 20)
        assert partition_uniqueness_grid(partition)
    p = striped_three_state_partition(5, 20)
    middle = GridSet(p.cells == 1)
    assert not lorentz_uniqueness_2d(middle)
    assert not partition_uniqueness_grid(
        GridPartition((p.cells == 1).astype(int))
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(7, True, f"three-state partitions unique, middle set alone not, {elapsed:.1f}s")


def test_criterion_08_information_bounds():
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        r = int(rng.integers(2, 9))
        s = structure_from_grid(
            GridPartition(rng.integers(0, m, size=(r,) * n))
        )
        slacks = [check_superadditivity(s).slack, check_quadratic_bound(s).slack]
        if s.m == 2:
            slacks.append(check_binary_strengthening(s).slack)
        worst = min(worst, min(slacks))
        assert min(slacks) >= -1e-9
    two_bit = two_bit_structure()
    report = check_superadditivity(two_bit)
    assert sum(report.per_agent) == 2.0
    assert entropy(two_bit.prior) == 2.0
    assert report.slack == 0.0
    elapsed = time.perf_counter() - t0
    verdict(8, True, f"500 structures, worst slack {worst:.2e}, two-bit exact, {elapsed:.1f}s")


def test_criterion_09_feasibility_threshold():
    def symmetric(r):
        return AtomicDist([(1 - r, 0.5), (r, 0.5)])

    assert is_feasible_pair(symmetric(0.75), symmetric(0.75))
    assert not is_feasible_pair(symmetric(0.75 + 1e-6), symmetric(0.75 + 1e-6))
    lo, hi = 0.6, 0.95
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2
        if is_feasible_pair(symmetric(mid), symmetric(mid)):
            lo = mid
        else:
            hi = mid
    assert lo <= 0.75 <= hi + 1e-12
    assert hi - lo <= 1e-6
    verdict(9, True, f"feasibility flips inside [{lo:.8f}, {hi:.8f}] around 3/4")


def test_criterion_10_disclosure_independence():
    t0 = time.perf_counter()
    s = symmetric_binary_signal(0.75)
    n = 1_000_000
    s1, draws = simulate_disclosure(s, n, seed=0)
    deciles = np.minimum((draws * 10).astype(int), 9)
    worst = 0.0
    for v in (0, 1):
        for d in range(10):
            # Product prediction: P(s1 = v) * 1/10 = 1/20 per cell.
            want = 0.05
            got = np.mean((s1 == v) & (deciles == d))
            se = math.sqrt(want * (1 - want) / n)
            worst = max(worst, abs(got - want) / se)
            assert abs(got - want) <= 4 * se
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    verdict(10, True, f"{n} draws, worst cell {worst:.2f} standard errors, {elapsed:.1f}s")
