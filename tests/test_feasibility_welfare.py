"""Feasibility of belief pairs and welfare maximization."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from privsig import (
    AtomicDist,
    ValidationError,
    conjugate,
    dists_close,
    feasibility_certificate,
    is_feasible_pair,
    is_pareto_optimal_2x2,
    is_private_private,
    maximize_welfare,
    mean,
    point_mass,
    posterior_dist,
    uniform_grid,
    welfare_of_pair,
)
from privsig.catalog import matching_game
from conftest import random_atomic, random_garble_dist

QUARTERS = AtomicDist([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])


class TestFeasiblePair:
    def test_point_mass_with_full_revelation(self):
        full = AtomicDist([(0, F(3, 5)), (1, F(2, 5))])
        assert is_feasible_pair(point_mass(F(2, 5)), full)

    def test_quarters_self_pair(self):
        assert is_feasible_pair(QUARTERS, QUARTERS)

    def test_eighty_percent_self_pair_infeasible(self):
        d = AtomicDist([(0.2, 0.5), (0.8, 0.5)])
        assert not is_feasible_pair(d, d)

    def test_frontier_always_feasible(self, rng):
        for _ in range(20):
            mu = random_atomic(rng)
            assert is_feasible_pair(mu, conjugate(mu))

    def test_symmetric_in_arguments(self, rng):
        for _ in range(30):
            mu1 = random_atomic(rng, max_atoms=5)
            mu2 = random_atomic(rng, max_atoms=5)
            assert is_feasible_pair(mu1, mu2) == is_feasible_pair(mu2, mu1)
            nu2 = random_garble_dist(rng, conjugate(mu1))
            assert is_feasible_pair(mu1, nu2)
            assert is_feasible_pair(nu2, mu1)

    def test_monotone_in_blackwell_order(self, rng):
        # Weakening one side of a feasible pair keeps it feasible.
        for _ in range(20):
            mu1 = random_atomic(rng, max_atoms=5)
            mu2 = random_garble_dist(rng, conjugate(mu1))
            nu2 = random_garble_dist(rng, mu2)
            assert is_feasible_pair(mu1, nu2)

    def test_unequal_means(self):
        assert not is_feasible_pair(point_mass(0.3), point_mass(0.5))


class TestCertificate:
    def test_infeasible_returns_none(self):
        d = AtomicDist([(0.2, 0.5), (0.8, 0.5)])
        assert feasibility_certificate(d, d) is None

    def test_quarters_pair(self):
        cert = feasibility_certificate(QUARTERS, QUARTERS)
        assert is_private_private(cert)
        assert posterior_dist(cert, 0).atoms == QUARTERS.atoms
        assert posterior_dist(cert, 1).atoms == QUARTERS.atoms

    def test_frontier_staircase_is_exact_and_perfect(self, rng):
        from privsig import is_perfect

        for _ in range(10):
            mu = random_atomic(rng, max_atoms=6, exact=True)
            cert = feasibility_certificate(mu, conjugate(mu))
            assert is_perfect(cert)
            assert is_private_private(cert, 0)
            assert posterior_dist(cert, 0).atoms == mu.atoms
            assert posterior_dist(cert, 1).atoms == conjugate(mu).atoms

    def test_point_mass_full_revelation(self):
        cert = feasibility_certificate(
            point_mass(F(1, 2)), AtomicDist([(0, F(1, 2)), (1, F(1, 2))])
        )
        # Agent 1 learns nothing, agent 2 observes the state.
        assert posterior_dist(cert, 0).atoms == ((F(1, 2), F(1, 1)),)
        assert posterior_dist(cert, 1).atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))

    def test_uniform_grid_pair(self):
        g = uniform_grid(24)
        cert = feasibility_certificate(g, g)
        assert is_private_private(cert, 1e-7)
        assert dists_close(posterior_dist(cert, 0), g, 1e-7)
        assert dists_close(posterior_dist(cert, 1), g, 1e-7)

    def test_random_interior_pairs(self, rng):
        for _ in range(12):
            mu1 = random_atomic(rng, max_atoms=4, exact=True)
            mu2 = random_garble_dist(rng, conjugate(mu1), max_values=3)
            cert = feasibility_certificate(mu1, mu2)
            assert cert is not None
            assert is_private_private(cert, 1e-9)
            assert dists_close(posterior_dist(cert, 0), mu1, 1e-9)
            assert dists_close(posterior_dist(cert, 1), mu2, 1e-7)

    def test_degenerate_mean_is_rejected_up_front(self):
        with pytest.raises(ValidationError, match=r"'mu1'.*\(0, 1\)"):
            feasibility_certificate(point_mass(0), point_mass(0))
        with pytest.raises(ValidationError, match="'mu2'"):
            feasibility_certificate(QUARTERS, point_mass(1))

    def test_exact_pair_above_old_lp_budget_stays_exact(self):
        # 13 x 13 = 169 cells; exact tables no longer stop at 150 cells.
        g = uniform_grid(13, exact=True)
        cert = feasibility_certificate(g, g)
        assert cert.exact and cert.alphabet_sizes == (13, 13)
        assert posterior_dist(cert, 0).atoms == g.atoms
        assert posterior_dist(cert, 1).atoms == g.atoms
        assert is_private_private(cert, 0)

    def test_mixed_inputs_give_a_float_table(self):
        float_quarters = AtomicDist([(0.25, 0.5), (0.75, 0.5)])
        cert = feasibility_certificate(QUARTERS, float_quarters)
        assert not cert.exact
        assert dists_close(posterior_dist(cert, 1), float_quarters, 1e-12)


@st.composite
def exact_feasible_pairs(draw, max_atoms=16, max_targets=14):
    """An exact pair (mu1, mu2): mu2 garbles conjugate(mu1) by a rational kernel."""
    den = 64
    k = draw(st.integers(1, max_atoms))
    locs = sorted(draw(st.lists(st.integers(0, den), min_size=k, max_size=k, unique=True)))
    raw = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    mu1 = AtomicDist([(F(x, den), F(w, sum(raw))) for x, w in zip(locs, raw)])
    assume(0 < mean(mu1) < 1)
    conj = conjugate(mu1)
    j = draw(st.integers(1, max_targets))
    mass, moment = [F(0)] * j, [F(0)] * j
    for y, v in conj.atoms:
        row = draw(st.lists(st.integers(0, 3), min_size=j, max_size=j))
        if not any(row):
            row[0] = 1
        for t, r in enumerate(row):
            mass[t] += v * F(r, sum(row))
            moment[t] += v * F(r, sum(row)) * y
    mu2 = AtomicDist([(mo / ma, ma) for ma, mo in zip(mass, moment) if ma > 0])
    return mu1, mu2


def _floats(mu):
    return AtomicDist([(float(x), float(w)) for x, w in mu.atoms])


class TestCertificateProperties:
    @settings(max_examples=60, deadline=None)
    @given(exact_feasible_pairs(), st.booleans())
    def test_exact_pairs_are_reproduced_exactly(self, pair, swap):
        mu1, mu2 = pair[::-1] if swap else pair
        cert = feasibility_certificate(mu1, mu2)
        assert cert.exact
        assert posterior_dist(cert, 0).atoms == mu1.atoms
        assert posterior_dist(cert, 1).atoms == mu2.atoms
        assert is_private_private(cert, 0)

    @settings(max_examples=60, deadline=None)
    @given(exact_feasible_pairs(), st.booleans())
    def test_float_copies_are_reproduced_within_tol(self, pair, swap):
        mu1, mu2 = (_floats(mu) for mu in (pair[::-1] if swap else pair))
        cert = feasibility_certificate(mu1, mu2)
        assert cert is not None and not cert.exact
        assert dists_close(posterior_dist(cert, 0), mu1, 1e-9)
        assert dists_close(posterior_dist(cert, 1), mu2, 1e-9)
        assert is_private_private(cert, 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(exact_feasible_pairs(), st.floats(-5e-10, 5e-10))
    def test_round_off_pairs_meet_the_float_contract(self, pair, eps):
        # Nudging mu2 keeps the pair feasible only within tol, if at all:
        # the answer is a table within tol, or None.
        mu1 = _floats(pair[0])
        mu2 = AtomicDist([
            (min(max(float(x) + eps, 0.0), 1.0), float(w)) for x, w in pair[1].atoms
        ])
        cert = feasibility_certificate(mu1, mu2)
        if not is_feasible_pair(mu1, mu2):
            assert cert is None
        elif cert is not None:
            assert dists_close(posterior_dist(cert, 0), mu1, 1e-9)
            assert dists_close(posterior_dist(cert, 1), mu2, 1e-9)
            assert is_private_private(cert, 1e-9)


class TestWelfare:
    def test_matching_game_optimum(self):
        u1, u2 = matching_game()
        res = maximize_welfare(u1, u2, 0.5)
        assert abs(res.welfare - (4 - 2 * math.sqrt(2))) <= 1e-12
        assert abs(res.alpha - (math.sqrt(0.5) - 0.5)) <= 1e-12
        assert res.beta == 0.5
        assert res.reveal_one == 1.0

    def test_optimum_is_pareto_pair_with_small_support(self):
        u1, u2 = matching_game()
        res = maximize_welfare(u1, u2, 0.5)
        assert is_pareto_optimal_2x2(res.mu1, res.mu2, 1e-9)
        supports = sorted((len(res.mu1.atoms), len(res.mu2.atoms)))
        assert supports[0] <= 2 and supports[1] <= 3

    def test_zero_payoffs(self):
        res = maximize_welfare([[0, 0], [0, 0]], [[0, 0], [0, 0]], 0.5)
        assert res.welfare == 0.0

    def test_asymmetric_game_searches_both_roles(self):
        # Only agent 2's problem benefits from information; the optimizer
        # must hand the fully revealing side to agent 2.
        u_flat = [[1, 1], [1, 1]]
        u_match = [[2, -2], [-2, 2]]
        res = maximize_welfare(u_flat, u_match, 0.5)
        assert abs(res.welfare - 3.0) < 1e-9
        sides = {len(res.mu1.atoms), len(res.mu2.atoms)}
        assert posterior_like_full_revelation(res.mu2)

    def test_beats_random_feasible_pairs(self, rng):
        u1 = rng.integers(-3, 4, size=(2, 3)).tolist()
        u2 = rng.integers(-3, 4, size=(2, 2)).tolist()
        prior = 0.5
        res = maximize_welfare(u1, u2, prior)
        for _ in range(200):
            mu1 = random_atomic_with_mean(rng, prior)
            mu2 = random_garble_dist(rng, conjugate(mu1))
            w = welfare_of_pair(mu1, mu2, u1, u2)
            assert w <= res.welfare + 1e-9

    def test_no_grid_point_beats_the_candidates(self, rng):
        for game in range(200):
            shapes = rng.integers(1, 5, size=2)
            if game % 2:
                u1, u2 = (rng.integers(-4, 5, size=(2, n)).tolist() for n in shapes)
            else:
                u1, u2 = (rng.normal(size=(2, n)).tolist() for n in shapes)
            prior = float(rng.uniform(0.02, 0.98))
            res = maximize_welfare(u1, u2, prior)
            assert res.welfare >= grid_welfare(u1, u2, prior) - 1e-12
            assert abs(res.welfare - welfare_of_pair(res.mu1, res.mu2, u1, u2)) <= 1e-12

    def test_prior_validation(self):
        with pytest.raises(ValidationError):
            maximize_welfare([[1, 0], [0, 1]], [[1, 0], [0, 1]], 1.0)

    def test_nonfinite_payoffs_rejected(self):
        with pytest.raises(ValidationError):
            maximize_welfare([[float("inf"), 0], [0, 1]], [[1, 0], [0, 1]], 0.5)


def grid_welfare(u1, u2, prior, steps=120):
    """Best frontier welfare on a steps x steps grid over (0, 1 - prior] x
    (0, prior] for both role assignments; the oracle for the candidate
    enumeration in ``maximize_welfare``."""
    u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    alpha, beta = np.meshgrid((1 - prior) * np.arange(1, steps + 1) / steps,
                              prior * np.arange(1, steps + 1) / steps)
    total = alpha + beta

    def value(u, q):  # indirect utility at each belief in q
        return np.max(np.multiply.outer(1 - q, u[0]) + np.multiply.outer(q, u[1]), axis=-1)

    def two_point(u):
        return (alpha * value(u, prior - beta) + beta * value(u, prior + alpha)) / total

    def conjugate_side(u):
        ends = value(u, np.array([0.0, 1.0]))
        return ((1 - prior - alpha) * ends[0] + total * value(u, beta / total)
                + (prior - beta) * ends[1])

    return max((two_point(u1) + conjugate_side(u2)).max(),
               (two_point(u2) + conjugate_side(u1)).max())


def posterior_like_full_revelation(mu, tol=1e-6):
    return all(min(abs(x), abs(1 - x)) <= tol for x in map(float, mu.locations))


def random_atomic_with_mean(rng, target):
    """Random belief distribution with the given mean (binary-mixture trick)."""
    k = int(rng.integers(1, 5))
    lows = rng.random(k) * target
    highs = target + rng.random(k) * (1 - target)
    weights = rng.dirichlet(np.ones(k))
    atoms = []
    for lo, hi, w in zip(lows, highs, weights):
        lam = (target - lo) / (hi - lo)
        atoms.append((lo, w * (1 - lam)))
        atoms.append((hi, w * lam))
    return AtomicDist([(x, w) for x, w in atoms if w > 1e-12])
