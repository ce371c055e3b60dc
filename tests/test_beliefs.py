"""Belief distributions: CDF, quantile, conjugate, and order tests."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import privsig.beliefs
from privsig import (
    AtomicDist,
    ValidationError,
    blackwell_dominates,
    cdf_eval,
    conjugate,
    dists_close,
    is_feasible_pair,
    is_mpc,
    is_pareto_optimal_2x2,
    mean,
    point_mass,
    quantile,
    step_cdf,
    uniform_grid,
    wasserstein1,
)
from privsig.beliefs import _upper_cdf_integrals
from conftest import random_atomic, random_garble_dist

QUARTERS = AtomicDist([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])
THREE_ATOMS = AtomicDist([(F(1, 10), F(1, 5)), (F(2, 5), F(3, 10)), (F(3, 5), F(1, 2))])


def dist_strategy(max_atoms=10):
    def build(raw):
        atoms = [(x, w + 1e-3) for x, w in raw]
        total = sum(w for _, w in atoms)
        return AtomicDist([(x, w / total) for x, w in atoms])

    pair = st.tuples(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    return st.lists(pair, min_size=1, max_size=max_atoms).map(build)


class TestConstruction:
    def test_atoms_sorted_and_merged(self):
        d = AtomicDist([(0.5, 0.25), (0.2, 0.5), (0.5, 0.25)])
        assert d.locations == (0.2, 0.5)
        assert d.weights == (0.5, 0.5)

    def test_near_duplicate_locations_merge(self):
        d = AtomicDist([(0.5, 0.5), (0.5 + 1e-13, 0.5)])
        assert len(d.atoms) == 1

    def test_tiny_weights_dropped(self):
        d = AtomicDist([(0.3, 1.0), (0.9, 1e-16)])
        assert d.locations == (0.3,)
        assert d.weights == (1.0,)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            AtomicDist([(1.5, 1.0)])
        with pytest.raises(ValidationError):
            AtomicDist([(0.5, 0.7)])
        with pytest.raises(ValidationError):
            AtomicDist([])

    def test_exact_flag(self):
        assert QUARTERS.exact
        assert not AtomicDist([(0.25, 0.5), (0.75, 0.5)]).exact


class TestCdfQuantile:
    def test_cdf_midpoint(self):
        assert cdf_eval(QUARTERS, 0.5) == F(1, 2)

    def test_cdf_right_continuous_at_atom(self):
        assert cdf_eval(QUARTERS, F(1, 4)) == F(1, 2)

    def test_cdf_three_atom_example(self):
        assert cdf_eval(THREE_ATOMS, F(1, 2)) == F(1, 2)

    def test_cdf_domain(self):
        with pytest.raises(ValidationError):
            cdf_eval(QUARTERS, 1.5)

    def test_quantile_examples(self):
        assert quantile(QUARTERS, 0.3) == F(1, 4)
        assert quantile(QUARTERS, 0.6) == F(3, 4)

    def test_quantile_uniform_grid(self):
        # min{y : F(y) >= 1/2} lands within half a cell of 1/2.
        for r in (7, 100, 256):
            g = uniform_grid(r)
            assert abs(quantile(g, 0.5) - 0.5) <= 1 / (2 * r) + 1e-15

    def test_quantile_zero_is_support_infimum(self):
        assert quantile(QUARTERS, 0) == F(1, 4)

    def test_quantile_domain(self):
        with pytest.raises(ValidationError):
            quantile(QUARTERS, -0.1)

    def test_step_cdf_matches_pointwise(self):
        cdf = step_cdf(THREE_ATOMS)
        for x in (0, F(1, 10), F(1, 4), F(3, 5), 1):
            assert cdf(x) == cdf_eval(THREE_ATOMS, x)


class TestConjugate:
    def test_three_atom_example(self):
        expected = AtomicDist(
            [(F(0), F(2, 5)), (F(1, 2), F(1, 5)), (F(4, 5), F(3, 10)), (F(1), F(1, 10))]
        )
        assert conjugate(THREE_ATOMS).atoms == expected.atoms

    def test_quarters_example(self):
        assert conjugate(QUARTERS).atoms == (
            (F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(1, 4)),
        )

    def test_point_mass(self):
        p = F(3, 10)
        assert conjugate(point_mass(p)).atoms == ((F(0), F(7, 10)), (F(1), p))

    def test_reflection_identity(self):
        # Independent characterization: the conjugate CDF is
        # 1 - quantile(1 - x) at every point of a fine probe grid.
        for d in (THREE_ATOMS, QUARTERS, point_mass(F(2, 7))):
            c = conjugate(d)
            for i in range(1, 200):
                x = F(i, 200)
                assert cdf_eval(c, x) == 1 - quantile(d, 1 - x)

    def test_mean_examples(self):
        assert mean(THREE_ATOMS) == F(11, 25)
        assert float(mean(THREE_ATOMS)) == 0.44
        assert mean(conjugate(THREE_ATOMS)) == F(11, 25)
        assert mean(QUARTERS) == F(1, 2)

    def test_atom_gap_count(self):
        # Atom count of the conjugate is k-1, k, or k+1 according to the
        # mass the original places on the endpoints {0, 1}.
        both = AtomicDist([(F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))])
        onlyone = AtomicDist([(F(0), F(1, 2)), (F(2, 5), F(1, 2))])
        neither = THREE_ATOMS
        assert len(conjugate(both).atoms) == len(both.atoms) - 1
        assert len(conjugate(onlyone).atoms) == len(onlyone.atoms)
        assert len(conjugate(neither).atoms) == len(neither.atoms) + 1

    @settings(max_examples=60, deadline=None)
    @given(dist_strategy())
    def test_involution_and_mean(self, d):
        back = conjugate(conjugate(d))
        assert wasserstein1(back, d) <= 1e-9
        assert abs(mean(conjugate(d)) - mean(d)) <= 1e-12

    def test_involution_exact(self, rng):
        for _ in range(25):
            d = random_atomic(rng, exact=True)
            assert conjugate(conjugate(d)).atoms == d.atoms
            assert mean(conjugate(d)) == mean(d)


class TestOrders:
    def test_point_mass_is_mpc_of_same_mean(self):
        g = uniform_grid(64)
        assert is_mpc(point_mass(0.5), g)

    def test_quarters_vs_uniform_grid(self):
        g = uniform_grid(100)
        assert is_mpc(QUARTERS, g)
        assert not is_mpc(g, QUARTERS)

    def test_unequal_means_not_mpc(self):
        assert not is_mpc(point_mass(0.3), QUARTERS)

    def test_blackwell_examples(self):
        full = AtomicDist([(0, F(1, 2)), (1, F(1, 2))])
        assert blackwell_dominates(full, uniform_grid(64))
        assert blackwell_dominates(QUARTERS, point_mass(F(1, 2)))
        # The conjugate of the quarters pair is strictly more dispersed, so
        # dominance holds one way only.
        assert not blackwell_dominates(QUARTERS, conjugate(QUARTERS))
        assert blackwell_dominates(conjugate(QUARTERS), QUARTERS)

    def test_mpc_reflexive(self, rng):
        for _ in range(10):
            d = random_atomic(rng)
            assert is_mpc(d, d)

    def test_mpc_antisymmetric(self, rng):
        for _ in range(20):
            d = random_atomic(rng)
            c = random_garble_dist(rng, d)
            if is_mpc(d, c) and is_mpc(c, d):
                assert dists_close(d, c, 1e-7)

    def test_mpc_transitive(self, rng):
        for _ in range(25):
            a = random_atomic(rng)
            b = random_garble_dist(rng, a)
            c = random_garble_dist(rng, b)
            assert is_mpc(b, a) and is_mpc(c, b)
            assert is_mpc(c, a)

    def test_mpc_agrees_with_coupling_oracle(self, rng):
        # Independent oracle: a is an MPC of b iff a martingale coupling
        # exists, a small exact LP.
        from fractions import Fraction
        from privsig.lp import solve_lp, EQ

        def coupling_exists(a, b):
            la = [Fraction(v) for v in a.locations]
            wa = [Fraction(v) for v in a.weights]
            lb = [Fraction(v) for v in b.locations]
            wb = [Fraction(v) for v in b.weights]
            n, m = len(la), len(lb)
            cons = []
            for i in range(n):  # rows sum to the contraction's weights
                row = [0] * (n * m)
                for j in range(m):
                    row[i * m + j] = 1
                cons.append((row, EQ, wa[i]))
            for j in range(m):
                row = [0] * (n * m)
                for i in range(n):
                    row[i * m + j] = 1
                cons.append((row, EQ, wb[j]))
            for i in range(n):  # barycenter of each row at the atom
                row = [0] * (n * m)
                for j in range(m):
                    row[i * m + j] = lb[j] - la[i]
                cons.append((row, EQ, 0))
            return solve_lp([0] * (n * m), cons).optimal

        for _ in range(12):
            b = random_atomic(rng, max_atoms=4, exact=True)
            a = random_atomic(rng, max_atoms=4, exact=True)
            denom = mean(b) - mean(a)
            if denom != 0:
                continue
            assert is_mpc(a, b, 0) == coupling_exists(a, b)
        # Garbled pairs are always exactly comparable.
        for _ in range(8):
            b = random_atomic(rng, max_atoms=4, exact=True)
            a = random_garble_dist(rng, b)
            assert is_mpc(a, b, 1e-9)

    def test_anti_monotone_under_conjugation(self, rng):
        # If nu dominates mu (equal means), conjugation reverses the order.
        for _ in range(25):
            nu = random_atomic(rng)
            mu = random_garble_dist(rng, nu)
            assert blackwell_dominates(nu, mu)
            assert blackwell_dominates(conjugate(mu), conjugate(nu))

    @settings(max_examples=40, deadline=None)
    @given(dist_strategy(max_atoms=6), st.floats(0, 1, allow_nan=False))
    def test_cdf_of_quantile_covers(self, d, u):
        assert cdf_eval(d, quantile(d, u)) >= min(u, sum(d.weights)) - 1e-12


class TestWasserstein:
    def test_zero_on_equal(self):
        assert wasserstein1(QUARTERS, QUARTERS) == 0

    def test_known_distance(self):
        assert wasserstein1(point_mass(F(1, 4)), point_mass(F(3, 4))) == F(1, 2)

    def test_symmetry(self, rng):
        for _ in range(10):
            a, b = random_atomic(rng), random_atomic(rng)
            assert abs(wasserstein1(a, b) - wasserstein1(b, a)) < 1e-15


def oracle_breakpoints(a, b):
    """The per-breakpoint formulation the sweep replaced: O(k^2)."""
    ys = sorted(set(a.locations) | set(b.locations) | {0, 1})
    return ys, [cdf_eval(a, y) - cdf_eval(b, y) for y in ys]


def oracle_upper_cdf_integrals(a, b):
    ys, diffs = oracle_breakpoints(a, b)
    vals = [0] * len(ys)
    for i in range(len(ys) - 2, -1, -1):
        vals[i] = vals[i + 1] + (ys[i + 1] - ys[i]) * diffs[i]
    return ys, vals


def oracle_wasserstein1(a, b):
    ys, diffs = oracle_breakpoints(a, b)
    total = 0
    for y0, y1, d in zip(ys, ys[1:], diffs):
        total = total + (y1 - y0) * abs(d)
    return total


def typed(values):
    """Values with their types, so that == also tells 0 from 0.0 and
    Fraction from float."""
    return [(v, type(v)) for v in values]


@st.composite
def sweep_pairs(draw):
    """Float or Fraction distributions on a common grid of locations, so
    they share locations often and hold atoms at 0 and 1; one-atom lists
    are point masses.  A float and a Fraction list can share a location
    whose two copies are equal but differ in type."""
    grid = draw(st.sampled_from([1, 2, 3, 10, 1000]))

    def dist():
        exact = draw(st.booleans())
        locs = draw(st.lists(st.integers(0, grid), min_size=1, max_size=8, unique=True))
        raw = draw(st.lists(st.integers(1, 9), min_size=len(locs), max_size=len(locs)))
        total = sum(raw)
        if exact:
            return AtomicDist([(F(x, grid), F(w, total)) for x, w in zip(locs, raw)])
        return AtomicDist([(x / grid, w / total) for x, w in zip(locs, raw)])

    return dist(), dist()


class TestSweep:
    """The one-pass sweep behind the order tests against the per-breakpoint
    cdf_eval formulation: equal on floats, equal and still exact on
    Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(sweep_pairs())
    def test_upper_cdf_integrals_match_cdf_eval_oracle(self, pair):
        a, b = pair
        for x, y in ((a, b), (b, a), (a, conjugate(b))):
            ys, vals = _upper_cdf_integrals(x, y)
            want_ys, want_vals = oracle_upper_cdf_integrals(x, y)
            assert typed(ys) == typed(want_ys)
            assert typed(vals) == typed(want_vals)

    @settings(max_examples=300, deadline=None)
    @given(sweep_pairs())
    def test_wasserstein1_matches_cdf_eval_oracle(self, pair):
        a, b = pair
        for x, y in ((a, b), (b, a), (a, conjugate(b))):
            got, want = wasserstein1(x, y), oracle_wasserstein1(x, y)
            assert typed([got]) == typed([want])
            if x.exact and y.exact:
                assert isinstance(got, (int, F))

    @pytest.mark.parametrize("exact", [False, True])
    def test_order_tests_never_call_cdf_eval(self, monkeypatch, exact):
        # Guards the linear sweep: the quadratic per-breakpoint path would
        # call cdf_eval once per merged breakpoint.
        def refuse(dist, x):
            raise AssertionError("cdf_eval called by an order test")

        monkeypatch.setattr(privsig.beliefs, "cdf_eval", refuse)
        mu = uniform_grid(64, exact=exact)
        conj = conjugate(mu)
        assert is_mpc(point_mass(mean(mu)), conj)
        assert wasserstein1(mu, conj) > 0
        assert is_feasible_pair(mu, conj)
        assert is_pareto_optimal_2x2(mu, conj)
        assert not is_pareto_optimal_2x2(mu, mu)
