"""Belief distributions: CDF, quantile, conjugate, and order tests."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import privsig.beliefs
from privsig import (
    AtomicDist,
    FiniteStructure,
    SimplexDist,
    ValidationError,
    blackwell_dominates,
    cdf_eval,
    conjugate,
    dists_close,
    equivalent,
    feasibility_certificate,
    is_feasible_pair,
    is_mpc,
    is_pareto_optimal_2x2,
    is_private_private,
    mean,
    point_mass,
    quantile,
    step_cdf,
    uniform_grid,
    wasserstein1,
)
from privsig._num import ORDER_TOL, POSTERIOR_MERGE_TOL
from privsig.beliefs import _cdf_differences, _upper_cdf_integrals, support_gaps
from privsig.catalog import symmetric_binary_signal
from privsig.structures import posterior_dist, require_private_private
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

    @pytest.mark.parametrize("atoms", [
        [(True, 1)],
        [(0.5, True)],
        [(F(1, 2), F(1, 2)), (False, F(1, 2))],
    ])
    def test_rejects_booleans(self, atoms):
        with pytest.raises(ValidationError, match="'atoms'"):
            AtomicDist(atoms)

    @pytest.mark.parametrize("atoms", [
        [("0.5", 1.0)],
        [(0.5, "1")],
        [(None, 1.0)],
        [(0.5, None)],
    ])
    def test_rejects_strings_and_none(self, atoms):
        with pytest.raises(ValidationError, match="'atoms'"):
            AtomicDist(atoms)

    @pytest.mark.parametrize("atoms", [[(0.5,)], [(0.5, 0.5), (0.5, 0.25, 0.25)], [0.5], None])
    def test_rejects_atoms_that_are_not_pairs(self, atoms):
        with pytest.raises(ValidationError, match="'atoms'"):
            AtomicDist(atoms)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weights(self, weight):
        # A NaN weight would otherwise be dropped silently.
        with pytest.raises(ValidationError, match="'atoms'"):
            AtomicDist([(0.5, 1.0), (0.3, weight)])

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


FRONTIER = (QUARTERS, conjugate(QUARTERS))
PRIVATE = symmetric_binary_signal(F(3, 4))


class TestToleranceInput:
    """Every public test that takes ``tol`` refuses one that is not a finite
    non-negative number, rather than giving a verdict."""

    @pytest.mark.parametrize("test, args", [
        (is_mpc, (QUARTERS, QUARTERS)),
        (blackwell_dominates, (QUARTERS, QUARTERS)),
        (dists_close, (QUARTERS, QUARTERS)),
        (is_feasible_pair, FRONTIER),
        (feasibility_certificate, FRONTIER),
        (is_pareto_optimal_2x2, FRONTIER),
        (is_private_private, (PRIVATE,)),
        (require_private_private, (PRIVATE,)),
        (equivalent, (PRIVATE, PRIVATE)),
    ], ids=lambda v: getattr(v, "__name__", ""))
    def test_bad_tol_is_refused(self, test, args):
        for tol in (float("nan"), float("inf"), -1e-9, F(-1, 2), "x", None, True, np.nan):
            with pytest.raises(ValidationError, match="'tol'"):
                test(*args, tol)

    def test_good_tol_types_give_verdicts(self):
        for tol in (0, F(1, 10**9), 1e-9, np.float64(1e-9), np.int64(0), 10**400):
            assert is_feasible_pair(*FRONTIER, tol)


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

    @pytest.mark.parametrize("exact", [False, True])
    def test_is_mpc_takes_the_means_from_the_sweep(self, monkeypatch, exact):
        # The sweep's integral from 0 is mean(b) - mean(a), so is_mpc needs
        # no dot product of its own to compare the means.
        mu = uniform_grid(64, exact=exact)
        conj = conjugate(mu)
        center = point_mass(mean(mu))
        below = point_mass(mean(mu) - (F(1, 10) if exact else 0.1))

        def refuse(dist):
            raise AssertionError("mean called by is_mpc")

        monkeypatch.setattr(privsig.beliefs, "mean", refuse)
        assert is_mpc(center, conj)
        assert is_mpc(conj, conj)
        assert not is_mpc(conj, center)
        assert blackwell_dominates(mu, center)
        # Every upper integral of F_below - F_conj is >= 0; only the means
        # tell this pair apart.
        assert not is_mpc(below, conj)


# ---------------------------------------------------------------------------
# Exact distributions on integer numerators against the Fraction code
# ---------------------------------------------------------------------------
#
# The oracles below are the Fraction formulations the integer code
# replaced, kept as they were.  Every comparison is typed, so an int where
# the Fraction code gives a Fraction (or the reverse) fails.


def oracle_support_gaps(dist):
    zero = dist.weights[0] * 0
    one = zero + 1
    xs = list(dist.locations) + [one]
    cums = [zero]
    for w in dist.weights:
        cums.append(cums[-1] + w)
    prev = zero
    indices, atoms = [], []
    for j, x_next in enumerate(xs):
        gap = x_next - prev
        if gap > 0:
            indices.append(j)
            atoms.append((min(max(one - cums[j], zero), one), gap))
        prev = x_next
    return indices, atoms


def oracle_conjugate(dist):
    _, atoms = oracle_support_gaps(dist)
    atoms.reverse()
    return AtomicDist(atoms)


def oracle_mean(dist):
    return sum(x * w for x, w in dist.atoms)


def oracle_cdf_differences(a, b):
    xa, xb = a.atoms, b.atoms
    na, nb = len(xa), len(xb)
    i = j = 0
    fa = fb = 0
    ys, diffs = [], []
    if xa[0][0] != 0 and xb[0][0] != 0:
        ys.append(0)
        diffs.append(0)
    while i < na or j < nb:
        if j == nb or (i < na and xa[i][0] <= xb[j][0]):
            y = xa[i][0]
        else:
            y = xb[j][0]
        while i < na and xa[i][0] <= y:
            fa = fa + xa[i][1]
            i += 1
        while j < nb and xb[j][0] <= y:
            fb = fb + xb[j][1]
            j += 1
        ys.append(y)
        diffs.append(fa - fb)
    if ys[-1] != 1:
        ys.append(1)
        diffs.append(fa - fb)
    return ys, diffs


def oracle_sweep_integrals(a, b):
    ys, diffs = oracle_cdf_differences(a, b)
    vals = [0] * len(ys)
    for i in range(len(ys) - 2, -1, -1):
        vals[i] = vals[i + 1] + (ys[i + 1] - ys[i]) * diffs[i]
    return ys, vals


def oracle_sweep_wasserstein1(a, b):
    ys, diffs = oracle_cdf_differences(a, b)
    total = 0
    for y0, y1, d in zip(ys, ys[1:], diffs):
        total = total + (y1 - y0) * abs(d)
    return total


def oracle_is_mpc(a, b, tol):
    _, vals = oracle_sweep_integrals(a, b)
    return abs(vals[0]) <= tol and min(vals) >= -tol


def oracle_shadow(free, m, z):
    if not free:
        return [], free
    zero = m * 0
    last = len(free) - 1
    b, acc, moment = 0, zero, zero
    while b < last and acc + free[b][2] < m:
        acc += free[b][2]
        moment += free[b][2] * free[b][1]
        b += 1
    right = min(m - acc, free[b][2])
    moment += right * free[b][1]
    a, left = 0, zero
    need = m * z
    while moment < need:
        if right == free[b][2]:
            if b == last:
                break
            b, right = b + 1, zero
            continue
        to_left = free[a][2] - left
        to_right = free[b][2] - right
        slope = free[b][1] - free[a][1]
        step = min(to_left, to_right)
        if slope * step >= need - moment:
            step = (need - moment) / slope
            left, right, moment = left + step, right + step, need
            break
        moment += slope * step
        if to_left <= to_right:
            right = free[b][2] if to_left == to_right else right + step
            a, left = a + 1, zero
        else:
            left, right = left + step, free[b][2]
    j_a, y_a, r_a = free[a]
    j_b, y_b, r_b = free[b]
    if a == b:
        taken = [(j_a, y_a, right - left)]
        kept = [(j_a, y_a, r_a - (right - left))]
    else:
        taken = [(j_a, y_a, r_a - left), *free[a + 1:b], (j_b, y_b, right)]
        kept = [(j_a, y_a, left), (j_b, y_b, r_b - right)]
    taken = [t for t in taken if t[2] > 0]
    return taken, free[:a] + [e for e in kept if e[2] > 0] + free[b + 1:]


def oracle_certificate(mu1, mu2, tol):
    """The Fraction certificate of an exact pair the oracles call feasible."""
    if abs(oracle_mean(mu1) - oracle_mean(mu2)) > tol:
        return None
    if not oracle_is_mpc(mu2, oracle_conjugate(mu1), tol):
        return None
    u = mu1.weights
    indices, atoms = oracle_support_gaps(mu1)
    free = [(j, y, v) for j, (y, v) in zip(indices, atoms)][::-1]
    targets = list(mu2.atoms)
    excess = sum(v * y for _, y, v in free) - sum(m * z for z, m in targets)
    todo = sum(m for _, m in targets)
    pmf = np.full((2, len(u), len(targets)), F(0), dtype=object)
    for t, (z, m) in enumerate(targets):
        if t < len(targets) - 1:
            window, free = oracle_shadow(free, m, z + excess / todo)
        else:
            window = free
        window.sort()
        total = sum(mass for _, _, mass in window)
        moment = sum(mass * y for _, y, mass in window)
        if abs(total - m) > tol or abs(moment - total * z) > tol * total:
            return None
        excess -= moment - m * z
        todo -= m
        share, row = total * 0, 0
        for j, _, mass in window + [(len(u), None, 0)]:
            for a in range(row, j):
                pmf[1, a, t] = u[a] * share
                pmf[0, a, t] = u[a] * (total - share)
            row = max(row, j)
            share += mass
    return FiniteStructure(pmf)


#: Denominators small enough for int64 throughout, large enough that the
#: products of two of them need Python ints, and beyond 2**63 themselves.
DENOMINATORS = (1, 2, 10, 1000, 2**31 - 1, 2**40 + 15, 2**61 - 1, 2**64 + 13, 3**45)


@st.composite
def exact_dists(draw, max_atoms=6, tidy=False):
    """Exact distributions over the denominators above.  Locations 0 and 1
    and point-mass weights are plain ints half of the time, and weights can
    be so uneven that the conjugate drops or merges atoms.  Some weights add
    up to a hair above 1, within ``TABLE_TOL``, once with an int weight 1
    first.  A ``tidy`` distribution has weights that add up to 1, and its
    atoms and those of its conjugate lie at least 1/100 apart."""
    den = draw(st.sampled_from(DENOMINATORS))
    k = draw(st.integers(1, min(max_atoms, den + 1)))
    grid = den if not tidy or den < 64 else 64
    # The tidy grid's inner points keep the large denominator.
    nums = sorted(n * (den // grid) if n < grid else den for n in draw(
        st.sets(st.integers(0, grid), min_size=k, max_size=k)))
    ints = draw(st.booleans())
    locs = [n // den if ints and n in (0, den) else F(n, den) for n in nums]
    if k == 1:
        return AtomicDist([(locs[0], 1 if draw(st.booleans()) else F(1))])
    sizes = st.integers(1, 9) if tidy else st.one_of(st.integers(1, 9), st.integers(1, 2**70))
    raw = draw(st.lists(sizes, min_size=k, max_size=k))
    weights = [F(r, sum(raw)) for r in raw]
    over = "none" if tidy else draw(st.sampled_from(["none", "last", "int_first"]))
    if over == "last":
        weights[-1] += F(1, 10**13)
    elif over == "int_first":
        weights = [1] + [F(1, 10**13)] * (k - 1)
    return AtomicDist(list(zip(locs, weights)))


def typed_atoms(dist):
    return typed([v for atom in dist.atoms for v in atom])


class TestExactOnIntegers:
    """The integer code gives the Fraction code's values, types included."""

    @settings(max_examples=300, deadline=None)
    @given(exact_dists())
    def test_gaps_conjugate_and_mean(self, d):
        indices, atoms = support_gaps(d)
        want_indices, want_atoms = oracle_support_gaps(d)
        assert indices == want_indices
        assert typed([v for atom in atoms for v in atom]) == typed(
            [v for atom in want_atoms for v in atom])
        assert typed_atoms(conjugate(d)) == typed_atoms(oracle_conjugate(d))
        assert typed([mean(d)]) == typed([oracle_mean(d)])
        assert typed([mean(conjugate(d))]) == typed([oracle_mean(oracle_conjugate(d))])

    @settings(max_examples=300, deadline=None)
    @given(exact_dists(), exact_dists())
    def test_sweeps(self, a, b):
        for x, y in ((a, b), (b, a), (a, conjugate(b)), (a, a)):
            ys, diffs = _cdf_differences(x, y)
            want_ys, want_diffs = oracle_cdf_differences(x, y)
            assert typed(ys) == typed(want_ys)
            assert typed(diffs) == typed(want_diffs)
            ys, vals = _upper_cdf_integrals(x, y)
            want_ys, want_vals = oracle_sweep_integrals(x, y)
            assert typed(ys) == typed(want_ys)
            assert typed(vals) == typed(want_vals)
            assert typed([wasserstein1(x, y)]) == typed([oracle_sweep_wasserstein1(x, y)])
            for tol in (0, 1e-9, F(1, 7)):
                assert is_mpc(x, y, tol) == oracle_is_mpc(x, y, tol)

    @settings(max_examples=200, deadline=None)
    @given(exact_dists(), exact_dists())
    def test_pair_verdicts(self, a, b):
        mean_gap = abs(oracle_mean(a) - oracle_mean(b))
        for tol in (0, 1e-9, F(1, 3)):
            want = mean_gap <= tol and oracle_is_mpc(b, oracle_conjugate(a), tol)
            assert is_feasible_pair(a, b, tol) == want
            if mean_gap <= tol:
                w1 = oracle_sweep_wasserstein1(b, oracle_conjugate(a))
                assert is_pareto_optimal_2x2(a, b, tol) == (w1 <= tol)

    @settings(max_examples=200, deadline=None)
    @given(exact_dists(max_atoms=5))
    def test_involution_and_self_pair(self, d):
        c = conjugate(d)
        assert conjugate(c).atoms == oracle_conjugate(oracle_conjugate(d)).atoms
        assert is_pareto_optimal_2x2(d, c) and is_feasible_pair(d, c)
        assert wasserstein1(c, oracle_conjugate(d)) == 0

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 2**-10])
    @pytest.mark.parametrize("den", [1000, 2**61 - 1, 2**64 + 13])
    def test_verdicts_at_tol_and_one_ulp_beyond(self, tol, den):
        mu1 = AtomicDist([(F(1, 8), F(1, 4)), (F(den // 3, den), F(1, 2)), (F(7, 8), F(1, 4))])
        conj = conjugate(mu1)
        for delta, want in ((F(tol), True), (F(math.nextafter(tol, 1.0)), False)):
            center = point_mass(mean(mu1))
            shifted = point_mass(mean(mu1) + delta)
            assert is_mpc(center, shifted, tol) is want
            assert oracle_is_mpc(center, shifted, tol) is want
            assert is_feasible_pair(mu1, shifted, tol) is want
            # Every atom below 1 moves right by delta: W1 is their weight times delta.
            moved = AtomicDist([(x + delta if x < 1 else x, w) for x, w in conj.atoms])
            w1 = sum(w for x, w in conj.atoms if x < 1) * delta
            assert wasserstein1(moved, conj) == w1
            if abs(mean(moved) - mean(mu1)) <= tol:
                assert is_pareto_optimal_2x2(mu1, moved, tol) == (w1 <= tol)


def reproducible(dist):
    """True when a table can have ``dist`` as an exact posterior
    distribution: the weights add up to 1 and no two atoms are close
    enough for posterior clustering."""
    xs = dist.locations
    return sum(dist.weights) == 1 and all(
        b - a > POSTERIOR_MERGE_TOL for a, b in zip(xs, xs[1:]))


@st.composite
def exact_contractions(draw):
    """(mu1, mu2) with mu2 an exact contraction of conjugate(mu1): adjacent
    conjugate atoms merged into their barycenters, and sometimes one atom
    moved by a hair, so the pair is feasible only within tolerance."""
    mu1 = draw(exact_dists(max_atoms=6))
    atoms = list(conjugate(mu1).atoms)
    out, i = [], 0
    while i < len(atoms):
        if i + 1 < len(atoms) and draw(st.booleans()):
            (x1, w1), (x2, w2) = atoms[i], atoms[i + 1]
            out.append(((x1 * w1 + x2 * w2) / (w1 + w2), w1 + w2))
            i += 2
        else:
            out.append(atoms[i])
            i += 1
    nudge = draw(st.sampled_from([0, 0, F(1, 10**13), F(-1, 10**11), F(1, 10**8)]))
    t = draw(st.integers(0, len(out) - 1))
    x, w = out[t]
    if 0 <= x + nudge <= 1:
        out[t] = (x + nudge, w)
    return mu1, AtomicDist(out)


def float_copy(dist):
    return AtomicDist([(float(x), float(w)) for x, w in dist.atoms])


@st.composite
def mixed_dists(draw):
    """A tidy exact distribution with floats in one or more of its places."""
    d = draw(exact_dists(max_atoms=6, tidy=True))
    flags = draw(st.lists(st.booleans(), min_size=2 * len(d.atoms), max_size=2 * len(d.atoms)))
    flags[draw(st.integers(0, len(flags) - 1))] = True
    values = [float(v) if f else v for v, f in zip([v for atom in d.atoms for v in atom], flags)]
    return AtomicDist(list(zip(values[::2], values[1::2])))


class TestFloatGaps:
    """Float distributions take the support-gap sweep of exact ones on
    float64 arrays: the values of the float loop it replaced, bit for bit.
    Mixed ones take the same float view."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(dist_strategy(), exact_dists().map(float_copy)))
    def test_gaps_and_conjugate_match_the_float_loop(self, d):
        indices, atoms = support_gaps(d)
        want_indices, want_atoms = oracle_support_gaps(d)
        assert indices == want_indices
        assert typed([v for atom in atoms for v in atom]) == typed(
            [v for atom in want_atoms for v in atom])
        assert typed_atoms(conjugate(d)) == typed_atoms(oracle_conjugate(d))

    @settings(max_examples=100, deadline=None)
    @given(mixed_dists())
    def test_mixed_gaps_are_those_of_the_float_copy(self, d):
        indices, atoms = support_gaps(d)
        want_indices, want_atoms = support_gaps(float_copy(d))
        assert indices == want_indices
        values = [v for atom in atoms for v in atom]
        assert all(type(v) is float for v in values)
        assert typed(values) == typed([v for atom in want_atoms for v in atom])
        assert typed_atoms(conjugate(d)) == typed_atoms(conjugate(float_copy(d)))

    def test_point_mass_at_a_float(self):
        # The weight is the int 1; the gaps are floats all the same.
        indices, atoms = support_gaps(point_mass(0.3))
        assert indices == [0, 1]
        assert typed([v for atom in atoms for v in atom]) == typed([1.0, 0.3, 0.0, 0.7])
        assert typed_atoms(conjugate(point_mass(0.3))) == typed([0.0, 0.7, 1.0, 0.3])


class TestExactCertificate:
    @settings(max_examples=200, deadline=None)
    @given(exact_contractions())
    def test_matches_fraction_sweep(self, pair):
        mu1, mu2 = pair
        assume(0 < oracle_mean(mu1) < 1 and 0 < oracle_mean(mu2) < 1)
        got = feasibility_certificate(mu1, mu2)
        want = oracle_certificate(mu1, mu2, 1e-9)
        assert (got is None) == (want is None)
        if got is None:
            return
        assert typed(got.pmf.ravel().tolist()) == typed(want.pmf.ravel().tolist())
        assert got.pmf.shape == want.pmf.shape
        if oracle_mean(mu1) == oracle_mean(mu2) and reproducible(mu1) and reproducible(mu2):
            # An exactly feasible pair is reproduced exactly.
            assert posterior_dist(got, 0).atoms == mu1.atoms
            assert posterior_dist(got, 1).atoms == mu2.atoms

    @settings(max_examples=100, deadline=None)
    @given(exact_dists(max_atoms=8, tidy=True))
    def test_conjugate_pair_reproduced(self, mu1):
        assume(0 < oracle_mean(mu1) < 1)
        mu2 = conjugate(mu1)
        assert reproducible(mu1) and reproducible(mu2)
        cert = feasibility_certificate(mu1, mu2)
        assert typed(cert.pmf.ravel().tolist()) == typed(
            oracle_certificate(mu1, mu2, 1e-9).pmf.ravel().tolist())
        assert posterior_dist(cert, 0).atoms == mu1.atoms
        assert posterior_dist(cert, 1).atoms == mu2.atoms


class _Atoms:
    """Atoms without a distribution type: ``dists_close`` then compares them
    by its grouped path, with no shortcut for equal atoms."""

    def __init__(self, atoms):
        self.atoms = atoms


@st.composite
def close_pairs(draw):
    """Two AtomicDist or two SimplexDist, float or exact, often equal."""
    exact = draw(st.booleans())
    m = draw(st.sampled_from([1, 3]))
    value = st.integers(0, 4).map(lambda v: F(v, 4) if exact else v / 4)

    def dist(atoms):
        if m == 1:
            return AtomicDist([(x[0], w) for x, w in atoms])
        return SimplexDist(atoms)

    def draw_atoms():
        k = draw(st.integers(1, 4))
        vecs = draw(st.lists(st.lists(value, min_size=m - 1 or 1, max_size=m - 1 or 1),
                             min_size=k, max_size=k, unique_by=tuple))
        if m > 1:
            vecs = [[*v, 1 - sum(v)] for v in vecs if sum(v) <= 1] or [[0, 0, 1]]
        raw = draw(st.lists(st.integers(1, 5), min_size=len(vecs), max_size=len(vecs)))
        return [(tuple(v), F(r, sum(raw)) if exact else r / sum(raw)) for v, r in zip(vecs, raw)]

    a = dist(draw_atoms())
    b = a if draw(st.booleans()) else dist(draw_atoms())
    if draw(st.booleans()):
        b = type(a)(list(b.atoms))  # equal atoms, another object
    return a, b


class TestDistsCloseShortcut:
    @settings(max_examples=300, deadline=None)
    @given(close_pairs(), st.sampled_from([0, 1e-12, ORDER_TOL, 0.3]))
    def test_equals_the_grouped_path(self, pair, tol):
        a, b = pair
        assert dists_close(a, b, tol) == dists_close(a, _Atoms(b.atoms), tol)
        if a.atoms == b.atoms:
            assert dists_close(a, _Atoms(b.atoms), 0)
