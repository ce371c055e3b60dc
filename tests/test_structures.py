"""Finite structures: posteriors, independence, equivalence, secrets."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsig import (
    FiniteStructure,
    FuzzyGrid,
    PrivacyError,
    SimplexDist,
    ValidationError,
    direct_revelation,
    dists_close,
    equivalent,
    finite_disclosure,
    garble,
    is_perfect,
    is_private_private,
    joint_posterior_dist,
    posterior_dist,
    reconstruct_secret,
    split_secret,
)
from privsig.catalog import (
    both_observe_state,
    conditionally_iid_pair,
    quarter_three_quarter_blocks,
    symmetric_binary_signal,
    two_bit_structure,
)
from privsig._num import PROBABILITY_TOL, TABLE_TOL, WEIGHT_DROP_TOL
from privsig.structures import POSTERIOR_MERGE_TOL, structure_from_grid
from conftest import random_private_structure, three_state_binary_signal


@pytest.fixture
def blocks():
    return structure_from_grid(quarter_three_quarter_blocks(), exact=True)


class TestValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            FiniteStructure(np.array([[0.5, 0.4]]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            FiniteStructure(np.array([[1.1, -0.1], [0.0, 0.0]]))

    def test_rejects_empty_state(self):
        with pytest.raises(ValidationError):
            FiniteStructure(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="'pmf'.*finite"):
            FiniteStructure(np.array([[0.5, bad], [0.25, 0.25]]))
        with pytest.raises(ValidationError, match="'pmf'.*finite"):
            FiniteStructure(np.array([[F(1, 2), bad], [F(1, 4), F(1, 4)]], dtype=object))

    def test_rejects_numeric_strings_in_object_tables(self):
        strings = np.array([["0.5", "0.25"], ["0", "0.25"]], dtype=object)
        with pytest.raises(ValidationError, match="'pmf'.*numbers"):
            FiniteStructure(strings)
        s = FiniteStructure(np.array([[0.5, 0.25], [0.0, 0.25]]))
        kernel = np.array([["1", "0"], ["0", "1"]], dtype=object)
        with pytest.raises(ValidationError, match="'kernel'.*numbers"):
            garble(s, 0, kernel)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("dtype", [float, object])
    def test_fuzzy_grid_rejects_non_finite_cells(self, bad, dtype):
        cells = np.full((2, 2, 2), F(1, 2), dtype=object)
        cells[0, 1] = [bad, 0.5]
        with pytest.raises(ValidationError, match="'cells'"):
            FuzzyGrid(cells.astype(dtype))

    def test_exact_simplex_dist_tolerances_are_inclusive(self):
        # Exact atoms meet the float tolerances exactly at their boundary.
        table, prob, drop = (F(t) for t in (TABLE_TOL, PROBABILITY_TOL, WEIGHT_DROP_TOL))
        tiny = F(1, 2**80)
        assert SimplexDist([((-table, 1 + table), F(1))]).atoms[0][1] == 1
        with pytest.raises(ValidationError, match="negative entry"):
            SimplexDist([((-table - tiny, 1 + table + tiny), F(1))])
        assert SimplexDist([((F(0), 1 + prob), F(1))]).atoms[0][1] == 1
        with pytest.raises(ValidationError, match="off the simplex"):
            SimplexDist([((F(0), 1 + prob + tiny), F(1))])
        kept, dropped = ((F(1), F(0)), F(1)), ((F(0), F(1)), drop)
        assert len(SimplexDist([kept, dropped]).atoms) == 1
        assert len(SimplexDist([kept, (dropped[0], drop + tiny)]).atoms) == 2
        with pytest.raises(ValidationError, match="weights sum"):
            SimplexDist([((F(1), F(0)), 1 + table + tiny)])

    def test_immutable(self):
        s = symmetric_binary_signal(F(3, 4))
        with pytest.raises(ValueError):
            s.pmf[0, 0] = 1


class TestPosteriors:
    def test_symmetric_binary(self):
        s = symmetric_binary_signal(F(3, 4))
        d = posterior_dist(s, 0)
        assert d.atoms == ((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)))

    def test_uninformative_is_point_mass(self):
        s = FiniteStructure.from_entries(
            2, (2,),
            [(0, (0,), F(3, 16)), (0, (1,), F(3, 16)),
             (1, (0,), F(5, 16)), (1, (1,), F(5, 16))],
            exact=True,
        )
        d = posterior_dist(s, 0)
        assert d.atoms == ((F(5, 8), F(1, 1)),)

    def test_three_state_signal(self):
        d = posterior_dist(three_state_binary_signal(), 0)
        assert isinstance(d, SimplexDist)
        assert d.atoms == (
            ((F(0), F(1, 2), F(1, 2)), F(1, 2)),
            ((F(1, 2), F(1, 2), F(0)), F(1, 2)),
        )

    def test_zero_probability_value_skipped(self):
        s = FiniteStructure.from_entries(
            2, (3,),
            [(0, (0,), F(1, 2)), (1, (2,), F(1, 2))],
            exact=True,
        )
        assert len(posterior_dist(s, 0).atoms) == 2

    def test_martingale(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 4))
            s = random_private_structure(rng, m=m, n=2, resolution=4)
            prior = [float(p) for p in s.prior]
            for agent in range(s.n):
                d = posterior_dist(s, agent)
                if s.m == 2:
                    got = sum(float(x) * float(w) for x, w in d.atoms)
                    assert abs(got - prior[1]) < 1e-10
                else:
                    got = d.mean_posterior()
                    assert max(abs(a - b) for a, b in zip(got, prior)) < 1e-10


class TestPrivacyPerfection:
    def test_product_marginal_is_private(self, blocks):
        assert is_private_private(blocks)

    def test_both_observe_state_not_private(self):
        assert not is_private_private(both_observe_state(F(1, 2)))

    def test_conditionally_iid_not_private(self):
        assert not is_private_private(conditionally_iid_pair(F(3, 4)))

    def test_blocks_perfect(self, blocks):
        assert is_perfect(blocks)

    def test_noisy_not_perfect(self):
        assert not is_perfect(conditionally_iid_pair(F(3, 4)))

    def test_grid_structures_private_and_perfect(self, rng):
        for _ in range(10):
            s = random_private_structure(
                rng, m=int(rng.integers(2, 4)), n=2, resolution=4
            )
            assert is_private_private(s)
            assert is_perfect(s)


class TestEquivalence:
    def test_blocks_equivalent_to_conditional_pair_posteriors(self, blocks):
        # Both agents hold beliefs 1/4 or 3/4 with equal probability, the
        # same distribution the symmetric-signal pair induces.
        other = conditionally_iid_pair(F(3, 4))
        assert equivalent(blocks, other)

    def test_not_equivalent_to_uninformative(self, blocks):
        flat = FiniteStructure.from_entries(
            2, (2, 2),
            [(w, (v1, v2), F(1, 8)) for w in range(2)
             for v1 in range(2) for v2 in range(2)],
            exact=True,
        )
        assert not equivalent(blocks, flat)

    def test_binary_and_simplex_dists_never_close(self, blocks):
        three = posterior_dist(three_state_binary_signal(), 0)
        assert dists_close(three, three, 0)
        assert not dists_close(posterior_dist(blocks, 0), three)

    def test_revelation_is_equivalent_when_an_ulp_reorders_posteriors(self):
        # Revealing rounds the heavy posterior (1/2, 1/6, 1/3) one ulp down
        # in its first coordinate, so it sorts before (1/2, 0, 1/2) instead
        # of after it; the two copies are no longer lexicographic
        # neighbours.
        s = FiniteStructure(np.array([[3, 2, 6, 12], [1, 0, 2, 4], [2, 2, 4, 8]]) / 46)
        revealed = direct_revelation(s)
        assert [v[0] for v, _ in posterior_dist(revealed, 0).atoms][0] < 0.5
        assert dists_close(posterior_dist(revealed, 0), posterior_dist(s, 0), 1e-12)
        assert equivalent(revealed, s)

    def test_mismatched_shapes_error(self, blocks):
        with pytest.raises(ValidationError):
            equivalent(blocks, symmetric_binary_signal(F(3, 4)))

    def test_equivalent_to_own_direct_revelation(self, rng):
        for _ in range(8):
            s = random_private_structure(
                rng, m=int(rng.integers(2, 4)), n=2, resolution=4
            )
            assert equivalent(s, direct_revelation(s))


class TestDirectRevelation:
    def test_blocks_collapse_to_binary(self, blocks):
        d = direct_revelation(blocks)
        assert d.alphabet_sizes == (2, 2)
        for agent in range(2):
            assert posterior_dist(d, agent).atoms == (
                (F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)),
            )

    def test_idempotent_on_direct(self):
        s = symmetric_binary_signal(F(3, 4))
        d = direct_revelation(s)
        assert d.alphabet_sizes == s.alphabet_sizes
        assert np.array_equal(direct_revelation(d).pmf, d.pmf)

    def test_merges_duplicate_posteriors(self):
        # Two signal values with the same posterior collapse to one.
        s = FiniteStructure.from_entries(
            2, (3,),
            [(0, (0,), F(1, 4)), (1, (0,), F(1, 4)),
             (0, (1,), F(1, 8)), (1, (1,), F(1, 8)),
             (0, (2,), F(1, 8)), (1, (2,), F(1, 8))],
            exact=True,
        )
        assert direct_revelation(s).alphabet_sizes == (1,)


class TestGarble:
    def test_garble_keeps_privacy_and_weakens(self, blocks, rng):
        from privsig import blackwell_dominates

        kernel = rng.dirichlet(np.ones(2), size=4)
        g = garble(blocks, 0, kernel)
        assert is_private_private(g)
        assert blackwell_dominates(
            posterior_dist(blocks, 0), posterior_dist(g, 0), 1e-9
        )
        assert dists_close(posterior_dist(g, 1), posterior_dist(blocks, 1), 1e-12)

    def test_kernel_validation(self, blocks):
        with pytest.raises(ValidationError):
            garble(blocks, 0, np.array([[0.5, 0.4]] * 4))

    def test_nan_kernel_row_names_the_kernel(self, blocks):
        kernel = np.array([[0.5, 0.5]] * 3 + [[float("nan"), 1.0]])
        with pytest.raises(ValidationError, match="'kernel'"):
            garble(blocks, 0, kernel)


class TestSecretSplit:
    def test_examples(self):
        r1, r2 = split_secret(0.9, 0.3)
        assert r1 == 0.3 and abs(r2 - 0.2) < 1e-15
        assert abs(reconstruct_secret(r1, r2) - 0.9) < 1e-15
        assert split_secret(0.0, 0.4) == (0.4, 0.4)
        assert split_secret(0.5, 0.5)[1] == 0.0
        assert reconstruct_secret(0.5, 0.0) == 0.5

    def test_round_trip_bulk(self, rng):
        t = rng.random(100_000)
        u = rng.random(100_000)
        for ti, ui in zip(t[:200], u[:200]):
            r1, r2 = split_secret(ti, ui)
            assert abs(reconstruct_secret(r1, r2) - ti) <= 1e-15
        # Vectorized sweep over the full draw for the same identity.
        r2 = (u + t) % 1.0
        back = (r2 - u) % 1.0
        assert np.max(np.abs(back - t)) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValidationError):
            split_secret(1.0, 0.5)
        with pytest.raises(ValidationError):
            reconstruct_secret(0.5, 1.0)


class TestJointPosterior:
    def test_two_bit_joint_reveals(self):
        d = joint_posterior_dist(two_bit_structure())
        assert all(max(vec) == 1 for vec, _ in d.atoms)

    def test_requires_privacy_elsewhere(self):
        from privsig.structures import require_private_private

        with pytest.raises(PrivacyError):
            require_private_private(both_observe_state())


def binary_signal(posteriors, weights):
    """One-agent float structure: value v has posterior and weight v."""
    cols = np.array([[w * (1 - p) for p, w in zip(posteriors, weights)],
                     [w * p for p, w in zip(posteriors, weights)]])
    return FiniteStructure(cols / cols.sum())


@st.composite
def tables(draw):
    """Small exact or float joint tables, m in {2, 3} and n <= 3.

    Some signal values repeat another value's slice up to scale, so their
    posteriors coincide exactly (Fractions) or up to round-off (floats).
    """
    m = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    cells = m * int(np.prod(sizes))
    ints = np.array(draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells)))
    ints = ints.reshape(m, *sizes)
    ints[(slice(None),) + (0,) * len(sizes)] += 1  # full-support prior
    for axis in range(1, ints.ndim):
        for _ in range(draw(st.integers(0, 2))):
            src = draw(st.integers(0, ints.shape[axis] - 1))
            copy = draw(st.integers(1, 3)) * np.take(ints, [src], axis=axis)
            ints = np.concatenate([ints, copy], axis=axis)
    total = int(ints.sum())
    if draw(st.booleans()):
        pmf = np.array([F(int(v), total) for v in ints.ravel()], dtype=object)
        return FiniteStructure(pmf.reshape(ints.shape))
    return FiniteStructure(ints / total)


def same_dist(a, b, exact):
    return a.atoms == b.atoms if exact else dists_close(a, b, 1e-12)


def all_fractions(dist):
    return all(
        isinstance(c, F)
        for x, w in dist.atoms
        for c in (*(x if isinstance(x, tuple) else (x,)), w)
    )


class TestPosteriorClustering:
    """One clustering rule behind posterior_dist, direct_revelation and
    finite_disclosure (notes/decisions.md, "Posterior clustering")."""

    @pytest.mark.parametrize("weights", [(1, 1, 1), (1, 5, 1), (5, 1, 1)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_chain_splits_the_same_way_everywhere(self, weights, reverse):
        # The middle posterior is within tol of both ends, which are 1.2 tol
        # apart: one cluster cannot hold all three, whatever the weights.
        tol = POSTERIOR_MERGE_TOL
        posteriors = [0.3, 0.3 + 0.6 * tol, 0.3 + 1.2 * tol]
        weights = list(weights)
        if reverse:
            posteriors.reverse()
            weights.reverse()
        s = binary_signal(posteriors, weights)
        assert len(posterior_dist(s, 0).atoms) == 2
        assert direct_revelation(s).alphabet_sizes == (2,)
        assert finite_disclosure(s).alphabet_sizes[1] == 3

    def test_duplicates_merge_across_a_posterior_between_them(self):
        # The first two columns share the posterior (1/3, 1/3, 1/3) up to
        # one ulp; the third sorts between them lexicographically.
        c = np.array([1, 1, 1]) / 100
        cols = np.stack([c, c * 2 / 7, np.array([1 / 3, 0, 2 / 3]) * 0.03], axis=1)
        s = FiniteStructure(cols / cols.sum())
        assert len(posterior_dist(s, 0).atoms) == 2
        assert direct_revelation(s).alphabet_sizes == (2,)

    def test_posterior_dist_does_not_cluster_the_atoms_again(self):
        # The heavy middle posterior joins the first cluster; its mean then
        # lies within tol of the last posterior, which anchors a cluster of
        # its own.  A second clustering pass would merge the two atoms.
        tol = POSTERIOR_MERGE_TOL
        firsts = [0.3, 0.3 + 0.9 * tol, 0.3 + 1.1 * tol]
        cols = np.array([[x, 0.5, 0.5 - x] for x in firsts]).T * [1, 10, 1]
        s = FiniteStructure(cols / cols.sum())
        assert direct_revelation(s).alphabet_sizes == (2,)
        assert len(posterior_dist(s, 0).atoms) == 2

    def test_binary_posterior_dist_does_not_cluster_the_atoms_again(self):
        # Binary posteriors are visited from the top.  The heavy middle one
        # joins the top anchor's cluster, whose mean then lies 2e-14 above
        # the bottom one: AtomicDist's own pass would merge the two atoms.
        tol = POSTERIOR_MERGE_TOL
        s = binary_signal([0.3, 0.3 + 0.0002 * tol, 0.3 + 1.0001 * tol], [1, 1e6, 1])
        assert direct_revelation(s).alphabet_sizes == (2,)
        assert len(posterior_dist(s, 0).atoms) == 2

    @settings(max_examples=80, deadline=None)
    @given(tables(), st.data())
    def test_kernel_properties(self, s, data):
        exact = s.exact
        revealed = direct_revelation(s)
        assert revealed.exact == exact
        for agent in range(s.n):
            mu = posterior_dist(s, agent)
            assert revealed.alphabet_sizes[agent] == len(mu.atoms)
            assert same_dist(posterior_dist(revealed, agent), mu, exact)
            if exact:
                assert all_fractions(mu)

        permuted = s.pmf
        for axis in range(1, s.pmf.ndim):
            order = data.draw(st.permutations(range(s.pmf.shape[axis])))
            permuted = np.take(permuted, order, axis=axis)
        joint = joint_posterior_dist(s)
        assert same_dist(joint_posterior_dist(FiniteStructure(permuted)), joint, exact)

        if s.m == 2:
            s1 = FiniteStructure(s.pmf.sum(axis=tuple(range(2, s.pmf.ndim))))
            disclosed = finite_disclosure(s1)
            assert disclosed.exact == exact
            assert disclosed.alphabet_sizes[1] <= len(posterior_dist(s1, 0).atoms) + 1
