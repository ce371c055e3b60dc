"""Finite structures: posteriors, independence, equivalence, secrets."""

from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from privsig import structures
from privsig.structures import (
    POSTERIOR_MERGE_TOL,
    _cluster,
    _group_rows,
    _posteriors,
    structure_from_grid,
)
from conftest import random_private_structure, three_state_binary_signal


def fuzzy_cells(vec):
    """A 2 x 2 exact fuzzy grid of halves whose cell (1, 0) holds ``vec``."""
    cells = np.full((2, 2, 2), F(1, 2), dtype=object)
    cells[1, 0] = list(vec)
    return cells


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

    def test_exact_fuzzy_grid_tolerances_are_inclusive(self):
        table, prob = F(TABLE_TOL), F(PROBABILITY_TOL)
        tiny = F(1, 2**80)
        for vec in ((-table, 1 + table), (F(0), 1 + prob), (F(1, 2), F(1, 2) - prob), (0, 1)):
            FuzzyGrid(fuzzy_cells(vec))
        with pytest.raises(ValidationError, match="nonnegative"):
            FuzzyGrid(fuzzy_cells((-table - tiny, 1 + table + tiny)))
        for vec in ((F(0), 1 + prob + tiny), (F(1, 2), F(1, 2) - prob - tiny)):
            with pytest.raises(ValidationError, match="sum to 1"):
                FuzzyGrid(fuzzy_cells(vec))

    @pytest.mark.parametrize("vec", [
        (F(1, 2), 0.5), (-TABLE_TOL, F(1) + F(TABLE_TOL)), (-2 * TABLE_TOL, F(1)),
        (F(1, 2), 0.5 + 2 * PROBABILITY_TOL), (F(1, 2), 0.5 + PROBABILITY_TOL / 2),
        (float("nan"), F(1)), (F(0), float("inf")), (F(1, 2**70), 1 - F(1, 2**70)),
        (-F(1, 2**70), 1 + F(1, 2**70)), (F(2**70), 1 - F(2**70)), (F(3, 4), F(1, 2)),
        (True, 0), (F(1, 3), F(1, 3)),
    ])
    def test_fuzzy_grid_verdicts_match_the_cell_loop(self, vec):
        # Exact and mixed float/Fraction cells get the verdict of one Python
        # comparison per value and one sum per cell, the first bad cell first.
        cells = fuzzy_cells(vec)
        cells[1, 1] = [F(1, 2), F(1, 4)]
        expected = None
        for row in cells.reshape(-1, 2).tolist():
            if not all(v >= -TABLE_TOL for v in row):
                expected = "nonnegative"
            elif abs(sum(row) - 1) > PROBABILITY_TOL:
                expected = "sum to 1"
            else:
                continue
            break
        if expected is None:
            FuzzyGrid(cells)
        else:
            with pytest.raises(ValidationError, match=expected):
                FuzzyGrid(cells)

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float32("nan")])
    def test_simplex_dist_rejects_non_finite_entries(self, bad):
        # NaN passed both the sign test and the simplex test.
        with pytest.raises(ValidationError, match="'atoms'.*finite"):
            SimplexDist([((bad, 0.5, 0.5), 1.0)])
        with pytest.raises(ValidationError, match="'atoms'.*finite"):
            SimplexDist([((F(1, 2), bad, F(1, 2)), F(1))])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("nan")])
    def test_simplex_dist_rejects_non_finite_weights(self, bad):
        # A NaN weight was dropped as if it were zero.
        with pytest.raises(ValidationError, match="'atoms'.*finite"):
            SimplexDist([((0.0, 0.5, 0.5), bad)])
        with pytest.raises(ValidationError, match="'atoms'.*finite"):
            SimplexDist([((1.0, 0.0, 0.0), 1.0), ((0.0, 0.5, 0.5), bad)])

    @pytest.mark.parametrize("entry, field", [
        ((0, (-1, 0), 1), "signals"),
        ((0, (0, 2), 1), "signals"),
        ((0, (0, "a"), 1), "signals"),
        ((0, (0, True), 1), "signals"),
        ((0, (0, 0.0), 1), "signals"),
        ((0, (0, 2**70), 1), "signals"),
        ((0, (0,), 1), "signals"),
        ((0, 5, 1), "signals"),
        ((2, (0, 0), 1), "state"),
        ((-1, (0, 0), 1), "state"),
        ((False, (0, 0), 1), "state"),
    ])
    @pytest.mark.parametrize("exact", [False, True])
    def test_from_entries_checks_every_index(self, entry, field, exact):
        # Before the check, (0, (-1, 0)) wrapped to signal 1 by negative indexing.
        with pytest.raises(ValidationError, match=f"'{field}'"):
            FiniteStructure.from_entries(2, (2, 2), [entry, (1, (1, 1), 0)], exact=exact)

    def test_from_entries_adds_repeated_cells(self):
        entries = [(0, (0, 0), F(1, 4)), (0, [0, 0], F(1, 4)), (np.int64(1), (1, np.int32(1)), F(1, 2))]
        s = FiniteStructure.from_entries(2, (2, 2), entries, exact=True)
        assert s.pmf.tolist() == [[[F(1, 2), 0], [0, 0]], [[0, 0], [0, F(1, 2)]]]
        assert FiniteStructure.from_entries(2, (2, 2), entries).pmf[0, 0, 0] == 0.5

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_from_entries_matches_the_entry_loop(self, data):
        # The loop that np.add.at replaced: entries add up cell by cell, in
        # order, so float sums round as they did.
        m = data.draw(st.integers(1, 3))
        sizes = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
        exact = data.draw(st.booleans())
        cells = st.tuples(*(st.integers(0, k - 1) for k in sizes))
        raw = [(state, data.draw(cells), data.draw(st.integers(1, 5))) for state in range(m)]
        raw += data.draw(st.lists(st.tuples(st.integers(0, m - 1), cells, st.integers(1, 5)),
                                  max_size=12))
        total = sum(w for _, _, w in raw)
        entries = [(k, sig, F(w, total) if exact else w / total) for k, sig, w in raw]
        want = np.zeros((m, *sizes), dtype=object if exact else float)
        for k, sig, p in entries:
            want[(k, *sig)] += p
        got = FiniteStructure.from_entries(m, sizes, entries, exact=exact).pmf
        assert got.tolist() == want.tolist()
        assert all(type(v) is (F if exact else float) for v in got.ravel().tolist())

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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_float_total_variation_is_the_in_order_sum(self, n, size, seed):
        # The verdict flips exactly at the total variation of the loop that
        # added |joint - product| left to right, so both agree to the bit.
        pmf = np.random.default_rng(seed).random((2,) + (size,) * n)
        s = FiniteStructure(pmf / pmf.sum())
        joint = s.pmf.sum(axis=0)
        prod = np.ones(())
        for agent in range(n):
            axes = tuple(ax for ax in range(n + 1) if ax != 1 + agent)
            prod = prod * s.pmf.sum(axis=axes).reshape([-1 if k == agent else 1
                                                         for k in range(n)])
        tv = 0
        for v in (joint - prod).ravel().tolist():
            tv += abs(v)
        tv /= 2
        assume(tv > 0)
        assert is_private_private(s, tv)
        assert not is_private_private(s, float(np.nextafter(tv, 0)))

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

    def test_negative_agent_is_refused(self):
        # Agent -1 of a 2 x 2 x 2 table garbled the state axis: the result
        # made the state independent of both signals, with no error.
        s = conditionally_iid_pair(F(3, 4))
        with pytest.raises(ValidationError, match="'agent'"):
            garble(s, -1, np.eye(2))

    def test_agent_past_the_last_is_refused(self):
        # Agent 2 of two agents raised a bare IndexError.
        s = conditionally_iid_pair(F(3, 4))
        with pytest.raises(ValidationError, match="'agent'"):
            garble(s, 2, np.eye(2))

    @pytest.mark.parametrize("agent", [True, False, 1.0, "1", None])
    def test_agent_must_be_an_int(self, agent):
        # posterior_dist(s, True) was read as agent 1.
        s = conditionally_iid_pair(F(3, 4))
        for call in (lambda: garble(s, agent, np.eye(2)), lambda: posterior_dist(s, agent),
                     lambda: s.signal_marginal(agent)):
            with pytest.raises(ValidationError, match="'agent'"):
                call()

    @pytest.mark.parametrize("agent", [1, np.int64(1), np.int8(1)])
    def test_numpy_int_agents_are_ints(self, agent):
        s = conditionally_iid_pair(F(3, 4))
        assert same_structure(garble(s, agent, np.eye(2, dtype=int).astype(object)), s)
        assert posterior_dist(s, agent).atoms == posterior_dist(s, 1).atoms
        assert s.signal_marginal(agent) == s.signal_marginal(1)


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


# ---------------------------------------------------------------------------
# The no-merge guard of _posteriors against a run of _cluster every time
# ---------------------------------------------------------------------------

def always_cluster_posteriors(joint, den=None):
    """``_posteriors`` as it was before the guard: ``_cluster`` on every call."""
    probs = joint.sum(axis=0)
    live = np.flatnonzero(probs > 0)
    cols, weights = joint[:, live].T, probs[live]
    if den is None:
        cols = cols / weights[:, None]
    else:
        cols = cols // np.gcd.reduce(cols, axis=1)[:, None]
    first, group_of = _group_rows(cols)
    totals = np.zeros(len(first), dtype=weights.dtype)
    np.add.at(totals, group_of, weights)
    if den is None:
        vecs = [tuple(v) for v in cols[first].tolist()]
        totals = totals.tolist()
    else:
        vecs = [tuple(F(c, sum(v)) for c in v) for v in cols[first].tolist()]
        totals = [F(w, den) for w in totals.tolist()]
    atoms, label = _cluster(vecs, totals)
    value_map = np.full(joint.shape[1], -1)
    value_map[live] = np.asarray(label, dtype=int)[group_of]
    return atoms, value_map


def typed_equal(a, b):
    """Equal values of equal types, through tuples and lists."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(typed_equal, a, b))
    return type(a) is type(b) and a == b


def same_structure(a, b):
    return (a.exact == b.exact and typed_equal(a.pmf.tolist(), b.pmf.tolist())
            and a._num.dtype == b._num.dtype)


#: Offsets, in units of POSTERIOR_MERGE_TOL, between near-duplicate posteriors.
NUDGES = (0.3, 0.5, 0.6, 0.9, 1.0, 1.1, 1.2, 2.0)


@st.composite
def float_joints(draw):
    """A float ``(states, values)`` joint of 1-4 states and 1-40 values.

    Values repeat a few posteriors, some moved by multiples of
    ``NUDGES`` tol from one coordinate to another: within tol, on it and
    beyond it, singly and in chains.  Some values have probability zero.
    """
    m = draw(st.integers(1, 4))
    base = st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any)
    bases = draw(st.lists(base, min_size=1, max_size=6))
    cols = []
    for _ in range(draw(st.integers(1, 40))):
        post = np.array(draw(st.sampled_from(bases)), dtype=float)
        post /= post.sum()
        if m > 1 and draw(st.booleans()):
            to = int(post.argmax())
            at = draw(st.sampled_from([k for k in range(m) if k != to]))
            nudge = draw(st.sampled_from(NUDGES)) * draw(st.integers(1, 3)) * POSTERIOR_MERGE_TOL
            post[at] += nudge
            post[to] -= nudge
        cols.append(post * draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.0, 3.0])))
    joint = np.array(cols).T
    assume(joint.sum() > 0)
    return joint


@st.composite
def exact_joints(draw):
    """Integer numerators of a ``(states, values)`` joint, and their total.

    Entries are small or a multiple of a large scale, and columns repeat a
    few templates up to a factor and a bump of 1 per entry.  At scales of
    10**5 and more the reduced column sums pass the guard's bound, and a
    bump next to small entries moves a posterior by about 1 / sum**2, so
    the clustering loop runs and merges.  ``int64`` or Python ints.
    """
    m = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1, 7, 10**5, 10**6, 10**8, 10**11]))
    entry = st.one_of(st.integers(0, 3), st.integers(1, 3).map(lambda v: v * scale))
    templates = draw(st.lists(st.lists(entry, min_size=m, max_size=m).filter(any),
                              min_size=1, max_size=6))
    cols = []
    for _ in range(draw(st.integers(1, 40))):
        col = np.array(draw(st.sampled_from(templates)), dtype=np.int64)
        col = col * draw(st.sampled_from([0, 1, 1, 2, 3]))
        cols.append(col + draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    joint = np.array(cols).T
    assume(joint.sum() > 0)
    if draw(st.booleans()):
        joint = joint.astype(object)
    return joint, int(joint.sum())


#: The posteriors (0, 1/2, 1/2) and (tol, 1/2 - tol/2, 1/2 - tol/2): they
#: differ by exactly tol where they first differ and by less after, so
#: they merge.
BOUNDARY_JOINT = np.array([[0.0, 0.5, 0.5],
                           [POSTERIOR_MERGE_TOL, 0.5 - POSTERIOR_MERGE_TOL / 2,
                            0.5 - POSTERIOR_MERGE_TOL / 2]]).T


class TestPosteriorGuard:
    """``_posteriors`` skips ``_cluster`` only when it would merge nothing
    (notes/decisions.md, "When nothing can merge")."""

    @staticmethod
    def check(joint, den=None):
        got_atoms, got_map = _posteriors(joint, den)
        want_atoms, want_map = always_cluster_posteriors(joint, den)
        assert typed_equal(got_atoms, want_atoms)
        assert got_map.dtype == want_map.dtype and np.array_equal(got_map, want_map)

    def test_first_coordinates_exactly_tol_apart_merge(self):
        posteriors = BOUNDARY_JOINT / BOUNDARY_JOINT.sum(axis=0)
        assert posteriors[0, 1] - posteriors[0, 0] == POSTERIOR_MERGE_TOL
        atoms, value_map = _posteriors(BOUNDARY_JOINT)
        assert len(atoms) == 1 and value_map.tolist() == [0, 0]

    def test_exact_posteriors_below_tol_apart_merge(self):
        # Column sums of 10**6: the posteriors 1 / 10**6 and 1 / (10**6 + 1)
        # are about 1e-12 apart, though 10**6 * tol < 1.
        joint = np.array([[1, 1, 1], [10**6 - 1, 10**6, 2]])
        atoms, value_map = _posteriors(joint, int(joint.sum()))
        assert len(atoms) == 2 and value_map.tolist() == [0, 0, 1]
        self.check(joint, int(joint.sum()))

    @settings(max_examples=300, deadline=None)
    @given(float_joints())
    @example(BOUNDARY_JOINT)
    def test_float_joints_match_the_clustering_loop(self, joint):
        self.check(joint)

    @settings(max_examples=300, deadline=None)
    @given(exact_joints())
    def test_exact_joints_match_the_clustering_loop(self, table):
        self.check(*table)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(float_joints(), exact_joints()))
    def test_public_results_do_not_depend_on_the_guard(self, table):
        joint, den = table if isinstance(table, tuple) else (table / table.sum(), None)
        assume((joint.sum(axis=1) > 0).all())
        s = FiniteStructure._of(joint, den)
        # A second agent with two values, independent of the state.
        halves = np.stack([joint, joint], axis=2)
        two = FiniteStructure._of(halves, 2 * den) if den else FiniteStructure._of(halves / 2, None)

        def results():
            values = [posterior_dist(s, 0).atoms, joint_posterior_dist(two).atoms,
                      equivalent(s, direct_revelation(s)), equivalent(two, two)]
            tables = [direct_revelation(s), direct_revelation(two)]
            if s.m == 2:
                tables.append(finite_disclosure(s))
            return values, tables

        values, tables = results()
        with mock.patch.object(structures, "_separated_order", return_value=None):
            want_values, want_tables = results()
        assert typed_equal(values, want_values)
        assert all(map(same_structure, tables, want_tables))
