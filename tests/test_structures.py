"""Finite structures: posteriors, independence, equivalence, secrets."""

from fractions import Fraction as F

import numpy as np
import pytest

from privsig import (
    FiniteStructure,
    PrivacyError,
    SimplexDist,
    ValidationError,
    direct_revelation,
    dists_close,
    equivalent,
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
from privsig.structures import structure_from_grid
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
