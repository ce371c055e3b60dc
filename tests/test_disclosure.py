"""Optimal private disclosure: distributions, sampling, finite signals."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsig import (
    AtomicDist,
    FiniteStructure,
    ValidationError,
    blackwell_dominates,
    finite_disclosure,
    garble,
    is_pareto_optimal_2x2,
    is_private_private,
    optimal_disclosure_dist,
    point_mass,
    posterior_dist,
    revelation_probability,
    sample_disclosure,
    simulate_disclosure,
)
from privsig.catalog import symmetric_binary_signal
from privsig.cli import run
from privsig.disclosure import _BUCKETS_PER_CASE, _cases
from privsig.serialize import dumps, structure_to_json
from conftest import random_garble_dist

QUARTERS = AtomicDist([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])


class TestOptimalDisclosureDist:
    def test_quarters(self):
        assert optimal_disclosure_dist(QUARTERS).atoms == (
            (F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(1, 4)),
        )

    def test_point_mass_reveals(self):
        assert optimal_disclosure_dist(point_mass(F(2, 5))).atoms == (
            (F(0), F(3, 5)), (F(1), F(2, 5)),
        )

    def test_revelation_probability_formula(self):
        for num in range(11, 20):
            r = F(num, 20)
            s = symmetric_binary_signal(r)
            assert revelation_probability(s) == 2 * (1 - r)


class TestSampler:
    def test_interval_endpoints(self):
        assert sample_disclosure(F(3, 4), 1, 0) == F(1, 4)
        assert sample_disclosure(F(3, 4), 0, 1) == F(1, 4)
        assert sample_disclosure(1, 1, 0.37) == 0.37

    def test_inconsistent_pairs_rejected(self):
        with pytest.raises(ValidationError):
            sample_disclosure(0, 1, 0.5)
        with pytest.raises(ValidationError):
            sample_disclosure(1, 0, 0.5)

    def test_domain(self):
        with pytest.raises(ValidationError):
            sample_disclosure(0.5, 2, 0.5)
        with pytest.raises(ValidationError):
            sample_disclosure(1.5, 1, 0.5)

    def test_uniform_marginal(self):
        s = symmetric_binary_signal(0.75)
        _, draws = simulate_disclosure(s, 200_000, seed=5)
        # Kolmogorov-Smirnov style check against Uniform[0, 1].
        sorted_draws = np.sort(draws)
        grid = np.arange(1, draws.size + 1) / draws.size
        assert np.max(np.abs(sorted_draws - grid)) < 0.005


def choice_oracle(s, n_samples, seed=0):
    """``simulate_disclosure`` as it was written first: the cases from
    ``Generator.choice``, then one ``np.where`` over both states."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    joint = np.asarray(
        [[float(v) for v in row] for row in s.pmf.tolist()]
    )  # (2, A)
    n_vals = joint.shape[1]
    flat = joint.ravel()
    flat = flat / flat.sum()
    cases = rng.choice(2 * n_vals, size=n_samples, p=flat)
    omega = cases // n_vals
    s1 = cases % n_vals
    probs = joint.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        posterior = np.where(probs > 0, joint[1] / np.where(probs > 0, probs, 1), 0.0)
    p1 = posterior[s1]
    u = rng.random(n_samples)
    s2star = np.where(omega == 1, (1 - p1) + u * p1, u * (1 - p1))
    return s1, s2star


@st.composite
def disclosure_tables(draw, max_values=2000):
    """A one-agent binary-state table: float or exact, 1 to ``max_values``
    values of s1, with zero cells, one positive cell per state, p**8-skewed
    masses, masses far below one guide-table bucket, or masses of 1 to 3,
    whose cdf values are rationals of small denominator."""
    n_vals = draw(st.one_of(st.integers(1, 16), st.integers(1, max_values)))
    kind = draw(st.sampled_from(("plain", "zeros", "single", "skewed", "tiny", "small")))
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = 4 if kind == "small" else 1000
    w = [[int(v) for v in row] for row in rng.integers(1, high, size=(2, n_vals))]
    for row in w:
        for j in range(n_vals):
            if kind == "zeros" and rng.random() < 0.5:
                row[j] = 0
            elif kind == "skewed":
                row[j] **= 8
            elif kind == "tiny" and rng.random() < 0.5:
                row[j] *= 10**12  # the cells left alone fall far below one bucket
        if kind == "single":
            row[:] = [0] * n_vals
            row[int(rng.integers(n_vals))] = 1
        if not any(row):
            row[-1] = 1
    total = sum(map(sum, w))
    if exact:
        return FiniteStructure(np.array([[F(v, total) for v in row] for row in w], dtype=object))
    return FiniteStructure(np.array(w, dtype=float) / total)


def choice_cdf(masses):
    """The cdf that ``Generator.choice`` searches for cases of these masses."""
    flat = np.asarray(masses, dtype=float).ravel()
    cdf = np.cumsum(flat / flat.sum())
    return cdf / cdf[-1]


@st.composite
def small_mass_cdfs(draw):
    """The cdf of 2 to 24 masses of 0 to 3: values such as 5/6 or 5/12,
    next to which ``cdf * k`` rounds to an integer unless k is a power of
    two."""
    return choice_cdf(draw(st.lists(st.integers(0, 3), min_size=2, max_size=24).filter(any)))


def tricky_draws(cdf):
    """Draws in [0, 1) on and up to two ulps either side of every cdf value
    and of the bucket edges b / 2**j next to each, for j up to 20."""
    below = cdf[cdf < 1]
    points = [np.zeros(1), below]
    for j in range(21):
        points += [np.floor(below * 2**j) / 2**j, np.ceil(below * 2**j) / 2**j]
    points = np.concatenate(points)
    up, down = np.nextafter(points, 1), np.nextafter(points, 0)
    points = np.concatenate([points, up, down, np.nextafter(up, 1), np.nextafter(down, 0)])
    return points[(points >= 0) & (points < 1)]


class TestSimulateDisclosure:
    @settings(max_examples=200, deadline=None)
    @given(disclosure_tables(), st.integers(0, 6), st.integers(0, 2**32 - 1), st.booleans())
    def test_same_draws_as_choice(self, s, size, seed, as_generator):
        # k is the table size once the sample count no longer caps it.
        k = 1 << (_BUCKETS_PER_CASE * 2 * s.alphabet_sizes[0] - 1).bit_length()
        n = (1, 2, 10, k - 1, k, k + 1, 10**5)[size]
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = choice_oracle(s, n, want_rng if as_generator else seed)
        got = simulate_disclosure(s, n, got_rng if as_generator else seed)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert want_rng.random() == got_rng.random()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(disclosure_tables(max_values=64).map(lambda s: choice_cdf(s.pmf)), small_mass_cdfs()),
           st.sampled_from((0, 10, 1000, 10**5)), st.integers(0, 2**32 - 1))
    def test_guide_table_is_searchsorted(self, cdf, n_uniform, seed):
        # Ties and near-ties that uniform draws almost never hit; the
        # uniform draws set the table size, which grows with the draws.
        u = np.concatenate([tricky_draws(cdf), np.random.default_rng(seed).random(n_uniform)])
        assert np.array_equal(_cases(cdf, u), cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None, True, np.random.SeedSequence(1)])
    def test_seed_must_be_a_count_or_a_generator(self, seed):
        with pytest.raises(ValidationError, match="'seed'"):
            simulate_disclosure(symmetric_binary_signal(0.75), 5, seed)

    @pytest.mark.parametrize("n_samples", [0, -3, 2.0, True, "5", None])
    def test_samples_must_be_a_positive_int(self, n_samples):
        with pytest.raises(ValidationError, match="'samples'"):
            simulate_disclosure(symmetric_binary_signal(0.75), n_samples)

    def test_numpy_integers_are_counts_and_seeds(self):
        s = symmetric_binary_signal(0.75)
        for a, b in zip(simulate_disclosure(s, np.int64(7), np.uint32(3)), choice_oracle(s, 7, 3)):
            assert np.array_equal(a, b)


class TestDiscloseCli:
    def run_disclose(self, capsys, tmp_path, options, samples):
        path = tmp_path / "s.json"
        path.write_text(dumps(structure_to_json(symmetric_binary_signal(F(3, 4)))))
        code = run([*options, "disclose", "--in", str(path), "--samples", samples])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_csv_samples_are_pinned(self, capsys, tmp_path):
        options = ["--format", "csv", "--seed", "7"]
        code, out, _ = self.run_disclose(capsys, tmp_path, options, "5")
        assert code == 0
        assert out == (
            "s1,s2star\n"
            "1,0.90516508404719642\n"
            "1,0.25394897842418107\n"
            "1,0.86592131378707471\n"
            "0,0.59780207156403464\n"
            "0,0.35095121463279055\n"
        )

    @pytest.mark.parametrize("options, samples, field", [
        (["--seed", "-1"], "5", "'seed'"),
        ([], "-3", "'samples'"),
    ], ids=["negative-seed", "negative-samples"])
    def test_bad_sampling_arguments_exit_2(self, capsys, tmp_path, options, samples, field):
        code, out, err = self.run_disclose(capsys, tmp_path, options, samples)
        assert code == 2 and out == ""
        assert err.startswith("error:") and field in err
        assert len(err.strip().splitlines()) == 1

    def test_memory_exhaustion_exits_3(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 711. PiB")

        monkeypatch.setattr("privsig.cli.simulate_disclosure", exhausted)
        code, out, err = self.run_disclose(capsys, tmp_path, [], "5")
        assert code == 3 and out == ""
        assert err.startswith("error:") and "memory" in err
        assert len(err.strip().splitlines()) == 1


class TestFiniteDisclosure:
    def test_three_quarter_structure(self):
        s = symmetric_binary_signal(F(3, 4))
        fd = finite_disclosure(s)
        assert fd.alphabet_sizes == (2, 3)
        assert is_private_private(fd, 0)
        mu_t = posterior_dist(fd, 1)
        assert mu_t.atoms == ((F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(1, 4)))
        assert is_pareto_optimal_2x2(posterior_dist(fd, 0), mu_t, tol=0)
        # Conditional on the signal matching the state the disclosure is
        # uninformative with probability exactly 2/3.
        pmf = fd.pmf
        match_mass = pmf[1, 1, :].sum() + pmf[0, 0, :].sum()
        middle = pmf[1, 1, 1] + pmf[0, 0, 1]
        assert middle / match_mass == F(2, 3)
        # Conditional on a mismatch it always reveals.
        assert pmf[1, 0, 1] == 0 and pmf[0, 1, 1] == 0

    def test_uninformative_signal_gets_full_revelation(self):
        s = FiniteStructure.from_entries(
            2, (2,),
            [(0, (0,), F(3, 10)), (0, (1,), F(3, 10)),
             (1, (0,), F(1, 5)), (1, (1,), F(1, 5))],
            exact=True,
        )
        fd = finite_disclosure(s)
        assert fd.alphabet_sizes[1] == 2
        assert posterior_dist(fd, 1).atoms == ((F(0), F(3, 5)), (F(1), F(2, 5)))

    def test_fully_revealing_signal_gets_nothing(self):
        s = FiniteStructure.from_entries(
            2, (2,),
            [(0, (0,), F(1, 2)), (1, (1,), F(1, 2))],
            exact=True,
        )
        fd = finite_disclosure(s)
        assert fd.alphabet_sizes[1] == 1

    def test_alphabet_bound(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 6))
            weights = rng.dirichlet(np.ones(k))
            posts = np.sort(rng.random(k))
            entries = []
            for v in range(k):
                entries.append((0, (v,), weights[v] * (1 - posts[v])))
                entries.append((1, (v,), weights[v] * posts[v]))
            total = sum(p for _, _, p in entries)
            entries = [(s_, v, p / total) for s_, v, p in entries]
            s = FiniteStructure.from_entries(2, (k,), entries)
            fd = finite_disclosure(s)
            n_posts = len(posterior_dist(s, 0).atoms)
            assert fd.alphabet_sizes[1] <= n_posts + 1
            assert is_private_private(fd, 1e-9)

    def test_shape_validation(self):
        two_agents = FiniteStructure.from_entries(
            2, (2, 2),
            [(0, (0, 0), F(1, 2)), (1, (1, 1), F(1, 2))],
            exact=True,
        )
        with pytest.raises(ValidationError):
            finite_disclosure(two_agents)

    def test_matches_sampler_empirically(self):
        # Dual route: the finite table's (s1, piece) probabilities must
        # agree with binning one million continuous draws at the cut points.
        s = symmetric_binary_signal(0.75)
        fd = finite_disclosure(s)
        s1, draws = simulate_disclosure(s, 400_000, seed=11)
        edges = [0.25, 0.75]
        t = np.digitize(draws, edges)
        table = fd.pmf.sum(axis=0)  # (s1, t) marginal
        for v in range(2):
            for k in range(3):
                want = float(table[v, k])
                got = np.mean((s1 == v) & (t == k))
                se = np.sqrt(want * (1 - want) / draws.size)
                assert abs(got - want) < 5 * se + 1e-9


class TestDominance:
    def test_dominates_garblings_of_itself(self, rng):
        s = symmetric_binary_signal(F(3, 4))
        fd = finite_disclosure(s)
        best = posterior_dist(fd, 1)
        for _ in range(25):
            n_new = int(rng.integers(1, 4))
            kernel = rng.dirichlet(np.ones(n_new), size=3)
            weaker = garble(fd, 1, kernel)
            assert blackwell_dominates(best, posterior_dist(weaker, 1), 1e-9)

    def test_dominates_random_independent_signals(self, rng):
        # Any feasible companion distribution is a contraction of the
        # conjugate, hence dominated by the optimal disclosure.
        for _ in range(25):
            mu1 = random_garble_dist(rng, AtomicDist([(0.1, 0.3), (0.5, 0.4), (0.9, 0.3)]))
            best = optimal_disclosure_dist(mu1)
            other = random_garble_dist(rng, best)
            assert blackwell_dominates(best, other, 1e-9)

    def test_comparative_statics(self):
        # A more accurate protected signal forces a less informative
        # disclosure.
        dists = [
            optimal_disclosure_dist(
                posterior_dist(symmetric_binary_signal(F(num, 20)), 0)
            )
            for num in (11, 13, 15, 17, 19)
        ]
        for weaker, stronger in zip(dists[1:], dists):
            assert blackwell_dominates(stronger, weaker, 1e-12)
