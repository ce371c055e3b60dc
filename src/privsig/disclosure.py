"""Optimal private disclosure for a binary state.

Given a protected signal ``s1`` correlated with a binary state, the most
informative signal about the state that remains statistically independent of
``s1`` induces the conjugate of ``s1``'s belief distribution, and it can be
generated pointwise: conditional on the state being 1 draw uniformly from
``[1 - p(s1), 1]``, conditional on 0 from ``[0, 1 - p(s1)]``.  The draw is
then uniform on [0, 1] regardless of ``s1``, which is exactly privacy.

:func:`finite_disclosure` packages the construction as a finite signal: the
unit interval is cut at the values ``1 - p`` over the distinct posteriors
``p`` of ``s1``, and the disclosed signal is the index of the piece the draw
falls in, giving at most one more value than ``s1`` has distinct posteriors.
"""

from __future__ import annotations

import numpy as np

from ._num import _product_operands
from .beliefs import AtomicDist, conjugate
from .errors import ValidationError
from .structures import FiniteStructure, _posteriors, posterior_dist


def optimal_disclosure_dist(mu1: AtomicDist) -> AtomicDist:
    """Belief distribution of the optimal private disclosure.

    This is the conjugate of the protected signal's belief distribution; it
    Blackwell dominates the belief distribution of every signal independent
    of the protected one, and is the unique maximal choice up to
    equivalence.
    """
    return conjugate(mu1)


def sample_disclosure(p1, omega: int, u):
    """One draw of the disclosure given the realized posterior and state.

    Parameters
    ----------
    p1 : number in [0, 1]
        Realized posterior P(state = 1 | s1).
    omega : 0 or 1
        Realized state.  Must be consistent with ``p1``: a state of 1
        requires ``p1 > 0`` and a state of 0 requires ``p1 < 1``.
    u : number in [0, 1]
        The single uniform draw consumed; injecting it keeps sampling
        deterministic and reproducible.

    Returns the disclosure value in [0, 1]: ``(1 - p1) + u * p1`` when the
    state is 1, ``u * (1 - p1)`` when it is 0.  Conditioned on ``s1`` the
    output is uniform on [0, 1], hence independent of ``s1``.
    """
    if omega not in (0, 1):
        raise ValidationError(f"state must be 0 or 1, got {omega}")
    if not (0 <= p1 <= 1) or not (0 <= u <= 1):
        raise ValidationError("posterior and draw must lie in [0, 1]")
    if omega == 1 and p1 == 0:
        raise ValidationError("state 1 is impossible under posterior 0")
    if omega == 0 and p1 == 1:
        raise ValidationError("state 0 is impossible under posterior 1")
    if omega == 1:
        return (1 - p1) + u * p1
    return u * (1 - p1)


def finite_disclosure(s: FiniteStructure) -> FiniteStructure:
    """Joint structure (state, s1, t) with t the finite optimal disclosure.

    ``s`` must be a one-agent structure over a binary state.  The output is
    private private by construction (the disclosure index is uniform over
    interval lengths regardless of ``s1``), its disclosure posteriors are
    distributed as the conjugate of ``s1``'s, and the disclosure alphabet
    has at most one more value than ``s1`` has distinct posteriors.

    Interval convention: pieces are left-closed right-open in increasing
    order of the cut values ``1 - p``, the rightmost closed.  The posteriors
    ``p`` are the atoms of :func:`posterior_dist`, so values it merges share
    one cut (notes/decisions.md, "Posterior clustering").  With a Fraction
    table the output probabilities are exact.
    """
    if s.m != 2 or s.n != 1:
        raise ValidationError("finite disclosure needs m = 2 states and one agent")
    atoms, value_map = _posteriors(s._num, s._den)
    cuts = [1 - vec[1] for vec, _ in atoms]
    edges = sorted({0, 1, *cuts})
    pieces = list(zip(edges, edges[1:]))  # all positive length by dedup

    # Each piece lies entirely on one side of each value's cut: above it
    # the state is 1.  Zero-probability values carry zero mass either way.
    probs = s._num.sum(axis=0)
    lengths, den = [hi - lo for lo, hi in pieces], None
    if s.exact:
        probs, lengths, den = _product_operands(probs, s._den, lengths)
    mass = np.multiply.outer(probs, np.asarray(lengths, dtype=probs.dtype))
    above = np.array([[lo >= cut for lo, _ in pieces] for cut in cuts])[value_map]
    pmf = np.zeros((2, *mass.shape), dtype=mass.dtype)
    pmf[1][above] = mass[above]
    pmf[0][~above] = mass[~above]
    return FiniteStructure._of(pmf, den)


def revelation_probability(s: FiniteStructure):
    """Mass the optimal disclosure puts on fully revealing posteriors.

    Computed from the conjugate of the protected signal's belief
    distribution: the total weight of its atoms at 0 and 1.
    """
    mu_hat = optimal_disclosure_dist(posterior_dist(s, 0))
    return sum(w for x, w in mu_hat.atoms if x == 0 or x == 1)


#: Guide-table buckets per case: a case boundary makes at most one bucket
#: crowded, so at most about 1/32 of the draws need a binary search.
_BUCKETS_PER_CASE = 32


def _cases(cdf, u):
    """``cdf.searchsorted(u, side="right")``, by a guide table.

    ``cdf`` is nondecreasing with last entry 1.0 and ``u`` holds draws in
    [0, 1).  Bucket b of the table is [b/k, (b+1)/k) with k a power of two,
    so ``cdf * k`` and ``u * k`` are exact and the bucket of a draw is
    ``floor(u * k)``.  lo[b], the number of cdf values <= b/k, counts those
    with ``ceil(cdf * k) <= b``.  A draw in bucket b has lo[b] cdf values at
    or below it unless a cdf value lies in (b/k, (b+1)/k]; only draws in
    such crowded buckets need the binary search.  k grows with the number
    of cases up to the number of draws (notes/decisions.md, "Disclosure
    sampling by a guide table").
    """
    k = 1 << min((_BUCKETS_PER_CASE * len(cdf) - 1).bit_length(), len(u).bit_length() - 1)
    lo = np.bincount(np.ceil(cdf * k).astype(np.intp), minlength=k + 1).cumsum()
    crowded = lo[1:] > lo[:-1]
    bucket = np.multiply(u, k, out=np.empty(len(u), dtype=np.intp), casting="unsafe")
    cases = lo[bucket]
    amb = np.flatnonzero(crowded[bucket])
    cases[amb] = cdf.searchsorted(u[amb], side="right")
    return cases


def _generator(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0:
        return np.random.default_rng(seed)
    raise ValidationError(
        f"field 'seed': expected a non-negative int or a numpy.random.Generator, got {seed!r}"
    )


def simulate_disclosure(s: FiniteStructure, n_samples: int, seed=0):
    """Vectorized draws of (s1 value, disclosure value) pairs.

    Samples ``(state, s1)`` from the table, then applies
    :func:`sample_disclosure` with one uniform draw per sample.  Returns a
    pair of numpy arrays ``(s1_values, disclosure_values)``, ``int64`` and
    ``float64``.  ``seed`` is a non-negative int or a
    ``numpy.random.Generator``, which the draws advance.

    Seeded draws are unchanged from sampling the cases with
    ``Generator.choice(2A, size=n_samples, p=...)`` over the flattened
    table and the disclosure with a second ``Generator.random``: for a given
    seed the arrays are equal bit for bit, and the generator is left in the
    same state.  The cases come from a guide table over the same cdf that
    ``choice`` searches (notes/decisions.md, "Disclosure sampling by a guide
    table").
    """
    if s.m != 2 or s.n != 1:
        raise ValidationError("disclosure sampling needs m = 2 states and one agent")
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)):
        raise ValidationError(
            f"field 'samples': expected an int, got {type(n_samples).__name__}"
        )
    if n_samples < 1:
        raise ValidationError(f"field 'samples': need at least one sample, got {n_samples}")
    rng = _generator(seed)
    joint = np.asarray(s.pmf, dtype=float)  # (2, A)
    n_vals = joint.shape[1]
    flat = joint.ravel()
    flat = flat / flat.sum()
    # The cdf that Generator.choice searches, computed as it does.
    cdf = flat.cumsum()
    cdf /= cdf[-1]
    # Case c = state * A + s1 has s1 = label[c] and the disclosure
    # offset[c] + u * scale[c]: u * (1 - p) in state 0 and (1 - p) + u * p
    # in state 1, rounded as sample_disclosure rounds them.
    probs = joint[0] + joint[1]
    posterior = np.divide(joint[1], probs, out=np.zeros(n_vals), where=probs > 0)
    label = np.arange(2 * n_vals) % n_vals
    table = np.concatenate((np.zeros(n_vals), 1 - posterior, posterior))
    offset, scale = table[:2 * n_vals], table[n_vals:]

    u = rng.random(n_samples)
    cases = _cases(cdf, u)
    rng.random(n_samples, out=u)
    s1 = np.empty(n_samples, dtype=np.int64)
    # s1's buffer is float scratch until the labels go in.  Mode "clip"
    # never applies, as every case is an index of the tables; unlike the
    # default it lets take write to ``out`` without a copy.
    scratch = s1.view(np.float64)
    scale.take(cases, out=scratch, mode="clip")
    u *= scratch
    offset.take(cases, out=scratch, mode="clip")
    u += scratch
    label.take(cases, out=s1, mode="clip")
    return s1, u
