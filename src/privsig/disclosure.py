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


def simulate_disclosure(s: FiniteStructure, n_samples: int, seed=0):
    """Vectorized draws of (s1 value, disclosure value) pairs.

    Samples ``(state, s1)`` from the table, then applies
    :func:`sample_disclosure` with one uniform draw per sample.  Returns a
    pair of numpy arrays ``(s1_values, disclosure_values)``.
    """
    if s.m != 2 or s.n != 1:
        raise ValidationError("disclosure sampling needs m = 2 states and one agent")
    if n_samples < 1:
        raise ValidationError("need at least one sample")
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
