"""Entropy, mutual information, and feasibility bounds for independent signals.

For mutually independent signals, the paper-and-pencil accounting of "how
much can everyone know" is information-theoretic: the per-agent mutual
informations with the state must fit inside the prior's entropy, with a
strictly positive correction term for a binary state, and the analogous
budget holds for the quadratic (Gini-style) uncertainty index.  Each checker
refuses structures whose signals are not independent, because the
inequalities are simply false there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._num import PROBABILITY_TOL, SLACK_TOL
from .beliefs import AtomicDist
from .errors import ValidationError
from .structures import (
    FiniteStructure,
    SimplexDist,
    joint_posterior_dist,
    posterior_dist,
    require_private_private,
)


def entropy(p) -> float:
    """Shannon entropy of a probability vector, in bits (0 log 0 = 0)."""
    vec = [float(v) for v in p]
    if any(v < 0 for v in vec):
        raise ValidationError("probabilities must be nonnegative")
    if abs(sum(vec) - 1) > PROBABILITY_TOL:
        raise ValidationError(f"probabilities sum to {sum(vec)}, expected 1")
    return -sum(v * math.log2(v) for v in vec if v > 0)


def quadratic_index(p) -> float:
    """Gini-style uncertainty index sum q(1-q) of a probability vector."""
    vec = [float(v) for v in p]
    return sum(v * (1 - v) for v in vec)


def _atoms(mu):
    """(posterior vector, weight) pairs as floats, for either dist type."""
    if isinstance(mu, AtomicDist):
        return [((1 - float(x), float(x)), float(w)) for x, w in mu.atoms]
    if isinstance(mu, SimplexDist):
        return [
            (tuple(float(c) for c in vec), float(w)) for vec, w in mu.atoms
        ]
    raise ValidationError(f"unsupported distribution type {type(mu).__name__}")


def _mean_posterior(pairs):
    m = len(pairs[0][0])
    return tuple(sum(vec[k] * w for vec, w in pairs) for k in range(m))


def mutual_information(mu) -> float:
    """Mutual information between the state and a signal, in bits.

    Evaluated on the signal's posterior distribution (an equivalence
    invariant): entropy of the mean posterior minus the mean posterior
    entropy.  Always in [0, H(prior)].
    """
    pairs = _atoms(mu)
    prior = _mean_posterior(pairs)
    return entropy(prior) - sum(w * entropy(vec) for vec, w in pairs)


def quadratic_information(mu) -> float:
    """Expected reduction of the quadratic uncertainty index; nonnegative."""
    pairs = _atoms(mu)
    prior = _mean_posterior(pairs)
    return quadratic_index(prior) - sum(
        w * quadratic_index(vec) for vec, w in pairs
    )


@dataclass(frozen=True)
class InfoReport:
    """Result of one informativeness bound check.

    ``slack`` is the bound minus the sum of per-agent quantities (or, for
    superadditivity, joint minus sum); nonnegative up to ``-SLACK_TOL`` of
    round-off whenever the precondition held.
    """

    inequality: str           # "superadditivity" | "binary" | "quadratic"
    units: str                # "bits" | "quadratic"
    per_agent: tuple
    joint: float
    bound: float
    slack: float
    per_state_slacks: tuple | None = None


def _guard(report: InfoReport) -> InfoReport:
    if report.slack < SLACK_TOL:
        raise ArithmeticError(
            f"{report.inequality} bound violated by {-report.slack}; "
            "this indicates numerical breakdown, not a counterexample"
        )
    return report


def check_superadditivity(s: FiniteStructure) -> InfoReport:
    """Joint information dominates the sum of per-agent informations.

    Requires mutually independent signals; for dependent signals the
    inequality can fail in either direction, so the checker refuses them.
    ``slack = I(joint) - sum_i I_i >= 0``.
    """
    require_private_private(s)
    per_agent = tuple(
        mutual_information(posterior_dist(s, i)) for i in range(s.n)
    )
    joint = mutual_information(joint_posterior_dist(s))
    return _guard(InfoReport(
        inequality="superadditivity",
        units="bits",
        per_agent=per_agent,
        joint=joint,
        bound=joint,
        slack=joint - sum(per_agent),
    ))


def check_binary_strengthening(s: FiniteStructure) -> InfoReport:
    """Strengthened entropy budget for a binary state.

    ``sum_i I_i <= H(p) - (ln 2 / 8) * sum_{i<j} I_i I_j``: with a binary
    state the prior entropy cannot be fully divided among independent
    signals once two of them are informative.  The ln 2 factor converts the
    natural-log Taylor bound into bits.
    """
    if s.m != 2:
        raise ValidationError("the strengthened bound is for binary states")
    require_private_private(s)
    per_agent = tuple(
        mutual_information(posterior_dist(s, i)) for i in range(s.n)
    )
    joint = mutual_information(joint_posterior_dist(s))
    cross = 0.0
    for i in range(s.n):
        for j in range(i + 1, s.n):
            cross += per_agent[i] * per_agent[j]
    bound = entropy(s.prior) - (math.log(2) / 8) * cross
    return _guard(InfoReport(
        inequality="binary",
        units="bits",
        per_agent=per_agent,
        joint=joint,
        bound=bound,
        slack=bound - sum(per_agent),
    ))


def check_quadratic_bound(s: FiniteStructure) -> InfoReport:
    """Quadratic-index budget: ``sum_i quadratic_information <= H_quad(p)``.

    The proof is an orthogonality argument on centered posteriors and in
    fact gives the inequality one state coordinate at a time, so the report
    also carries per-state slacks ``Var(joint posterior_k) - sum_i
    Var(posterior_i,k)``, each nonnegative.
    """
    require_private_private(s)
    prior = [float(v) for v in s.prior]
    agent_pairs = [_atoms(posterior_dist(s, i)) for i in range(s.n)]
    joint_pairs = _atoms(joint_posterior_dist(s))

    def variances(pairs):
        return [
            sum(w * (vec[k] - prior[k]) ** 2 for vec, w in pairs)
            for k in range(s.m)
        ]

    agent_vars = [variances(pairs) for pairs in agent_pairs]
    joint_vars = variances(joint_pairs)
    per_agent = tuple(sum(v) for v in agent_vars)
    joint = sum(joint_vars)
    per_state = tuple(
        joint_vars[k] - sum(av[k] for av in agent_vars) for k in range(s.m)
    )
    if min(per_state) < SLACK_TOL:
        raise ArithmeticError("per-state quadratic bound violated; numerical breakdown")
    bound = quadratic_index(prior)
    return _guard(InfoReport(
        inequality="quadratic",
        units="quadratic",
        per_agent=per_agent,
        joint=joint,
        bound=bound,
        slack=bound - sum(per_agent),
        per_state_slacks=per_state,
    ))
