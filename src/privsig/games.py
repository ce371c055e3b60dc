"""State-dependent recommendations for competitors in a zero-sum game.

When two players compete in a zero-sum game with a unique equilibrium, any
signals a designer sends them in equilibrium must be mutually independent:
otherwise one player could exploit information about the other's
recommendation beyond the value of the game.  The marginal over recommended
action pairs is therefore pinned to the equilibrium product distribution,
and the designer's best achievable payoff is a small linear program over the
state-conditional recommendation kernel.

Uniqueness of the (correlated) equilibrium is the caller's responsibility;
it holds for generic zero-sum games and this module documents rather than
verifies it.  The equilibrium itself comes from one LP, the column
player's, whose duals give the row player's strategy; it is certified
exactly before it is returned.  All arithmetic is exact: payoffs are
coerced to Fractions and optima like 10/9 are returned as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from ._num import PROBABILITY_TOL, as_fraction
from .errors import ValidationError
from .lp import EQ, LEQ, _integer_row, solve_lp, solve_lp_lexmax


def _table(rows, field):
    """``rows`` as a nonempty rectangular tuple of Fraction rows."""
    arr = np.asarray(rows, dtype=object)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(
            f"field '{field}': expected a nonempty table of equal-length rows"
        )
    try:
        return tuple(tuple(as_fraction(v) for v in row) for row in arr.tolist())
    except ValidationError as exc:
        raise ValidationError(f"field '{field}': {exc}") from None


def _probability_vector(values, name):
    """Exact probability vector; a total within PROBABILITY_TOL of 1 is divided out."""
    try:
        vec = tuple(as_fraction(v) for v in values)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"field '{name}': {exc}") from None
    total = sum(vec)
    if not vec or any(v < 0 for v in vec) or abs(total - 1) > PROBABILITY_TOL:
        raise ValidationError(f"field '{name}': expected nonnegative entries summing to 1")
    return tuple(v / total for v in vec)


def solve_zero_sum(u):
    """Mixed equilibrium of a zero-sum game from the row player's payoffs.

    One LP gives both strategies (notes/decisions.md, "One LP per zero-sum
    game").  The table goes on integer numerators ``N`` over one common
    denominator ``D`` and is shifted by an integer ``t`` so that every entry
    of ``M = N + t`` is at least 1.  The column player's packing LP
    ``max sum(y)  s.t.  M y <= 1, y >= 0`` has only ``<=`` rows with
    right-hand side 1, so it runs no phase 1; its optimum is ``1 / v_M``
    for the value ``v_M`` of ``M``.  Then ``strategy2 = y / sum(y)``, the
    row player's strategy is the duals over their sum, and the value is
    ``(v_M - t) / D``.  The equilibrium is checked exactly before it is
    returned: the row strategy must secure the value against every column
    and the column strategy concede no more to any row, or
    ``ArithmeticError`` is raised.

    Returns ``(strategy1, strategy2, value)`` with Fraction entries.  Where
    the equilibrium is not unique, which optimal pair comes back is the
    simplex's choice.
    """
    table = _table(u, "u")
    flat, den = _integer_row([v for row in table for v in row], "u")
    n2 = len(table[0])
    nums = [flat[k:k + n2] for k in range(0, len(flat), n2)]
    shift = 1 - min(flat)
    res = solve_lp([1] * n2, [([v + shift for v in row], LEQ, 1) for row in nums])
    if not res.optimal:
        raise ArithmeticError(f"zero-sum LP ended {res.status}")
    # Integer weights proportional to the two strategies.
    p, _ = _integer_row(res.duals, "duals")
    q, _ = _integer_row(res.x, "x")
    # res.value = 1 / v_M, so the value (v_M - shift) / den is:
    total = res.value
    value = Fraction(total.denominator - shift * total.numerator, total.numerator * den)
    _certify_equilibrium(nums, den, p, q, value)
    return _distribution(p), _distribution(q), value


def _distribution(weights):
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _certify_equilibrium(nums, den, p, q, value):
    """Raise ArithmeticError unless the row weights ``p`` and column weights
    ``q``, normalized, give ``min_j (pA)_j == value == max_i (Aq)_i`` for
    ``A = nums / den``.  Only int products: O(n1 * n2) of them."""
    p_sum, q_sum = sum(p), sum(q)
    secured = min(sum(map(mul, p, col)) for col in zip(*nums))
    conceded = max(sum(map(mul, row, q)) for row in nums)
    # (pA)_j = secured / (p_sum * den) and (Aq)_i = conceded / (q_sum * den).
    vn, vd = value.numerator, value.denominator
    if not (
        min(p) >= 0 < p_sum and min(q) >= 0 < q_sum
        and secured * vd == vn * p_sum * den and conceded * vd == vn * q_sum * den
    ):
        raise ArithmeticError("zero-sum equilibrium failed its certificate")


@dataclass(frozen=True)
class DesignerProblem:
    """A zero-sum base game plus a state-dependent designer objective.

    Parameters
    ----------
    game : square table
        Row player's payoffs; the game is zero-sum.
    designer_payoffs : sequence of tables
        ``designer_payoffs[state][a1][a2]`` is the designer's utility.
    prior : probability vector over states
        States with zero prior are allowed; their recommendation kernel is
        unconstrained and set to the equilibrium itself.  Entries are
        coerced to exact rationals; a float vector that misses total mass 1
        by round-off (within ``PROBABILITY_TOL``) is renormalized exactly.
    equilibrium : optional (strategy1, strategy2)
        Supplied product equilibrium; computed from the game when omitted.
        Uniqueness (which makes the marginal constraint binding) is assumed,
        not checked.
    """

    game: tuple
    designer_payoffs: tuple
    prior: tuple
    equilibrium: tuple | None = None

    def __init__(self, game, designer_payoffs, prior, equilibrium=None):
        game = _table(game, "game")
        payoffs = tuple(_table(t, "designer_payoffs") for t in designer_payoffs)
        prior = _probability_vector(prior, "prior")
        if len(payoffs) != len(prior):
            raise ValidationError("field 'designer_payoffs': one table per state is required")
        n1, n2 = len(game), len(game[0])
        for t in payoffs:
            if len(t) != n1 or any(len(r) != n2 for r in t):
                raise ValidationError("field 'designer_payoffs': tables must match the action sets")
        if equilibrium is not None:
            s1 = _probability_vector(equilibrium[0], "strategy1")
            s2 = _probability_vector(equilibrium[1], "strategy2")
            if len(s1) != n1 or len(s2) != n2:
                raise ValidationError("equilibrium strategies must match the action sets")
            equilibrium = (s1, s2)
        object.__setattr__(self, "game", game)
        object.__setattr__(self, "designer_payoffs", payoffs)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "equilibrium", equilibrium)

    @property
    def n_actions(self):
        return len(self.game), len(self.game[0])

    @property
    def n_states(self):
        return len(self.prior)

    def equilibrium_strategies(self):
        if self.equilibrium is not None:
            return self.equilibrium
        s1, s2, _ = solve_zero_sum(self.game)
        return s1, s2

    def equilibrium_product(self):
        """Joint distribution over action pairs under the equilibrium."""
        s1, s2 = self.equilibrium_strategies()
        return tuple(tuple(a * b for b in s2) for a in s1)


def designer_optimum(problem: DesignerProblem):
    """Best designer payoff over private private recommendation schemes.

    Maximizes the expected designer utility over kernels ``q(a1, a2 | state)``
    whose prior-weighted average equals the equilibrium product distribution
    (the privacy constraint on recommendations).  Returns ``(kernel,
    payoff)`` with the kernel indexed ``[state][a1][a2]``; among optimal
    kernels the lexicographically maximal one is returned, which makes the
    output deterministic.  One simplex run finds both: after the payoff, it
    maximizes each kernel coordinate in turn on the optimal face
    (:func:`privsig.lp.solve_lp_lexmax`).
    """
    n1, n2 = problem.n_actions
    eq = problem.equilibrium_product()
    live = [k for k in range(problem.n_states) if problem.prior[k] > 0]
    n_cells = n1 * n2
    n_vars = len(live) * n_cells
    # Variable ki * n_cells + a1 * n2 + a2 is q(a1, a2 | live[ki]): each
    # state's kernel sums to 1, and the prior-weighted kernels to eq.
    constraints = [
        ([int(v // n_cells == ki) for v in range(n_vars)], EQ, 1) for ki in range(len(live))
    ]
    for t in range(n_cells):
        row = [problem.prior[live[v // n_cells]] if v % n_cells == t else 0 for v in range(n_vars)]
        constraints.append((row, EQ, eq[t // n2][t % n2]))
    objective = [
        problem.prior[k] * u for k in live for row in problem.designer_payoffs[k] for u in row
    ]

    res = solve_lp_lexmax(objective, constraints)
    if not res.optimal:
        raise ArithmeticError(f"designer LP ended {res.status}")
    x = iter(res.x)
    kernel = tuple(
        tuple(tuple(next(x) for _ in range(n2)) for _ in range(n1)) if k in live else eq
        for k in range(problem.n_states)
    )
    return kernel, res.value


def independent_baseline(problem: DesignerProblem):
    """Designer payoff from recommending independently of the state."""
    eq = problem.equilibrium_product()
    n1, n2 = problem.n_actions
    total = Fraction(0)
    for k in range(problem.n_states):
        for a1 in range(n1):
            for a2 in range(n2):
                total += (
                    problem.prior[k] * eq[a1][a2]
                    * problem.designer_payoffs[k][a1][a2]
                )
    return total


def relaxed_optimum(problem: DesignerProblem):
    """Designer payoff if actions could be dictated state by state.

    Drops the privacy constraint entirely; an upper bound on
    :func:`designer_optimum`.
    """
    total = Fraction(0)
    for k in range(problem.n_states):
        best = max(max(row) for row in problem.designer_payoffs[k])
        total += problem.prior[k] * best
    return total
