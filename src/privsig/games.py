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
verifies it.  All arithmetic is exact: payoffs are coerced to Fractions and
optima like 10/9 are returned as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._num import PROBABILITY_TOL, as_fraction
from .errors import ValidationError
from .lp import EQ, GEQ, solve_lp


def _table(rows, arity=2):
    out = tuple(tuple(as_fraction(v) for v in row) for row in rows)
    if arity == 2:
        widths = {len(r) for r in out}
        if len(widths) != 1:
            raise ValidationError("payoff table rows have mixed lengths")
    return out


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

    Solves the maximin LP for each player and checks that the two exact
    values are equal, as LP duality says they are.
    Returns ``(strategy1, strategy2, value)`` with exact rational entries.
    """
    table = _table(u)
    n1, n2 = len(table), len(table[0])
    sigma1, v1 = _maximin(table, n1, n2, row_player=True)
    sigma2, v2 = _maximin(table, n1, n2, row_player=False)
    if v1 != v2:
        raise ArithmeticError("maximin values of the two players disagree")
    return sigma1, sigma2, v1


def _maximin(table, n1, n2, row_player):
    n_own = n1 if row_player else n2
    n_other = n2 if row_player else n1
    # Variables: p_1..p_n_own, v_plus, v_minus (value = v_plus - v_minus).
    n_vars = n_own + 2
    cons = []
    for j in range(n_other):
        row = [Fraction(0)] * n_vars
        for i in range(n_own):
            gain = table[i][j] if row_player else -table[j][i]
            row[i] = gain
        row[n_own] = Fraction(-1)
        row[n_own + 1] = Fraction(1)
        cons.append((row, GEQ, 0))
    cons.append(([1] * n_own + [0, 0], EQ, 1))
    objective = [0] * n_own + [1, -1]
    res = solve_lp(objective, cons, maximize=True)
    if not res.optimal:
        raise ArithmeticError(f"zero-sum LP ended {res.status}")
    strategy = tuple(res.x[:n_own])
    value = res.value if row_player else -res.value
    return strategy, value


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
        game = _table(game)
        payoffs = tuple(_table(t) for t in designer_payoffs)
        prior = _probability_vector(prior, "prior")
        if len(payoffs) != len(prior):
            raise ValidationError("one designer table per state is required")
        n1, n2 = len(game), len(game[0])
        for t in payoffs:
            if len(t) != n1 or any(len(r) != n2 for r in t):
                raise ValidationError("designer tables must match the action sets")
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
    output deterministic.
    """
    n1, n2 = problem.n_actions
    eq = problem.equilibrium_product()
    live = [k for k in range(problem.n_states) if problem.prior[k] > 0]
    n_cells = n1 * n2
    n_vars = len(live) * n_cells

    def var(ki, a1, a2):
        return ki * n_cells + a1 * n2 + a2

    base = []
    for ki in range(len(live)):
        row = [Fraction(0)] * n_vars
        for t in range(n_cells):
            row[ki * n_cells + t] = Fraction(1)
        base.append((row, EQ, 1))
    for a1 in range(n1):
        for a2 in range(n2):
            row = [Fraction(0)] * n_vars
            for ki, k in enumerate(live):
                row[var(ki, a1, a2)] = problem.prior[k]
            base.append((row, EQ, eq[a1][a2]))

    objective = [Fraction(0)] * n_vars
    for ki, k in enumerate(live):
        for a1 in range(n1):
            for a2 in range(n2):
                objective[var(ki, a1, a2)] = (
                    problem.prior[k] * problem.designer_payoffs[k][a1][a2]
                )

    res = solve_lp(objective, base, maximize=True)
    if not res.optimal:
        raise ArithmeticError(f"designer LP ended {res.status}")
    payoff = res.value

    # Lexicographic refinement: pin the optimal value, then maximize each
    # kernel coordinate in turn.  Once the coordinates before it are pinned,
    # the last cell of a state is forced by its row sum and every cell of
    # the last live state by its column sum; those are read off the
    # constraints instead of solved for.
    cons = list(base) + [(objective, EQ, payoff)]
    solution = []
    last = len(live) - 1
    for t in range(n_vars):
        ki, cell = divmod(t, n_cells)
        if ki == last:
            taken = sum(
                problem.prior[live[kj]] * solution[kj * n_cells + cell]
                for kj in range(last)
            )
            value = (eq[cell // n2][cell % n2] - taken) / problem.prior[live[ki]]
        elif cell == n_cells - 1:
            value = Fraction(1) - sum(solution[t - cell:t])
        else:
            probe = [Fraction(0)] * n_vars
            probe[t] = Fraction(1)
            step = solve_lp(probe, cons, maximize=True)
            if not step.optimal:
                raise ArithmeticError("lexicographic refinement LP failed")
            value = step.value
            cons.append((probe, EQ, value))
        solution.append(value)

    kernel = []
    for k in range(problem.n_states):
        if k in live:
            ki = live.index(k)
            kernel.append(tuple(
                tuple(solution[var(ki, a1, a2)] for a2 in range(n2))
                for a1 in range(n1)
            ))
        else:
            kernel.append(eq)
    return tuple(kernel), payoff


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
