"""Parent-versus-change ladder of the exact simplex and its callers.

    python notes/bench_exact_lp.py PARENT_TREE CHANGE_TREE --out BENCH_8.json

The harness is ``notes/ladder.py``: each tree runs in its own interpreter,
alternately, and every case's answers are compared across the trees.  The
cases are ``lp.solve_lp`` on the transportation ladder of the ``exact_lp``
workload, ``solve_zero_sum`` on n x n games and ``designer_optimum`` on
rock-paper-scissors and two random games, each on exact and, where the
workload has them, float inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import ladder

TRANSPORT = ((2, 4), (2, 8), (3, 8), (3, 16))
GAMES = range(3, 9)
DESIGNERS = ((3, 2), (4, 3))


def cases():
    """(op, path, size fields, call) for every rung, inputs seeded by name."""
    import privsig
    from privsig import lp
    from workloads import RPS_GAME, RPS_PAYOFFS, random_game, transport_lp

    out = []
    for exact in (True, False):
        path = "exact" if exact else "float"
        for supplies, demands in TRANSPORT:
            rng = random.Random(f"bench8/transport/{supplies}x{demands}/{path}")
            objective, cons = transport_lp(rng, supplies, demands, exact)
            out.append(("solve_lp", path, {"supplies": supplies, "demands": demands},
                        lambda o=objective, c=cons: lp.solve_lp(o, c, maximize=True)))
        for n in GAMES:
            u = random_game(random.Random(f"bench8/game/{n}/{path}"), n, exact)
            out.append(("solve_zero_sum", path, {"n": n},
                        lambda u=u: privsig.solve_zero_sum(u)))

    problems = [((3, 3, 2), RPS_GAME, RPS_PAYOFFS, [Fraction(1, 2)] * 2)]
    for n, states in DESIGNERS:
        rng = random.Random(f"bench8/designer/{n}x{n}x{states}")
        game = random_game(rng, n, True)
        payoffs = [[[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
                   for _ in range(states)]
        raw = [rng.randint(1, 5) for _ in range(states)]
        problems.append(((n, n, states), game, payoffs, [Fraction(v, sum(raw)) for v in raw]))
    for (n1, n2, states), game, payoffs, prior in problems:
        problem = privsig.DesignerProblem(game, payoffs, prior)
        out.append(("designer_optimum", "exact",
                    {"game": "rps" if game is RPS_GAME else "random",
                     "actions": [n1, n2], "states": states},
                    lambda p=problem: privsig.designer_optimum(p)))
    return out


INPUTS = (
    "transportation LPs are perfbench.workloads.transport_lp(random.Random("
    "f'bench8/transport/{s}x{d}/{path}'), s, d, exact); games are "
    "perfbench.workloads.random_game(random.Random(f'bench8/game/{n}/{path}'), n, exact); "
    "the rps designer problem is perfbench.workloads.RPS_GAME and RPS_PAYOFFS with "
    "prior (1/2, 1/2), and each random one draws, from random.Random("
    "f'bench8/designer/{n}x{n}x{states}'), an exact random_game, payoffs 0..5 and a "
    "prior of integers 1..5 over their sum, as perfbench's designer workload does; "
    "designer_optimum includes its zero-sum solve."
)


if __name__ == "__main__":
    ladder.main(__file__, cases, (), INPUTS)
