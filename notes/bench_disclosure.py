"""Parent-versus-change ladder of disclosure sampling.

    python notes/bench_disclosure.py PARENT_TREE CHANGE_TREE --runs 4 --out BENCH_15.json

The harness is ``notes/ladder.py``: each tree runs in its own interpreter,
alternately, and every case's answers are compared across the trees.  The
cases are ``simulate_disclosure`` at s1 alphabets A = 8, 64, 512 and 5000
and n = 10, 10^3, 10^5 and 10^6 draws on a float table, plus the exact
table at A = 64, the size of perfbench's ``grid_tables`` exact tables.
Every call uses the same int seed, so the answer is the arrays of draws,
compared bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

import ladder

ALPHABETS = (8, 64, 512, 5000)
DRAWS = (10, 10**3, 10**5, 10**6)


def table(n_vals, exact):
    """A one-agent binary-state table with masses 1 to 1000 of random draw."""
    import numpy as np
    import privsig

    rng = random.Random(f"bench15/{n_vals}")
    masses = [[rng.randint(1, 1000) for _ in range(n_vals)] for _ in range(2)]
    total = sum(map(sum, masses))
    if exact:
        return privsig.FiniteStructure(
            np.array([[Fraction(m, total) for m in row] for row in masses], dtype=object))
    return privsig.FiniteStructure(np.array(masses, dtype=float) / total)


def cases():
    """(op, path, size fields, call) for every rung, inputs seeded by size."""
    import privsig

    rungs = [(False, a) for a in ALPHABETS] + [(True, 64)]
    out = []
    for exact, n_vals in rungs:
        s = table(n_vals, exact)
        for n in DRAWS:
            out.append(("simulate_disclosure", "exact" if exact else "float",
                        {"A": n_vals, "n": n},
                        lambda s=s, n=n: privsig.simulate_disclosure(s, n, 15)))
    return out


INPUTS = (
    "each table has masses drawn from random.Random(f'bench15/{A}').randint(1, 1000) "
    "for both states, divided by their total (floats, or Fractions on the exact path); "
    "every call draws with seed 15."
)


if __name__ == "__main__":
    ladder.main(__file__, cases, (), INPUTS)
