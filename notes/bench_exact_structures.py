"""Parent-versus-change ladder of the structure operations that cluster posteriors.

    python notes/bench_exact_structures.py PARENT_TREE CHANGE_TREE --runs 6 --repeats 20 \
        --out BENCH_16.json

The harness is ``notes/ladder.py``: each tree runs in its own interpreter,
alternately, and every case's answers are compared across the trees.  The
cases are ``structure_from_grid``, ``posterior_dist``, ``equivalent`` (a
table against a row- and column-permuted copy), ``direct_revelation`` and
``garble`` on random grid partitions, exact and float, at r = 8, 16, 32
and 64 with m = 2 and 3 labels, and the exact feasibility certificate on
BENCH_14's inputs at k = 16, 64, 256 and 1024.  Every exact case builds
the ``pmf`` of Fractions of each structure it returns.
"""

from __future__ import annotations

import random
from fractions import Fraction

import ladder

GRID_R = (8, 16, 32, 64)
GRID_M = (2, 3)
CERT_K = (16, 64, 256, 1024)


def grid_cases(r, m, exact):
    """The five grid operations at one size, inputs seeded by the size."""
    import numpy as np
    import privsig
    from workloads import random_cells

    rng = random.Random(f"bench16/{m}/{r}")
    labels = random_cells(rng, r, m)
    perm = labels[rng.sample(range(r), r)][:, rng.sample(range(r), r)]
    grid = privsig.GridPartition(labels)
    s = privsig.structure_from_grid(grid, exact=exact)
    s_perm = privsig.structure_from_grid(privsig.GridPartition(perm), exact=exact)
    raw = np.random.default_rng(r * 10 + m).integers(1, 9, size=(r, 4))
    if exact:
        kern = np.array([[Fraction(int(v), int(row.sum())) for v in row] for row in raw],
                        dtype=object)
    else:
        kern = raw / raw.sum(axis=1, keepdims=True)
    return [
        ("structure_from_grid", lambda: privsig.structure_from_grid(grid, exact=exact)),
        ("posterior_dist", lambda: privsig.posterior_dist(s, 0)),
        ("equivalent", lambda: privsig.equivalent(s, s_perm)),
        ("direct_revelation", lambda: privsig.direct_revelation(s)),
        ("garble", lambda: privsig.garble(s, 1, kern)),
    ]


def cases():
    """(op, path, size fields, call) for every rung."""
    import privsig
    from workloads import pair_atoms

    out = []
    for exact in (False, True):
        path = "exact" if exact else "float"
        for m in GRID_M:
            for r in GRID_R:
                out += [(op, path, {"m": m, "r": r}, call)
                        for op, call in grid_cases(r, m, exact)]
    for k in CERT_K:
        mu1, conj = pair_atoms(random.Random(f"bench14/{k}/exact"), k, True)[:2]
        d1, dc = privsig.AtomicDist(mu1), privsig.AtomicDist(conj)
        out.append(("feasibility_certificate", "exact", {"k": k},
                    lambda d1=d1, dc=dc: privsig.feasibility_certificate(d1, dc)))
    return out


#: (target, op, path, size, limit in seconds) that the change must meet.
TARGETS = (
    ("exact equivalent at r = 64, m = 3 under 5 ms",
     "equivalent", "exact", {"m": 3, "r": 64}, 0.005),
    ("exact posterior_dist at r = 64, m = 3 under 1.5 ms",
     "posterior_dist", "exact", {"m": 3, "r": 64}, 0.0015),
    ("BENCH_14: exact certificate at k = 256 under 10 ms",
     "feasibility_certificate", "exact", {"k": 256}, 0.010),
)

INPUTS = (
    "grid cases draw labels = perfbench.workloads.random_cells("
    "random.Random(f'bench16/{m}/{r}'), r, m), then one row and one column "
    "permutation from the same generator for equivalent's second table; garble "
    "applies an r x 4 kernel of integers 1..8 from numpy.random.default_rng(10 r + m) "
    "over their row sums (Fractions on the exact path) to agent 1. The certificate "
    "takes (mu1, conjugate) of perfbench.workloads.pair_atoms("
    "random.Random(f'bench14/{k}/exact'), k, True), BENCH_14's inputs."
)


if __name__ == "__main__":
    ladder.main(__file__, cases, TARGETS, INPUTS)
