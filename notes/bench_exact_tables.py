"""Parent-versus-change ladder of the exact-table operations.

    python notes/bench_exact_tables.py PARENT_TREE CHANGE_TREE --out BENCH_7.json

The harness is ``notes/ladder.py``: each tree runs in its own interpreter,
alternately, and every case's answers are compared across the trees.
Timings include building every returned structure's ``pmf``.  The
``targets`` block reads the time limits of the change off the cases.
"""

from __future__ import annotations

import random
from fractions import Fraction

import ladder

GRID_R = (32, 64)
GRID_M = (2, 3)
CERT_K = 256


def cases():
    """(op, path, size fields, call) for every rung, inputs seeded by name."""
    import numpy as np
    import privsig
    from workloads import pair_atoms, random_cells

    out = []
    mu1, conj = pair_atoms(random.Random("bench7/cert"), CERT_K, True)[:2]
    mu1, conj = privsig.AtomicDist(mu1), privsig.AtomicDist(conj)
    cert = privsig.feasibility_certificate(mu1, conj)
    pmf = cert.pmf
    out.append(("feasibility_certificate", "exact", {"k": CERT_K},
                lambda: privsig.feasibility_certificate(mu1, conj)))
    out.append(("FiniteStructure(pmf)", "exact", {"shape": list(pmf.shape)},
                lambda: privsig.FiniteStructure(pmf)))
    if hasattr(cert, "_num"):
        # Change only: the constructor the builders run on numerators,
        # validation and the pmf of Fractions together.
        num, den = cert._num, cert._den
        out.append(("FiniteStructure._of(numerators)", "exact", {"shape": list(pmf.shape)},
                    lambda: privsig.FiniteStructure._of(num, den)))
    for exact in (True, False):
        for m in GRID_M:
            for r in GRID_R:
                if not exact and r != 64:
                    continue
                rng = random.Random(f"bench7/{m}/{r}")
                labels = random_cells(rng, r, m)
                s = privsig.structure_from_grid(privsig.GridPartition(labels), exact=exact)
                size = {"m": m, "r": r}
                path = "exact" if exact else "float"
                out.append(("joint_posterior_dist", path, size,
                            lambda s=s: privsig.joint_posterior_dist(s)))
                if not exact:
                    continue
                perm = labels[rng.sample(range(r), r)][:, rng.sample(range(r), r)]
                s_perm = privsig.structure_from_grid(privsig.GridPartition(perm), exact=True)
                raw = np.random.default_rng(r * 10 + m).integers(1, 9, size=(r, 4))
                kern = np.array([[Fraction(int(v), int(row.sum())) for v in row]
                                 for row in raw], dtype=object)
                out += [
                    ("garble", path, size, lambda s=s, k=kern: privsig.garble(s, 1, k)),
                    ("is_private_private", path, size, lambda s=s: privsig.is_private_private(s)),
                    ("direct_revelation", path, size, lambda s=s: privsig.direct_revelation(s)),
                    ("equivalent", path, size,
                     lambda a=s, b=s_perm: privsig.equivalent(a, b)),
                    ("check_quadratic_bound", path, size,
                     lambda s=s: privsig.check_quadratic_bound(s)),
                ]
    return out


#: (target, op, path, size, limit in seconds) that the change must meet.
TARGETS = (
    ("exact k=256 feasibility_certificate under 0.1 s",
     "feasibility_certificate", "exact", {"k": CERT_K}, 0.1),
    ("FiniteStructure.__init__ on the certificate table under 5 ms",
     "FiniteStructure(pmf)", "exact", {"shape": [2, CERT_K, CERT_K + 1]}, 0.005),
    ("float r=64 joint_posterior_dist under 2 ms",
     "joint_posterior_dist", "float", {"m": 2, "r": 64}, 0.002),
)


INPUTS = (
    "the certificate pair is "
    "perfbench.workloads.pair_atoms(random.Random('bench7/cert'), 256, True)[:2]; "
    "grid structures are structure_from_grid(GridPartition(random_cells("
    "random.Random(f'bench7/{m}/{r}'), r, m))), equivalent compares with a row- and "
    "column-permuted grid, and garble uses an exact r x 4 kernel of integers 1..8 "
    "over their row sums. 'FiniteStructure(pmf)' is the public constructor on the "
    "certificate's 2x256x257 table of Fractions; 'FiniteStructure._of(numerators)' "
    "is the change's internal constructor on the same table, which the builders run, "
    "and is not a target."
)


if __name__ == "__main__":
    ladder.main(__file__, cases, TARGETS, INPUTS)
