"""Parent-versus-change ladder of the belief-distribution order tests.

    python notes/bench_beliefs.py PARENT_TREE CHANGE_TREE --runs 5 --out BENCH_21.json

The harness is ``notes/ladder.py``: each case runs in a fresh interpreter,
the trees alternately, and every case's answers are compared across the
trees.  The inputs are those of perfbench's ``belief_order`` workload:
``pair_atoms`` gives a distribution ``mu1``, its conjugate, a contraction
and a spread of the conjugate.  The cases are the ``AtomicDist``
constructor on ``mu1``'s atoms, ``support_gaps``, ``conjugate``,
``is_mpc``, ``wasserstein1``, ``is_feasible_pair``,
``is_pareto_optimal_2x2`` and ``feasibility_certificate``, at exact
k = 16, 64, 256 and 1024 and at float k = 256, 1024 and 2048; the float
certificate runs at k = 256 only, as in the workload.  The timed
calls reuse their input distributions, as the workload's rounds do; the
``is_feasible_pair (fresh inputs)`` case builds both distributions inside
the call, so it also pays for the constructors and for reading the integer
numerators of exact inputs.
"""

from __future__ import annotations

import random

import ladder

RUNGS = ((False, 256), (False, 1024), (False, 2048),
         (True, 16), (True, 64), (True, 256), (True, 1024))
#: The workload asks for certificates up to this many atoms.
FLOAT_CERT_K = 256


def cases():
    """(op, path, size fields, call) for every rung, inputs seeded by name."""
    import privsig
    from workloads import pair_atoms

    def rung(exact, k, path):
        mu1, conj, inner, _ = pair_atoms(random.Random(f"bench14/{k}/{path}"), k, exact)
        d1, dc, di = (privsig.AtomicDist(a) for a in (mu1, conj, inner))
        out = [
            ("AtomicDist", lambda: privsig.AtomicDist(mu1)),
            ("support_gaps", lambda: privsig.beliefs.support_gaps(d1)),
            ("conjugate", lambda: privsig.conjugate(d1)),
            ("is_mpc", lambda: privsig.is_mpc(di, dc)),
            ("wasserstein1", lambda: privsig.wasserstein1(di, dc)),
            ("is_feasible_pair", lambda: privsig.is_feasible_pair(d1, di)),
            ("is_feasible_pair (fresh inputs)", lambda: privsig.is_feasible_pair(
                privsig.AtomicDist(mu1), privsig.AtomicDist(inner))),
            ("is_pareto_optimal_2x2", lambda: privsig.is_pareto_optimal_2x2(d1, dc)),
        ]
        if exact or k <= FLOAT_CERT_K:
            out.append(("feasibility_certificate",
                        lambda: privsig.feasibility_certificate(d1, dc)))
        return out

    out = []
    for exact, k in RUNGS:
        path = "exact" if exact else "float"
        out += [(op, path, {"k": k}, call) for op, call in rung(exact, k, path)]
    return out


TARGETS = (
    ("exact certificate at k = 256 under 10 ms",
     "feasibility_certificate", "exact", {"k": 256}, 0.010),
    ("exact is_feasible_pair at k = 256 under 2 ms",
     "is_feasible_pair", "exact", {"k": 256}, 0.002),
    ("exact is_pareto_optimal_2x2 at k = 256 under 2 ms",
     "is_pareto_optimal_2x2", "exact", {"k": 256}, 0.002),
)

INPUTS = (
    "each rung draws perfbench.workloads.pair_atoms(random.Random(f'bench14/{k}/{path}'), "
    "k, exact): mu1 has k atoms over the denominator 8k, the contraction merges a third "
    "of the conjugate's atoms pairwise; is_mpc and wasserstein1 compare the contraction "
    "with the conjugate, is_feasible_pair takes (mu1, contraction), is_pareto_optimal_2x2 "
    "and feasibility_certificate take (mu1, conjugate)."
)


if __name__ == "__main__":
    ladder.main(__file__, cases, TARGETS, INPUTS)
