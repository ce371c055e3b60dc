"""Parent-versus-change ladder of the two-dimensional uniqueness tests.

    python notes/bench_uniqueness.py PARENT_TREE CHANGE_TREE --out BENCH_10.json

The harness is ``notes/ladder.py``: each tree runs in its own interpreter,
alternately, and every case's answers are compared across the trees.  The
cases are ``partition_uniqueness_grid`` at R = 8, 16 and 32 on perfbench's
threshold partition and on random labelings with two and three states, and
``additive_set_test`` at R = 8 to 64 on a permuted Ferrers diagram and on a
random binary grid.  An additive case answers with its verdict: the scores
of a feasible set are not unique, so the LP's vertex and the rank levels
may differ while both separate the set.
"""

from __future__ import annotations

import random

import ladder

PARTITION_R = (8, 16, 32)
ADDITIVE_R = (8, 16, 32, 64)


def cases():
    """(op, path, size fields, call) for every rung, inputs seeded by name."""
    import privsig
    from workloads import ferrers, random_cells, threshold_partition

    out = []
    for r in PARTITION_R:
        for kind, make in (("threshold", threshold_partition),
                           ("random m=2", lambda rng, r: random_cells(rng, r, 2)),
                           ("random m=3", lambda rng, r: random_cells(rng, r, 3))):
            part = privsig.GridPartition(make(random.Random(f"bench10/{kind}/{r}"), r))
            out.append(("partition_uniqueness_grid", "float", {"R": r, "grid": kind},
                        lambda p=part: privsig.partition_uniqueness_grid(p)))
    for r in ADDITIVE_R:
        for kind, make in (("ferrers", ferrers),
                           ("random", lambda rng, r: random_cells(rng, r, 2))):
            grid = privsig.GridSet(make(random.Random(f"bench10/{kind}/{r}"), r))
            out.append(("additive_set_test", "float", {"R": r, "grid": kind},
                        lambda g=grid: privsig.additive_set_test(g) is not None))
    return out


#: (target, op, path, size, limit in seconds) that the change must meet.
TARGETS = (
    ("partition R=32 random m=3 under 5 ms",
     "partition_uniqueness_grid", "float", {"R": 32, "grid": "random m=3"}, 0.005),
    ("additive R=64 Ferrers under 10 ms",
     "additive_set_test", "float", {"R": 64, "grid": "ferrers"}, 0.010),
)


INPUTS = (
    "grids come from perfbench.workloads (threshold_partition, random_cells with "
    "m = 2 or 3, ferrers), each on random.Random(f'bench10/{kind}/{R}'); "
    "additive_set_test runs at its default epsilon = 1/(4R), and its answer is "
    "the verdict (scores found or not)."
)


if __name__ == "__main__":
    ladder.main(__file__, cases, TARGETS, INPUTS)
