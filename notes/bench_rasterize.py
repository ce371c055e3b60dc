"""Parent-versus-change ladder of exact rasterization.

    python notes/bench_rasterize.py PARENT_TREE CHANGE_TREE --out BENCH_9.json

The harness is ``notes/ladder.py``: each tree runs in its own interpreter,
alternately, and every case's answers are compared across the trees.  The
cases are ``rasterize`` of perfbench's ``random_region`` at R = 8, 16, 32
and 64, ``region_area_in_window`` on one window of such a region, and
``serialize.fuzzy_grid_from_json`` on the document of an exact R = 32 grid,
which runs the public ``FuzzyGrid`` constructor on 2048 Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction

import ladder

RESOLUTIONS = (8, 16, 32, 64)
WINDOW = (Fraction(1, 7), Fraction(5, 7), Fraction(1, 3), Fraction(9, 10))


def cases():
    """(op, path, size fields, call) for every rung, inputs seeded by name."""
    import privsig
    from privsig import serialize
    from workloads import random_region

    out = []
    for r in RESOLUTIONS:
        region = random_region(random.Random(f"bench9/region/{r}"))[0]
        out.append(("rasterize", "exact", {"R": r},
                    lambda g=region, r=r: privsig.rasterize(g, r)))
    region = random_region(random.Random("bench9/window"))[0]
    out.append(("region_area_in_window", "exact", {"bands": len(region.bands)},
                lambda: privsig.region_area_in_window(region, *WINDOW)))
    region = random_region(random.Random("bench9/serialize"))[0]
    doc = serialize.fuzzy_grid_to_json(privsig.rasterize(region, 32))
    out.append(("fuzzy_grid_from_json", "exact", {"R": 32},
                lambda: serialize.fuzzy_grid_from_json(doc)))
    return out


#: (target, op, path, size, limit in seconds) that the change must meet.
TARGETS = (
    ("exact R=32 rasterize of random_region under 15 ms",
     "rasterize", "exact", {"R": 32}, 0.015),
)


INPUTS = (
    "regions are perfbench.workloads.random_region(random.Random(f'bench9/region/{R}')) "
    "for rasterize, random_region(random.Random('bench9/window')) for "
    "region_area_in_window on the window [1/7, 5/7] x [1/3, 9/10], and "
    "random_region(random.Random('bench9/serialize')) rasterized at R = 32 and "
    "written by serialize.fuzzy_grid_to_json for fuzzy_grid_from_json."
)


if __name__ == "__main__":
    ladder.main(__file__, cases, TARGETS, INPUTS)
