"""Parent-versus-change ladder of the exact-table operations.

    python notes/bench_exact_tables.py PARENT_TREE CHANGE_TREE --out BENCH_7.json

Each tree is a checkout of this repository.  Each is measured in its own
interpreter, which imports privsig from the tree's ``src/`` and the input
generators and answer canonicalizer from its ``perfbench/``.  The trees run
alternately, ``--runs`` times each, and every case reports the median over
all of its timed calls.  A case's answers from the two trees are compared
through ``perfbench.checks.canon``, so a faster wrong answer shows as
``"same_answer": false``.  Timings are wall time on one thread and
include building every returned structure's ``pmf``.  The ``targets``
block reads the time limits of the change off the cases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

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


def key(op, path, size):
    return json.dumps([op, path, size])


def worker(tree, repeats):
    """Time every case of ``tree``; print {key: {times_s, answer}} as JSON."""
    sys.path[:0] = [f"{tree}/src", f"{tree}/perfbench"]
    from checks import canon

    result = {}
    for op, path, size, call in cases():
        answer = call()  # warm-up; its answer is the one compared
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        digest = hashlib.sha256(repr(canon(answer)).encode()).hexdigest()
        result[key(op, path, size)] = {"times_s": times, "answer": digest}
    print(json.dumps(result))


def measure(tree, repeats):
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", tree, "--repeats", str(repeats)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--out")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--worker")
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.repeats)
        return
    trees = {"parent": args.parent, "change": args.change}
    samples = {"parent": [], "change": []}
    for run in range(args.runs):
        for side in (("parent", "change") if run % 2 == 0 else ("change", "parent")):
            samples[side].append(measure(trees[side], args.repeats))
    import numpy

    rows, medians = [], {}
    for case in samples["change"][0]:
        op, path, size = json.loads(case)
        row = {"op": op, "path": path, **size}
        for side in ("parent", "change"):
            runs = [s[case] for s in samples[side] if case in s]
            times = [t for r in runs for t in r["times_s"]]
            row[f"{side}_median_s"] = round(statistics.median(times), 6) if times else None
        answers = {s[case]["answer"] for side in samples for s in samples[side] if case in s}
        if row["parent_median_s"] is not None:
            row["speedup"] = round(row["parent_median_s"] / row["change_median_s"], 1)
            row["same_answer"] = len(answers) == 1
        else:
            row["speedup"] = row["same_answer"] = None
            row["repeatable_answer"] = len(answers) == 1
        rows.append(row)
        medians[case] = row["change_median_s"]
    targets = {}
    for name, op, path, size, limit in TARGETS:
        median = medians[key(op, path, size)]
        targets[name] = {"change_median_s": median, "met": median < limit}
    doc = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "method": (
            f"Median wall time over {args.runs} alternating runs per tree of {args.repeats} "
            "calls each after one warm-up call, each tree in its own interpreter: "
            f"python notes/bench_exact_tables.py PARENT_TREE CHANGE_TREE --runs {args.runs} "
            f"--repeats {args.repeats}. Inputs: the certificate pair is "
            "perfbench.workloads.pair_atoms(random.Random('bench7/cert'), 256, True)[:2]; "
            "grid structures are structure_from_grid(GridPartition(random_cells("
            "random.Random(f'bench7/{m}/{r}'), r, m))), equivalent compares with a row- and "
            "column-permuted grid, and garble uses an exact r x 4 kernel of integers 1..8 "
            "over their row sums. 'FiniteStructure(pmf)' is the public constructor on the "
            "certificate's 2x256x257 table of Fractions; 'FiniteStructure._of(numerators)' "
            "is the change's internal constructor on the same table, which the builders run, "
            "and is not a target. same_answer compares perfbench.checks.canon of each answer, "
            "which tells Fractions, ints and float bits apart."
        ),
        "cases": rows,
        "targets": targets,
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
