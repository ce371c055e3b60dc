"""Parent-versus-change harness shared by the ladders in this directory.

A ladder script defines ``cases()``, a list of ``(op, path, size fields,
call)`` built after privsig is importable, and hands it to :func:`main`
with its targets and the description of its inputs.  Each tree is a
checkout of this repository.  Every case of a tree is measured in a fresh
interpreter, which imports privsig from the tree's ``src/`` and the input
generators and answer canonicalizer from its ``perfbench/``, so no case
runs on a heap that the calls of an earlier case left (each worker still
builds the inputs of every case).  The trees run alternately,
``--runs`` times each, and every case reports the median over all of its
timed calls and, beside it, the quartiles of its per-run medians, which
show how far one run of a tree strays from the next.  A case's answers
from the two trees are compared through ``perfbench.checks.canon``, so a
faster wrong answer shows as ``"same_answer": false``.  Timings are wall time on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def key(op, path, size):
    return json.dumps([op, path, size])


def worker(cases, tree, repeats, case):
    """Time the case keyed ``case`` of ``tree`` and print {times_s, answer}
    as JSON; with no ``case``, print the keys of every case."""
    sys.path[:0] = [f"{tree}/src", f"{tree}/perfbench"]
    from checks import canon

    calls = {key(op, path, size): call for op, path, size, call in cases()}
    if case is None:
        print(json.dumps(list(calls)))
        return
    call = calls[case]
    answer = call()  # warm-up; its answer is the one compared
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    digest = hashlib.sha256(repr(canon(answer)).encode()).hexdigest()
    print(json.dumps({"times_s": times, "answer": digest}))


def quartiles(values):
    """The first and third quartiles of ``values``; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run_worker(script, tree, *args):
    proc = subprocess.run(
        [sys.executable, script, "--worker", tree, *args],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def measure(script, tree, repeats):
    """{key: {times_s, answer}} of every case of ``tree``, each in a fresh
    worker process."""
    return {case: run_worker(script, tree, "--repeats", str(repeats), "--case", case)
            for case in run_worker(script, tree)}


def main(script, cases, targets, inputs, argv=None):
    """Run the ladder of ``script`` and write its JSON document.

    ``targets`` holds ``(target, op, path, size, limit in seconds)`` rows
    that the change must meet; ``inputs`` describes how the cases are built.
    """
    parser = argparse.ArgumentParser(description=f"Parent-versus-change ladder: {script}")
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--out")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--worker")
    parser.add_argument("--case")
    args = parser.parse_args(argv)
    if args.worker:
        worker(cases, args.worker, args.repeats, args.case)
        return
    trees = {"parent": args.parent, "change": args.change}
    samples = {"parent": [], "change": []}
    for run in range(args.runs):
        for side in (("parent", "change") if run % 2 == 0 else ("change", "parent")):
            samples[side].append(measure(script, trees[side], args.repeats))
    import numpy

    rows, medians = [], {}
    for case in samples["change"][0]:
        op, path, size = json.loads(case)
        row = {"op": op, "path": path, **size}
        for side in ("parent", "change"):
            runs = [s[case] for s in samples[side] if case in s]
            times = [t for r in runs for t in r["times_s"]]
            row[f"{side}_median_s"] = round(statistics.median(times), 6) if times else None
            if runs:
                q1, q3 = quartiles([statistics.median(r["times_s"]) for r in runs])
                row[f"{side}_run_q1_s"], row[f"{side}_run_q3_s"] = round(q1, 6), round(q3, 6)
        answers = {s[case]["answer"] for side in samples for s in samples[side] if case in s}
        if row["parent_median_s"] is not None:
            row["speedup"] = round(row["parent_median_s"] / row["change_median_s"], 1)
            row["same_answer"] = len(answers) == 1
        else:
            row["speedup"] = row["same_answer"] = None
            row["repeatable_answer"] = len(answers) == 1
        rows.append(row)
        medians[case] = row["change_median_s"]
    doc = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "method": (
            f"Median wall time over {args.runs} alternating runs per tree of {args.repeats} "
            "calls each after one warm-up call, each case in a fresh interpreter: "
            f"python notes/{os.path.basename(script)} PARENT_TREE CHANGE_TREE --runs {args.runs} "
            f"--repeats {args.repeats}. The run quartiles are those of the per-run medians "
            f"of each tree. Inputs: {inputs} same_answer compares "
            "perfbench.checks.canon of each answer, which tells Fractions, ints and "
            "float bits apart."
        ),
        "cases": rows,
    }
    if targets:
        doc["targets"] = {
            name: {"change_median_s": medians[key(op, path, size)],
                   "met": medians[key(op, path, size)] < limit}
            for name, op, path, size, limit in targets
        }
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
