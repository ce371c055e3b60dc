"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload belief_order --seeds 1-10 --seconds 15

Runs ``run.py`` once per seed, one after another, and prints per metric the
median and the quartile spread ``(Q3 - Q1) / median``, with Q1 and Q3 from
``statistics.quantiles(values, n=4)``; the result lines of all runs go to
``--out`` (JSON lines) when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["env"] = json.loads(lines[-2])["env"]
        results.append(result)
        print(json.dumps({k: v for k, v in result.items() if k != "env"}), file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for result in results:
                fh.write(json.dumps({"workload": args.workload, **result}) + "\n")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            print(f"{name:24s} no value in some run")
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:24s} median {med:12.5g}  spread {share:7.4f}  "
              f"min {min(values):.5g} max {max(values):.5g}")
    print("all correct:", all(r["correct"] for r in results))


if __name__ == "__main__":
    main()
