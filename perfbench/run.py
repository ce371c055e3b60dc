"""privsig benchmark: one closed-loop client, one seeded workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload belief_order --seed 1 --seconds 15 --trace 0

The runner imports privsig from ``src/`` of the checkout it sits in, builds
the workload's ops from the seed, warms each op class up once, then calls
the ops in order, round after round, until ``--seconds`` of op time have
passed (whole rounds, at least ``MIN_OPS`` ops).  Each call is timed from
outside; its answer is checked after the clock stops, so a fast wrong answer
counts as a failure, as does any exception.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half recording a span per call, and reports per-layer
metrics from the spans.  The last stdout line is the result JSON; the line
before it records the environment.  Spans of a traced run are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: BLAS and OpenMP pools are capped before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYERS = ("beliefs", "structures", "uniqueness", "disclosure", "infobounds",
          "feasibility_welfare", "games", "lp", "serialize", "cli")
SPLIT_LAYERS = ("beliefs", "structures", "feasibility_welfare", "infobounds")
WORKLOADS = ("belief_order", "exact_lp", "grid_tables", "designer")
MIN_OPS = 100
#: Op time between speed probes, and how many probes on each side of a
#: stretch of ops set its speed (see speed.py).
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 4
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 60


def environment():
    """Cap the thread pools and put ``src/`` and the benchmark on the path.
    Runs before numpy is first imported."""
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path[:0] = [str(SRC), str(HERE)]


def setup_phase(workload, seed):
    """Import privsig, build the inputs, warm up one op per class."""
    t0 = time.perf_counter()
    import privsig  # noqa: F401
    t1 = time.perf_counter()
    import workloads

    rounds = workloads.build(workload, seed)
    t2 = time.perf_counter()
    warm = {}
    for op in rounds[0]:
        key = (op.name, op.exact)
        if key not in warm or op.items < warm[key].items:
            warm[key] = op
    for op in warm.values():
        try:
            op.call()
        except Exception:  # noqa: BLE001  the timed loop records it
            pass
    t3 = time.perf_counter()
    return rounds, {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2}


def probe_setup(workload, seed):
    """Median set-up of fresh interpreters, spawn to ready for the first op,
    divided like the op times by the host's speed index around it."""
    import speed

    walls, parts, probes = [], [], [speed.speed_index()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = child.stdout.readline()
            walls.append(time.perf_counter() - t0)
            child.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0 or not line:
            raise RuntimeError("set-up probe failed")
        parts.append(json.loads(line))
        probes.append(speed.speed_index())
    index = statistics.median(probes)
    return statistics.median(walls) / index, {
        key: statistics.median(p[key] for p in parts) / index for key in parts[0]
    }


class Verifier:
    """Checks an answer the first time an op returns it; a repeat must
    return an identical answer."""

    def __init__(self):
        from checks import canon

        self.canon = canon
        self.seen = {}
        self.check_errors = Counter()

    def __call__(self, index, op, out):
        digest = hash(self.canon(out))
        if self.seen.get(index) == digest:
            return True
        try:
            ok = bool(op.check(out))
        except Exception as exc:  # noqa: BLE001  a malformed answer
            self.check_errors[f"{op.name}:{type(exc).__name__}"] += 1
            ok = False
        if ok:
            self.seen[index] = digest
        return ok


def measure(ops, rounds, seconds, verify, traced):
    """Call the ops round after round.

    One record per call: (op index, start offset, scaled duration, ok,
    exception type or None, answer is an exact table, measured duration).
    The host's speed index is probed before the loop and after every
    ``PROBE_EVERY_S`` of op time.  Each duration is divided by the median
    index of the ``PROBE_WINDOW`` probes on each side of its stretch, which
    takes out the slow drift of a shared host's speed.  ``rounds`` are
    index ranges into ``ops``.
    """
    import speed

    segments = [[]]
    probes = [speed.speed_index()]
    busy = since_probe = 0.0
    calls = 0
    origin = time.perf_counter()
    deadline = origin + 2 * seconds + 30
    turn = 0
    while (busy < seconds or calls < MIN_OPS) and time.perf_counter() < deadline:
        start, stop = rounds[turn % len(rounds)]
        turn += 1
        for index in range(start, stop):
            op = ops[index]
            t0 = time.perf_counter()
            try:
                out = op.call()
                err = None
            except Exception as exc:  # noqa: BLE001  counted as a failure
                out, err = None, type(exc).__name__
            dt = time.perf_counter() - t0
            busy += dt
            since_probe += dt
            calls += 1
            ok = err is None and verify(index, op, out)
            exact_out = getattr(getattr(out, "pmf", None), "dtype", None) == object
            segments[-1].append((index, t0 - origin if traced else 0.0, dt, ok, err, exact_out))
            if since_probe >= PROBE_EVERY_S:
                probes.append(speed.speed_index())
                segments.append([])
                since_probe = 0.0
    probes.append(speed.speed_index())
    records = []
    for n, segment in enumerate(segments):
        slowdown = statistics.median(probes[max(0, n + 1 - PROBE_WINDOW):n + 1 + PROBE_WINDOW])
        records += [(i, t, dt / slowdown, ok, err, ex, dt) for i, t, dt, ok, err, ex in segment]
    return records


def goodput(ops, records, exact=None):
    """Correct ops per second of (scaled) op time."""
    chosen = [r for r in records if exact is None or ops[r[0]].exact == exact]
    busy = sum(r[2] for r in chosen)
    return sum(1 for r in chosen if r[3]) / busy if busy else 0.0


def percentile_ms(records, q):
    """Harrell-Davis estimate of the q-quantile of per-op latency, in ms.

    A failed op ranks slower than any success; when the nearest-rank
    quantile lands on a failure the metric has no value (None).  The
    estimate weights every order statistic by a Beta((n+1)q, (n+1)(1-q))
    density, so it moves smoothly when ops trade ranks; failures get no
    weight.
    """
    import numpy as np
    from scipy.special import betainc

    lat = np.sort([r[2] if r[3] else math.inf for r in records])
    n = len(lat)
    if math.isinf(lat[max(0, math.ceil(q * n) - 1)]):
        return None
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    finite = np.isfinite(lat)
    return float(np.dot(weights[finite], lat[finite]) / weights[finite].sum()) * 1e3


def end_to_end(ops, records, setup_s):
    return {
        "ops_per_s": (goodput(ops, records), "ops/s"),
        "float_ops_per_s": (goodput(ops, records, exact=False), "ops/s"),
        "exact_ops_per_s": (goodput(ops, records, exact=True), "ops/s"),
        "op_p50_ms": (percentile_ms(records, 0.5), "ms"),
        "op_p90_ms": (percentile_ms(records, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(ops, records, untraced, setup_parts):
    metrics = {}
    for layer in LAYERS:
        mine = [r for r in records if ops[r[0]].layer == layer]
        durations = [r[2] for r in mine]
        metrics[f"{layer}.calls"] = (len(mine), "count")
        metrics[f"{layer}.busy_s"] = (sum(durations), "s")
        metrics[f"{layer}.p50_ms"] = (statistics.median(durations) * 1e3 if mine else 0.0, "ms")
        metrics[f"{layer}.fail"] = (sum(1 for r in mine if not r[3]), "count")
        metrics[f"{layer}.items"] = (sum(ops[r[0]].items for r in mine), "count")
        if layer in SPLIT_LAYERS:
            for kind, exact in (("float", False), ("exact", True)):
                metrics[f"{layer}.{kind}_busy_s"] = (
                    sum(r[2] for r in mine if ops[r[0]].exact == exact), "s")
    exact_certs = [r[5] for r in records
                   if ops[r[0]].name == "feasibility_welfare.feasibility_certificate"
                   and ops[r[0]].exact and r[3]]
    metrics["feasibility_welfare.cert_exact_share"] = (
        sum(exact_certs) / len(exact_certs) if exact_certs else 0.0, "ratio")
    for key, value in setup_parts.items():
        metrics[f"setup.{key}"] = (value, "s")
    traced_rate = goodput(ops, records)
    untraced_rate = goodput(ops, untraced)
    metrics["trace.overhead_share"] = (
        1 - traced_rate / untraced_rate if untraced_rate else 0.0, "ratio")
    return metrics


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def env_record(args):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "threads_now": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }


def write_trace(args, ops, records, env):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for index, start, dt, ok, err, exact_out, raw in records:
            op = ops[index]
            fh.write(json.dumps({
                "op": index, "name": op.name, "layer": op.layer, "exact": op.exact,
                "items": op.items, "start_s": start, "dur_s": dt, "measured_s": raw,
                "ok": ok, "error": err, "exact_out": exact_out,
            }) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="privsig benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "privsig" / "__init__.py").is_file():
        print(f"perfbench: no privsig sources under {SRC}", file=sys.stderr)
        return 2
    environment()
    if args.setup_probe:
        _, parts = setup_phase(args.workload, args.seed)
        print(json.dumps(parts), flush=True)
        return 0

    setup_s, setup_parts = probe_setup(args.workload, args.seed)
    built, _ = setup_phase(args.workload, args.seed)
    ops = [op for ops_of_round in built for op in ops_of_round]
    ends = [0]
    for ops_of_round in built:
        ends.append(ends[-1] + len(ops_of_round))
    rounds = list(zip(ends, ends[1:]))
    verify = Verifier()
    if args.trace:
        # Both halves run the same rounds, so their goodputs compare the
        # same work with and without spans.
        untraced = measure(ops, rounds, args.seconds / 2, verify, traced=False)
        records = measure(ops, rounds, args.seconds / 2, verify, traced=True)
    else:
        untraced = records = measure(ops, rounds, args.seconds, verify, traced=False)

    everything = untraced if records is untraced else untraced + records
    failed = sum(1 for r in everything if not r[3])
    env = env_record(args)
    env["fail_share"] = failed / len(everything)
    env["errors"] = dict(Counter(
        f"{ops[r[0]].name}:{r[4]}" for r in everything if r[4] is not None))
    env["wrong"] = dict(Counter(
        ops[r[0]].name for r in everything if r[4] is None and not r[3]))
    env["check_errors"] = dict(verify.check_errors)
    measured = [(i, t, raw, ok, err, ex, raw) for i, t, _, ok, err, ex, raw in untraced]
    env["unscaled"] = {
        "ops_per_s": goodput(ops, measured),
        "op_p50_ms": percentile_ms(measured, 0.5),
        "op_p90_ms": percentile_ms(measured, 0.9),
        "speed_index": sum(r[6] for r in untraced) / sum(r[2] for r in untraced),
    }
    if args.trace:
        metrics = per_layer(ops, records, untraced, setup_parts)
        write_trace(args, ops, records, env)
    else:
        metrics = end_to_end(ops, records, setup_s)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
