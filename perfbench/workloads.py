"""Seeded workloads: each is a fixed list of ops, one call into privsig each.

A workload is built from ``(name, seed)`` only.  The seed changes the
contents of every input; the op classes, their counts and the size ladder
are fixed per workload, so two seeds exercise the same code on the same
sizes.  Every input is built through privsig constructors, and every op
carries the facts its check needs, known by construction (a frontier,
interior or infeasible pair; a Ferrers or random grid) or recomputed by
``checks`` outside the timed window.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import privsig
from privsig import cli, lp, serialize

from checks import (
    FLOAT_TOL,
    LP_TOL,
    agent_posteriors,
    atoms_match,
    binary_posteriors,
    canon,
    check_additive,
    check_certificate,
    check_designer,
    check_dist,
    check_lp,
    check_zero_sum,
    close,
    designer_model,
    fuzzy_projections,
    gale_ryser_unique,
    grid_info,
    has_label_checkerboard,
    has_switch,
    highs_value,
    is_independent,
    is_table,
    projections,
    ref_conjugate,
    ref_w1,
    verdict,
)

#: Belief-ladder atom counts.
FLOAT_K = (16, 64, 256, 1024, 2048)
EXACT_K = (16, 64, 256)
#: Certificates are asked for on frontier pairs up to this many atoms.
CERT_K = 256
#: Grid ladder.
GRID_R = (8, 16, 32, 64)
PARTITION_R = (8, 16, 32)
#: Interior pairs for the exact coupling LP: (atoms of mu1, atoms of mu2).
COUPLING_KJ = ((3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 5), (6, 6), (7, 6))
#: Pairs above the exact LP budget (150 cells) that take the HiGHS path.
HIGHS_KJ = (13, 12)
SIM_DRAWS = 100_000


@dataclass
class Op:
    """One timed call.  ``name`` is ``<layer>.<function>``."""

    name: str
    exact: bool
    items: int
    size: int
    call: Callable[[], object]
    check: Callable[[object], bool]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def random_atoms(rng, k, exact):
    """k atoms at distinct locations in (0, 1) with positive weights."""
    den = 8 * k
    slots = sorted(rng.sample(range(1, den), k))
    if exact:
        # Weights are a random composition of one common denominator, so
        # the size of the rationals does not vary with the seed.
        cuts = sorted(rng.sample(range(1, den), k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        return [(Fraction(i, den), Fraction(p, den)) for i, p in zip(slots, parts)]
    raw = [rng.randint(1, 8) for _ in range(k)]
    locs = [(i + 0.5 * rng.random()) / den for i in slots]
    weights = [a + rng.random() for a in raw]
    total = sum(weights)
    return [(x, w / total) for x, w in zip(locs, weights)]


def contract(rng, atoms, merges):
    """Merge ``merges`` disjoint adjacent pairs into their barycenters: a
    mean-preserving contraction of ``atoms`` that differs from it."""
    starts = set(rng.sample(range(0, len(atoms) - 1, 2), merges))
    out = []
    i = 0
    while i < len(atoms):
        if i in starts:
            (x1, w1), (x2, w2) = atoms[i], atoms[i + 1]
            w = w1 + w2
            out.append(((x1 * w1 + x2 * w2) / w, w))
            i += 2
        else:
            out.append(atoms[i])
            i += 1
    return out


def spread(atoms):
    """Split the heaviest interior atom in two, symmetrically: a
    mean-preserving spread that differs from ``atoms``."""
    inner = range(1, len(atoms) - 1)
    h = max(inner, key=lambda t: atoms[t][1])
    x, w = atoms[h]
    d = min(x - atoms[h - 1][0], atoms[h + 1][0] - x) / 2
    return atoms[:h] + [(x - d, w / 2), (x + d, w / 2)] + atoms[h + 1:]


def pair_atoms(rng, k, exact, merges=None):
    mu1 = random_atoms(rng, k, exact)
    conj = ref_conjugate(mu1)
    inner = contract(rng, conj, len(conj) // 3 if merges is None else merges)
    return mu1, conj, inner, spread(conj)


def ferrers(rng, r):
    """A permuted Ferrers diagram: unique and additive by construction."""
    lengths = sorted((rng.randint(0, r) for _ in range(r)), reverse=True)
    cells = np.array([[j < n for j in range(r)] for n in lengths], dtype=np.int64)
    rows = rng.sample(range(r), r)
    cols = rng.sample(range(r), r)
    return cells[rows][:, cols]


def random_cells(rng, r, m):
    while True:
        cells = np.array([[rng.randrange(m) for _ in range(r)] for _ in range(r)])
        if len(set(cells.ravel().tolist())) == m:
            return cells


def threshold_partition(rng, r):
    c = rng.randint(r // 2, 3 * r // 2)
    return np.fromfunction(lambda i, j: (i + j >= c).astype(np.int64), (r, r), dtype=np.int64)


def random_region(rng):
    """Four banded rectangles tiling the square, with their exact measure."""
    a = Fraction(rng.randint(1, 11), 12)
    b = Fraction(rng.randint(1, 9), 10)
    bands, measure = [], Fraction(0)
    for xs in ((0, a), (a, 1)):
        for ys in ((0, b), (b, 1)):
            cuts = sorted(rng.sample(range(0, 11), 4))
            y_set = [(Fraction(cuts[0], 10), Fraction(cuts[1], 10)),
                     (Fraction(cuts[2], 10), Fraction(cuts[3], 10))]
            bands.append(privsig.Band((xs, ys), y_set))
            measure += (xs[1] - xs[0]) * (ys[1] - ys[0]) * sum(hi - lo for lo, hi in y_set)
    return privsig.RegionSet(bands), measure


def to_number(v, exact):
    return Fraction(v) if exact else float(v)


# ---------------------------------------------------------------------------
# Shared checks that need op-specific facts
# ---------------------------------------------------------------------------

def grid_posteriors(labels, m, agent, exact):
    """Reference posterior pairs of one agent of a perfect grid structure."""
    r = labels.shape[0]
    counts = [(labels == k).sum(axis=1 if agent == 0 else 0) for k in range(m)]
    pairs = [
        (tuple(to_number(Fraction(int(counts[k][i]), r), exact) for k in range(m)),
         to_number(Fraction(1, r), exact))
        for i in range(r)
    ]
    pairs.sort(key=lambda p: p[0])
    out = []
    for vec, w in pairs:
        if out and all(close(a, b, exact) for a, b in zip(out[-1][0], vec)):
            out[-1] = (out[-1][0], out[-1][1] + w)
        else:
            out.append((vec, w))
    return out


def dist_matches(result, pairs, m, exact):
    """An AtomicDist (m = 2) or SimplexDist result equals reference pairs."""
    if m == 2:
        return check_dist(result, sorted((vec[1], w) for vec, w in pairs), exact)
    got = list(result.atoms)
    return len(got) == len(pairs) and all(
        close(gw, w, exact) and all(close(a, b, exact) for a, b in zip(gv, vec))
        for (gv, gw), (vec, w) in zip(got, pairs)
    )


def structure_matches_grid(s, labels, m, exact):
    pmf = np.asarray(s.pmf)
    r = labels.shape[0]
    if pmf.shape != (m, r, r) or (pmf.dtype == object) != exact:
        return False
    cell = to_number(Fraction(1, r * r), exact)
    want = np.empty(pmf.shape, dtype=object)
    for k in range(m):
        want[k] = np.where(labels == k, cell, to_number(0, exact))
    return all(close(a, b, exact, 1e-15) for a, b in zip(pmf.ravel().tolist(), want.ravel().tolist()))


def revelation_matches(result, labels, m, exact):
    pmf = np.asarray(result.pmf)
    if not is_table(pmf, exact) or not is_independent(pmf, exact):
        return False
    for agent in (0, 1):
        want = grid_posteriors(labels, m, agent, exact)
        if pmf.shape[1 + agent] != len(want):
            return False
        got = agent_posteriors(pmf, agent, exact)
        if len(got) != len(want) or not all(
            close(gw, w, exact) and all(close(a, b, exact) for a, b in zip(gv, vec))
            for (gv, gw), (vec, w) in zip(got, want)
        ):
            return False
    return True


def garble_matches(result, pmf, kern, exact):
    got = np.asarray(result.pmf)
    want = sum(pmf[:, :, j][:, :, None] * kern[j][None, None, :] for j in range(kern.shape[0]))
    if got.shape != want.shape or (got.dtype == object) != exact:
        return False
    return all(close(a, b, exact, 1e-12) for a, b in zip(got.ravel().tolist(), want.ravel().tolist()))


def report_matches(report, kind, labels, m):
    prior, mi, quad, var = grid_info(labels, m)
    h = -sum(p * math.log2(p) for p in prior if p > 0)
    if kind == "quadratic":
        per_agent = quad
        joint = sum(p * (1 - p) for p in prior)
        bound = joint
        per_state = [p * (1 - p) - var[0][k] - var[1][k] for k, p in enumerate(prior)]
        if len(report.per_state_slacks) != m or not all(
            abs(a - b) <= FLOAT_TOL for a, b in zip(report.per_state_slacks, per_state)
        ):
            return False
    else:
        per_agent = mi
        joint = h
        bound = h if kind == "superadditivity" else h - math.log(2) / 8 * mi[0] * mi[1]
    slack = (joint if kind == "superadditivity" else bound) - sum(per_agent)
    want = list(per_agent) + [joint, bound, slack]
    got = list(report.per_agent) + [report.joint, report.bound, report.slack]
    return len(got) == len(want) and all(abs(a - b) <= FLOAT_TOL for a, b in zip(got, want))


def disclosure_matches(result, s1pmf, exact):
    """(state, s1, t) reproduces s1, is private, and t's beliefs are the
    conjugate of s1's."""
    pmf = np.asarray(getattr(result, "pmf", result))
    if pmf.ndim != 3 or pmf.shape[:2] != s1pmf.shape or not is_table(pmf, exact):
        return False
    back = pmf.sum(axis=2)
    if not all(close(a, b, exact, 1e-12) for a, b in zip(back.ravel().tolist(), s1pmf.ravel().tolist())):
        return False
    mu1 = binary_posteriors(s1pmf[:, :, None], 0, exact)
    return (
        is_independent(pmf, exact)
        and pmf.shape[2] <= len(mu1) + 1
        and atoms_match(binary_posteriors(pmf, 1, exact), ref_conjugate(mu1), exact)
    )


def samples_plausible(result, s1pmf, n):
    """Draw counts per s1 value and the disclosure's uniformity given s1,
    each within 6 standard errors."""
    s1_values, s2 = result
    probs = np.asarray(s1pmf, dtype=float).sum(axis=0)
    if len(s1_values) != n or len(s2) != n or s2.min() < 0 or s2.max() > 1:
        return False
    counts = np.bincount(s1_values, minlength=len(probs))
    if len(counts) != len(probs):
        return False
    sd = np.sqrt(n * probs * (1 - probs)) + 1
    if (np.abs(counts - n * probs) > 6 * sd).any():
        return False
    for v in np.flatnonzero(counts >= 1000):
        draws = s2[s1_values == v]
        if abs(draws.mean() - 0.5) > 6 * math.sqrt(1 / 12 / len(draws)):
            return False
    return True


def cli_op(name, argv, text, check, exact=False, size=0):
    """An in-process ``privsig.cli.run`` call on a JSON document."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        finally:
            sys.stdin = stdin
        return code, out.getvalue(), err.getvalue()

    return Op(f"cli.{name}", exact, len(text.encode()), size, call, check)


def cli_ok(check_doc):
    def check(result):
        code, out, _ = result
        return code == 0 and check_doc(json.loads(out))
    return check


def cli_rejects(result):
    """A malformed document: exit code 2 and a one-line ``error:``."""
    code, out, err = result
    return code == 2 and "error:" in err and "Traceback" not in err


def json_pmf(doc, exact):
    shape = (doc["m"], *doc["alphabets"])
    pmf = np.full(shape, to_number(0, exact), dtype=object if exact else float)
    for e in doc["pmf"]:
        pmf[(e["state"], *e["signals"])] = to_number(Fraction(e["p"]) if exact else e["p"], exact)
    return pmf


def json_atoms(doc):
    return [(Fraction(a["x"]), Fraction(a["w"])) for a in doc["atoms"]]


# ---------------------------------------------------------------------------
# belief_order
# ---------------------------------------------------------------------------

def _welfare_grid_max(u1, u2, prior, steps=40):
    """Best welfare over a coarse grid of the frontier family, by the
    benchmark's own evaluation (a subset of the library's search grid)."""
    def eu(atoms, u):
        return sum(w * max((1 - x) * u[0][a] + x * u[1][a] for a in range(len(u[0])))
                   for x, w in atoms)

    best = -math.inf
    for i in range(1, steps + 1):
        alpha = (1 - prior) * i / steps
        for j in range(1, steps + 1):
            beta = prior * j / steps
            lo = [(prior - beta, alpha / (alpha + beta)), (prior + alpha, beta / (alpha + beta))]
            hi = ref_conjugate(lo)
            best = max(best, eu(lo, u1) + eu(hi, u2), eu(hi, u1) + eu(lo, u2))
    return best, eu


def _welfare_check(u1, u2, prior):
    def check(res):
        grid_best, eu = _welfare_grid_max(u1, u2, prior)
        a1, a2 = list(res.mu1.atoms), list(res.mu2.atoms)
        frontier = atoms_match(ref_conjugate(a1), a2, False) or atoms_match(ref_conjugate(a2), a1, False)
        reveal = max(eu([(0.0, 1 - prior), (1.0, prior)], u1) + eu([(prior, 1.0)], u2),
                     eu([(prior, 1.0)], u1) + eu([(0.0, 1 - prior), (1.0, prior)], u2))
        return (
            frontier
            and abs(res.welfare - (eu(a1, u1) + eu(a2, u2))) <= FLOAT_TOL
            and abs(res.reveal_one - reveal) <= FLOAT_TOL
            and res.welfare >= grid_best - FLOAT_TOL
        )
    return check


def build_belief_order(rng):
    ops = []
    for exact, ladder in ((False, FLOAT_K), (True, EXACT_K)):
        for k in ladder:
            mu1, conj, inner, spr = pair_atoms(rng, k, exact)
            d1, dc, di, ds = (privsig.AtomicDist(a) for a in (mu1, conj, inner, spr))
            n1, nc, ni, ns = len(mu1), len(conj), len(inner), len(spr)

            def add(name, call, check, items, _k=k, _exact=exact):
                ops.append(Op(name, _exact, items, _k, call, check))

            def truth(want):
                return lambda got: verdict(got, want)

            add("beliefs.conjugate", lambda d=d1: privsig.conjugate(d),
                lambda got, c=conj, e=exact: check_dist(got, c, e), n1)
            add("disclosure.optimal_disclosure_dist", lambda d=d1: privsig.optimal_disclosure_dist(d),
                lambda got, c=conj, e=exact: check_dist(got, c, e), n1)
            add("beliefs.is_mpc", lambda a=di, b=dc: privsig.is_mpc(a, b), truth(True), ni + nc)
            add("beliefs.is_mpc", lambda a=ds, b=dc: privsig.is_mpc(a, b), truth(False), ns + nc)
            add("beliefs.blackwell_dominates", lambda a=ds, b=di: privsig.blackwell_dominates(a, b),
                truth(True), ns + ni)
            add("beliefs.wasserstein1", lambda a=di, b=dc: privsig.wasserstein1(a, b),
                lambda got, a=inner, b=conj, e=exact: close(got, ref_w1(a, b), e), ni + nc)
            for d2, n2, want in ((dc, nc, True), (di, ni, True), (ds, ns, False)):
                add("feasibility_welfare.is_feasible_pair",
                    lambda a=d1, b=d2: privsig.is_feasible_pair(a, b), truth(want), n1 * n2)
            for d2, n2, want in ((dc, nc, True), (di, ni, False)):
                add("uniqueness.is_pareto_optimal_2x2",
                    lambda a=d1, b=d2: privsig.is_pareto_optimal_2x2(a, b), truth(want), n1 + n2)
            if k <= CERT_K:
                add("feasibility_welfare.feasibility_certificate",
                    lambda a=d1, b=dc: privsig.feasibility_certificate(a, b),
                    lambda got, a=mu1, b=conj, e=exact: check_certificate(got, a, b, e), n1 * nc)
    for actions in (2, 3, 4, 4):
        u1 = [[rng.randint(-8, 8) / 4 for _ in range(actions)] for _ in range(2)]
        u2 = [[rng.randint(-8, 8) / 4 for _ in range(actions)] for _ in range(2)]
        prior = rng.randint(3, 7) / 10
        ops.append(Op("feasibility_welfare.maximize_welfare", False, 4 * actions, actions,
                      lambda a=u1, b=u2, p=prior: privsig.maximize_welfare(a, b, p),
                      _welfare_check(u1, u2, prior)))
    return ops


# ---------------------------------------------------------------------------
# exact_lp
# ---------------------------------------------------------------------------

def random_game(rng, n, exact):
    if exact:
        return [[Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    return [[rng.randint(-36, 36) / 4 for _ in range(n)] for _ in range(n)]


def transport_lp(rng, supplies, demands, exact):
    """max sum c x over transportation plans between two dyadic marginals."""
    def marginal(n):
        cuts = sorted(rng.sample(range(1, 64), n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [64])]
        return [Fraction(p, 64) if exact else p / 64 for p in parts]

    s, d = marginal(supplies), marginal(demands)
    n_vars = supplies * demands
    cons = []
    for i in range(supplies):
        row = [0] * n_vars
        row[i * demands:(i + 1) * demands] = [1] * demands
        cons.append((row, "=", s[i]))
    for j in range(demands):
        row = [0] * n_vars
        for i in range(supplies):
            row[i * demands + j] = 1
        cons.append((row, "=", d[j]))
    objective = [to_number(Fraction(rng.randint(0, 40), 4), exact) for _ in range(n_vars)]
    return objective, cons


def maximin_lp(table):
    """max v s.t. the row mix p earns >= v against every column (v = v+ - v-)."""
    n1, n2 = len(table), len(table[0])
    cons = []
    for j in range(n2):
        cons.append(([table[i][j] for i in range(n1)] + [-1, 1], ">=", 0))
    cons.append(([1] * n1 + [0, 0], "=", 1))
    return [0] * n1 + [1, -1], cons


def lp_op(objective, cons, exact, size):
    return Op("lp.solve_lp", exact, len(objective) * len(cons), size,
              lambda: lp.solve_lp(objective, cons, maximize=True),
              lambda got: check_lp(got, objective, cons, True, highs_value(objective, cons, True)))


def build_exact_lp(rng):
    ops = []
    # Float inputs run twice per round, for a steady float_ops_per_s.
    for exact in (True, False, False):
        for n in range(3, 9):
            u = random_game(rng, n, exact)
            ops.append(Op("games.solve_zero_sum", exact, n * n, n,
                          lambda u=u: privsig.solve_zero_sum(u),
                          lambda got, u=u: check_zero_sum(got, u)))
        for supplies, demands in ((2, 4), (2, 8), (3, 8), (3, 16)):
            objective, cons = transport_lp(rng, supplies, demands, exact)
            ops.append(lp_op(objective, cons, exact, supplies * demands))
    for n in (4, 6):
        objective, cons = maximin_lp(random_game(rng, n, True))
        ops.append(lp_op(objective, cons, True, n))
    for k, j in COUPLING_KJ:
        mu1, conj, inner, _ = pair_atoms(rng, k, True, merges=k + 1 - j)
        d1, d2 = privsig.AtomicDist(mu1), privsig.AtomicDist(inner)
        ops.append(Op("feasibility_welfare.feasibility_certificate", True, k * j, k * j,
                      lambda a=d1, b=d2: privsig.feasibility_certificate(a, b),
                      lambda got, a=mu1, b=inner: check_certificate(got, a, b, True)))
    k, j = HIGHS_KJ
    for exact in (True, True, False, False):
        mu1, conj, inner, _ = pair_atoms(rng, k, exact, merges=k + 1 - j)
        d1, d2 = privsig.AtomicDist(mu1), privsig.AtomicDist(inner)
        ops.append(Op("feasibility_welfare.feasibility_certificate", exact, k * j, k * j,
                      lambda a=d1, b=d2: privsig.feasibility_certificate(a, b),
                      lambda got, a=mu1, b=inner: check_certificate(got, a, b, False, LP_TOL)))
    return ops


# ---------------------------------------------------------------------------
# designer
# ---------------------------------------------------------------------------

RPS_GAME = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
RPS_PAYOFFS = [
    [[(a1 == 0) + (a2 == 0) for a2 in range(3)] for a1 in range(3)],
    [[(a1 == 2) + (a2 == 2) for a2 in range(3)] for a1 in range(3)],
]


def designer_ops(game, payoffs, prior, size):
    n1, n2 = len(game), len(game[0])
    flat = [[Fraction(v) for row in t for v in row] for t in payoffs]
    prior = [Fraction(p) for p in prior]
    facts = {}

    def reference():
        if not facts:
            s1, s2, _ = privsig.solve_zero_sum(game)
            if not check_zero_sum((s1, s2, _), game):
                raise ArithmeticError("reference equilibrium failed its certificate")
            eq = [a * b for a in s1 for b in s2]
            objective, cons = designer_model(prior, eq, flat)
            facts.update(
                eq=eq,
                value=highs_value(objective, cons, True),
                baseline=sum(prior[k] * eq[t] * flat[k][t] for k in range(len(prior)) for t in range(len(eq))),
                relaxed=sum(p * max(row) for p, row in zip(prior, flat)),
            )
        return facts

    def problem():
        return privsig.DesignerProblem(game, payoffs, prior)

    items = len(prior) * n1 * n2
    return [
        Op("games.designer_optimum", True, items, size,
           lambda: privsig.designer_optimum(problem()),
           lambda got: check_designer(got, prior, reference()["eq"], flat, reference()["value"],
                                      reference()["baseline"], reference()["relaxed"])),
        Op("games.independent_baseline", True, items, size,
           lambda: privsig.independent_baseline(problem()),
           lambda got: got == reference()["baseline"]),
        Op("games.relaxed_optimum", True, items, size,
           lambda: privsig.relaxed_optimum(problem()),
           lambda got: got == reference()["relaxed"]),
    ]


def build_designer(rng):
    ops = designer_ops(RPS_GAME, RPS_PAYOFFS, [Fraction(1, 2)] * 2, 9)
    for n, states in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)):
        game = random_game(rng, n, True)
        payoffs = [[[rng.randint(0, 5) for _ in range(n)] for _ in range(n)] for _ in range(states)]
        raw = [rng.randint(1, 5) for _ in range(states)]
        prior = [Fraction(v, sum(raw)) for v in raw]
        ops += designer_ops(game, payoffs, prior, n * n * states)
    rps = {"u": RPS_GAME, "u_d": {"0": RPS_PAYOFFS[0], "1": RPS_PAYOFFS[1]}, "prior": ["1/2", "1/2"]}

    def rps_answer(doc):
        return doc["payoff"] == "10/9" and doc["baseline"] == "2/3" and doc["relaxed"] == "2"

    ops.append(cli_op("designer", ["designer"], json.dumps(rps), cli_ok(rps_answer), True))
    # The ROADMAP P0 documents: each must be refused with exit code 2.
    welfare = '{"u1":[[1,-1],[-1,1]],"u2":[[1,-1],[-1,1]],"prior":%s}'
    for argv, text in (
        (["welfare"], welfare % '"a"'),
        (["welfare"], welfare % "[0.5]"),
        (["designer"], json.dumps(rps).replace('["1/2", "1/2"]', "[Infinity]")),
        (["uniqueness"], '{"cells": [[0, 1], [1]]}'),
    ):
        ops.append(cli_op(f"{argv[0]}_malformed", argv, text, cli_rejects))
    return ops


# ---------------------------------------------------------------------------
# grid_tables
# ---------------------------------------------------------------------------

def build_grid_tables(rng):
    ops = []
    nrng = np.random.default_rng(rng.getrandbits(64))
    samples_seed = rng.getrandbits(32)
    # Float tables are cheap, so they run three times per round: enough
    # float op time for a steady float_ops_per_s.
    for exact in (False, False, False, True):
        for m in (2, 3):
            for r in GRID_R:
                labels = random_cells(rng, r, m)
                grid = privsig.GridPartition(labels)
                s = privsig.structure_from_grid(grid, exact=exact)
                perm = labels[rng.sample(range(r), r)][:, rng.sample(range(r), r)]
                s_perm = privsig.structure_from_grid(privsig.GridPartition(perm), exact=exact)
                raw = nrng.integers(1, 9, size=(r, 4))
                if exact:
                    kern = np.array([[Fraction(int(v), int(row.sum())) for v in row] for row in raw], dtype=object)
                else:
                    kern = raw / raw.sum(axis=1, keepdims=True)
                cells = s.pmf.size

                def add(name, call, check, items=cells, _e=exact, _r=r):
                    ops.append(Op(name, _e, items, _r, call, check))

                add("structures.structure_from_grid",
                    lambda g=grid, e=exact: privsig.structure_from_grid(g, exact=e),
                    lambda got, lab=labels, m=m, e=exact: structure_matches_grid(got, lab, m, e), r * r)
                add("structures.posterior_dist", lambda s=s: privsig.posterior_dist(s, 0),
                    lambda got, lab=labels, m=m, e=exact: dist_matches(got, grid_posteriors(lab, m, 0, e), m, e))
                add("structures.joint_posterior_dist", lambda s=s: privsig.joint_posterior_dist(s),
                    lambda got, lab=labels, m=m, e=exact: dist_matches(got, sorted(
                        (tuple(to_number(int(k == t), e) for t in range(m)),
                         to_number(Fraction(int((lab == k).sum()), lab.size), e)) for k in range(m)
                    ), m, e))
                add("structures.is_private_private", lambda s=s: privsig.is_private_private(s),
                    lambda got: verdict(got, True))
                add("structures.direct_revelation", lambda s=s: privsig.direct_revelation(s),
                    lambda got, lab=labels, m=m, e=exact: revelation_matches(got, lab, m, e))
                add("structures.garble", lambda s=s, k=kern: privsig.garble(s, 1, k),
                    lambda got, p=s.pmf, k=kern, e=exact: garble_matches(got, p, k, e))
                add("structures.equivalent", lambda a=s, b=s_perm: privsig.equivalent(a, b),
                    lambda got: verdict(got, True))
                checks = [("superadditivity", privsig.check_superadditivity),
                          ("quadratic", privsig.check_quadratic_bound)]
                if m == 2:
                    checks.append(("binary", privsig.check_binary_strengthening))
                for kind, fn in checks:
                    add(f"infobounds.check_{kind}", lambda s=s, fn=fn: fn(s),
                        lambda got, kind=kind, lab=labels, m=m: report_matches(got, kind, lab, m))
                if m == 2:
                    s1 = privsig.FiniteStructure(s.pmf.sum(axis=2))
                    add("disclosure.finite_disclosure", lambda s1=s1: privsig.finite_disclosure(s1),
                        lambda got, p=s1.pmf, e=exact: disclosure_matches(got, p, e), s1.pmf.size)
                    add("disclosure.simulate_disclosure",
                        lambda s1=s1: privsig.simulate_disclosure(s1, SIM_DRAWS, samples_seed),
                        lambda got, p=s1.pmf: samples_plausible(got, p, SIM_DRAWS), s1.pmf.size)

    for r in GRID_R:
        for cells, unique in ((ferrers(rng, r), True), (random_cells(rng, r, 2), False)):
            gs = privsig.GridSet(cells)
            ops.append(Op("uniqueness.lorentz_uniqueness_2d", False, r * r, r,
                          lambda g=gs: privsig.lorentz_uniqueness_2d(g),
                          lambda got, c=cells: verdict(got, not has_switch(c))))
            ops.append(Op("uniqueness.switch_uniqueness_matrix", False, r * r, r,
                          lambda c=cells: privsig.switch_uniqueness_matrix(c),
                          lambda got, c=cells: verdict(got, gale_ryser_unique(c))))
            eps = 1 / (4 * r)
            ops.append(Op("uniqueness.additive_set_test", False, r * r, r,
                          lambda g=gs: privsig.additive_set_test(g),
                          lambda got, c=cells, u=unique, eps=eps: (
                              got is not None and check_additive(got, c, eps) if u
                              else got is None and has_switch(c))))
    for r in PARTITION_R:
        for labels in (threshold_partition(rng, r), random_cells(rng, r, 2), random_cells(rng, r, 3)):
            part = privsig.GridPartition(labels)
            m = part.m
            unique = not has_switch(labels) if m == 2 else False
            if m == 3 and not has_label_checkerboard(labels):
                raise AssertionError("random 3-state grid without a checkerboard")
            ops.append(Op("uniqueness.partition_uniqueness_grid", False, r * r, r,
                          lambda p=part: privsig.partition_uniqueness_grid(p),
                          lambda got, u=unique: verdict(got, u)))

    for res in (16, 32):
        region, measure = random_region(rng)

        def raster_ok(got, measure=measure, res=res):
            cells = got.cells
            if cells.shape != (res, res, 2):
                return False
            flat = cells.reshape(-1, 2).tolist()
            return (all(isinstance(b, Fraction) and 0 <= b <= 1 and a + b == 1 for a, b in flat)
                    and sum(b for _, b in flat) == measure * res * res)

        ops.append(Op("structures.rasterize", True, res * res, res,
                      lambda g=region, res=res: privsig.rasterize(g, res), raster_ok))

    # serialize: round trips that must give back an identical object.
    mu = privsig.AtomicDist(random_atoms(rng, 64, True))
    mu_f = privsig.AtomicDist(random_atoms(rng, 64, False))
    fuzzy = privsig.rasterize(random_region(rng)[0], 8)
    for obj, to_json, from_json, exact in (
        (privsig.structure_from_grid(privsig.GridPartition(random_cells(rng, 16, 2))),
         serialize.structure_to_json, serialize.structure_from_json, False),
        (privsig.structure_from_grid(privsig.GridPartition(random_cells(rng, 16, 3)), exact=True),
         serialize.structure_to_json, serialize.structure_from_json, True),
        (mu, serialize.atomic_dist_to_json, serialize.atomic_dist_from_json, True),
        (mu_f, serialize.atomic_dist_to_json, serialize.atomic_dist_from_json, False),
        (privsig.GridPartition(random_cells(rng, 32, 3)),
         serialize.grid_partition_to_json, serialize.grid_partition_from_json, False),
        (fuzzy, serialize.fuzzy_grid_to_json, serialize.fuzzy_grid_from_json, True),
    ):
        text = serialize.dumps(to_json(obj))
        ops.append(Op(f"serialize.{from_json.__name__}", exact, len(text.encode()), 0,
                      lambda o=obj, t=to_json, f=from_json: f(json.loads(serialize.dumps(t(o)))),
                      lambda got, o=obj: canon(got) == canon(o)))

    ops += grid_cli_ops(rng)
    return ops


def grid_cli_ops(rng):
    ops = []
    cells = ferrers(rng, 16)
    ops.append(cli_op("uniqueness", ["uniqueness"], json.dumps({"cells": cells.tolist()}),
                      cli_ok(lambda d, c=cells: d["unique"] is (not has_switch(c)))))
    labels = random_cells(rng, 8, 3)

    def witness_ok(d, labels=labels):
        if d["unique"] is not False or d["witness"] is None:
            return False
        cells = np.array([[[float(Fraction(v)) for v in cell] for cell in row] for row in d["witness"]["cells"]])
        want = projections(labels, 3)
        got = fuzzy_projections(cells)
        return all(np.abs(g - w).max() <= LP_TOL for gw, ww in zip(got, want) for g, w in zip(gw, ww))

    ops.append(cli_op("uniqueness", ["uniqueness"], json.dumps({"cells": labels.tolist()}),
                      cli_ok(witness_ok)))
    labels = random_cells(rng, 8, 2)
    s = privsig.structure_from_grid(privsig.GridPartition(labels))
    ops.append(cli_op("bounds", ["bounds", "--ineq", "quadratic"],
                      serialize.dumps(serialize.structure_to_json(s)),
                      cli_ok(lambda d, lab=labels: abs(d["slack"] - (
                          sum(p * (1 - p) for p in grid_info(lab, 2)[0]) - sum(grid_info(lab, 2)[2])
                      )) <= FLOAT_TOL)))
    s = privsig.structure_from_grid(privsig.GridPartition(random_cells(rng, 16, 2)), exact=True)
    s1 = privsig.FiniteStructure(s.pmf.sum(axis=2))
    ops.append(cli_op("disclose", ["disclose"], serialize.dumps(serialize.structure_to_json(s1)),
                      cli_ok(lambda d, p=s1.pmf: disclosure_matches(json_pmf(d, True), p, True)), True))
    atoms = random_atoms(rng, 16, True)
    ops.append(cli_op("conjugate", ["conjugate"],
                      serialize.dumps(serialize.atomic_dist_to_json(privsig.AtomicDist(atoms))),
                      cli_ok(lambda d, a=atoms: json_atoms(d) == ref_conjugate(a)), True))
    region, measure = random_region(rng)
    ops.append(cli_op("rasterize", ["--resolution", "8", "rasterize"],
                      serialize.dumps(serialize.region_set_to_json(region)),
                      cli_ok(lambda d, mz=measure: sum(
                          Fraction(cell[1]) for row in d["cells"] for cell in row) == mz * 64), True))
    # Malformed documents that the CLI must refuse with exit code 2.
    for argv, text in (
        (["conjugate"], '{"atoms": [{"x": 0.5, "w": 1}'),
        (["uniqueness"], '{"n": 2, "R": 4}'),
        (["conjugate"], '{"atoms": [{"x": 1.5, "w": 1}]}'),
        (["bounds", "--ineq", "quadratic"],
         '{"m": 2, "n": 1, "alphabets": [1], "pmf": [{"state": 0, "signals": [0], "p": 0.5},'
         ' {"state": 1, "signals": [0], "p": 0.4}]}'),
        (["bounds", "--ineq", "binary"],
         '{"m": 2, "n": 2, "alphabets": [2, 2], "pmf": [{"state": 0, "signals": [0, 0], "p": 0.5},'
         ' {"state": 1, "signals": [1, 1], "p": 0.5}]}'),
        (["no-such-command"], "{}"),
    ):
        ops.append(cli_op(f"{argv[0]}_malformed", argv, text, cli_rejects))
    return ops


WORKLOADS = {
    "belief_order": build_belief_order,
    "exact_lp": build_exact_lp,
    "grid_tables": build_grid_tables,
    "designer": build_designer,
}
#: Rounds of fresh contents per run.  Each round is the whole ladder, so a
#: run that stops at a round boundary always has the same mix of ops; many
#: distinct inputs keep content-dependent costs (simplex pivots, Fraction
#: sizes) from setting a run's figures.
ROUNDS = {"belief_order": 6, "exact_lp": 12, "grid_tables": 5, "designer": 1}


def build(workload, seed):
    """The rounds of one workload for one seed: lists of ops, each in a
    seed-shuffled order."""
    rng = random.Random(f"{workload}/{seed}")
    rounds = []
    for _ in range(ROUNDS[workload]):
        ops = WORKLOADS[workload](rng)
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds
