"""Independent answer checks for the benchmark.

Every check here recomputes what it needs from the benchmark's own
reference code: O(k) sweeps over sorted atoms, marginals of joint tables
with numpy or Fractions, exact guarantee certificates for games, and HiGHS
on the benchmark's own LP models.  No check calls the privsig function it
is checking.  A check returns True for a correct answer and False (or
raises) for a wrong one.

Tolerances: exact answers (Fraction inputs that are meant to stay exact)
are compared with ``==``; float answers within ``FLOAT_TOL``; answers of
the HiGHS path within ``LP_TOL``.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9
LP_TOL = 1e-6


def verdict(got, want):
    """A yes/no answer: a (numpy) bool equal to ``want``."""
    return isinstance(got, (bool, np.bool_)) and bool(got) == want


def close(a, b, exact, tol=FLOAT_TOL):
    if exact:
        return a == b
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Canonical form of an answer, used to compare a repeated op with the answer
# that was checked the first time it ran.
# ---------------------------------------------------------------------------

def canon(value):
    if isinstance(value, Fraction):
        return ("q", value.numerator, value.denominator)
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return ("arr", value.shape, tuple(canon(v) for v in value.ravel().tolist()))
        return ("arr", value.shape, value.dtype.str, value.tobytes())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            canon(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, canon(v)) for k, v in value.items()))
    if isinstance(value, float):
        return ("f", value.hex())
    return value


# ---------------------------------------------------------------------------
# Belief distributions: reference O(k) sweeps on sorted (x, w) lists
# ---------------------------------------------------------------------------

def ref_conjugate(atoms):
    """Conjugate by one sweep: gap (x_j, x_{j+1}) -> atom at 1 - C_j."""
    zero = atoms[0][1] * 0
    one = zero + 1
    out = []
    cum = zero
    prev = zero
    for x, w in list(atoms) + [(one, None)]:
        if x - prev > 0:
            out.append((min(max(one - cum, zero), one), x - prev))
        if w is not None:
            cum = cum + w
        prev = x
    out.reverse()
    return out


def ref_w1(a, b):
    """int_0^1 |F_a - F_b| by a two-pointer merge of the sorted atoms."""
    i = j = 0
    fa = fb = total = prev = a[0][1] * 0
    while i < len(a) or j < len(b):
        xa = a[i][0] if i < len(a) else None
        xb = b[j][0] if j < len(b) else None
        x = xa if xb is None or (xa is not None and xa <= xb) else xb
        total = total + (x - prev) * abs(fa - fb)
        while i < len(a) and a[i][0] == x:
            fa = fa + a[i][1]
            i += 1
        while j < len(b) and b[j][0] == x:
            fb = fb + b[j][1]
            j += 1
        prev = x
    return total


def ref_min_upper_integral(a, b):
    """min over y of int_y^1 (F_a - F_b), by one backward sweep.

    ``a`` is a mean-preserving contraction of ``b`` (equal means assumed)
    exactly when this minimum is >= 0.
    """
    xs = sorted({x for x, _ in a} | {x for x, _ in b} | {0, 1})
    wa = {}
    wb = {}
    for x, w in a:
        wa[x] = wa.get(x, 0) + w
    for x, w in b:
        wb[x] = wb.get(x, 0) + w
    fa = fb = a[0][1] * 0
    diffs = []
    for x in xs:
        fa = fa + wa.get(x, 0)
        fb = fb + wb.get(x, 0)
        diffs.append(fa - fb)
    acc = lowest = fa * 0
    for t in range(len(xs) - 2, -1, -1):
        acc = acc + (xs[t + 1] - xs[t]) * diffs[t]
        lowest = min(lowest, acc)
    return lowest


def atoms_match(got, want, exact, tol=FLOAT_TOL):
    got = list(got)
    if len(got) != len(want):
        return False
    return all(
        close(gx, wx, exact, tol) and close(gw, ww, exact, tol)
        for (gx, gw), (wx, ww) in zip(got, want)
    )


def check_dist(result, want_atoms, exact):
    if exact and not all(isinstance(v, (int, Fraction)) for xw in result.atoms for v in xw):
        return False
    return atoms_match(result.atoms, want_atoms, exact)


# ---------------------------------------------------------------------------
# Joint tables: marginals and independence, recomputed with numpy
# ---------------------------------------------------------------------------

def _table(structure):
    pmf = structure.pmf if hasattr(structure, "pmf") else structure
    return np.asarray(pmf)


def agent_posteriors(pmf, agent, exact):
    """(posterior vector, weight) pairs of one agent, merged, sorted."""
    n = pmf.ndim - 1
    axes = tuple(1 + a for a in range(n) if a != agent)
    joint = pmf.sum(axis=axes) if axes else pmf
    pairs = []
    for v in range(joint.shape[1]):
        col = joint[:, v].tolist()
        p_v = sum(col)
        if p_v > 0:
            pairs.append((tuple(c / p_v for c in col), p_v))
    pairs.sort(key=lambda p: p[0])
    out = []
    for vec, w in pairs:
        if out and all(close(a, b, exact) for a, b in zip(out[-1][0], vec)):
            out[-1] = (out[-1][0], out[-1][1] + w)
        else:
            out.append((vec, w))
    return out


def binary_posteriors(pmf, agent, exact):
    """Atoms (P(state = 1 | signal), weight) of one agent, sorted."""
    return sorted((vec[1], w) for vec, w in agent_posteriors(pmf, agent, exact))


def is_independent(pmf, exact, tol=FLOAT_TOL):
    """Signal marginal factors as the product of the per-agent marginals."""
    joint = pmf.sum(axis=0)
    prod = None
    for agent in range(joint.ndim):
        axes = tuple(a for a in range(joint.ndim) if a != agent)
        marg = joint.sum(axis=axes) if axes else joint
        prod = marg if prod is None else np.multiply.outer(prod, marg)
    diff = (joint - prod).ravel().tolist()
    if exact:
        return all(d == 0 for d in diff)
    return max(abs(d) for d in diff) <= tol


def is_table(pmf, exact, tol=FLOAT_TOL):
    flat = pmf.ravel().tolist()
    if exact:
        if pmf.dtype != object or not all(isinstance(v, (int, Fraction)) for v in flat):
            return False
        return min(flat) >= 0 and sum(flat) == 1
    return min(flat) >= 0 and abs(sum(flat) - 1) <= tol


def check_certificate(cert, mu1, mu2, exact, tol=FLOAT_TOL):
    """A feasibility certificate reproduces (mu1, mu2) and is private."""
    if cert is None:
        return False
    pmf = _table(cert)
    if pmf.ndim != 3 or pmf.shape[0] != 2 or not is_table(pmf, exact, tol):
        return False
    return (
        atoms_match(binary_posteriors(pmf, 0, exact), mu1, exact, tol)
        and atoms_match(binary_posteriors(pmf, 1, exact), mu2, exact, tol)
        and is_independent(pmf, exact, tol)
    )


# ---------------------------------------------------------------------------
# Games and LPs
# ---------------------------------------------------------------------------

def is_distribution(vec):
    return all(v >= 0 for v in vec) and sum(vec) == 1


def check_zero_sum(result, u):
    """Exact guarantee certificate: s1 secures >= v, s2 concedes <= v."""
    s1, s2, value = result
    table = [[Fraction(v) for v in row] for row in u]
    n1, n2 = len(table), len(table[0])
    if len(s1) != n1 or len(s2) != n2:
        return False
    if not (is_distribution(s1) and is_distribution(s2)):
        return False
    secured = min(sum(s1[i] * table[i][j] for i in range(n1)) for j in range(n2))
    conceded = max(sum(table[i][j] * s2[j] for j in range(n2)) for i in range(n1))
    return secured >= value >= conceded


def highs_value(objective, constraints, maximize):
    """Optimal value of the benchmark's LP model, solved by HiGHS."""
    from scipy.optimize import linprog

    c = np.array([float(v) for v in objective])
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in constraints:
        row = [float(v) for v in coeffs]
        if sense == "=":
            a_eq.append(row)
            b_eq.append(float(rhs))
        elif sense == "<=":
            a_ub.append(row)
            b_ub.append(float(rhs))
        else:
            a_ub.append([-v for v in row])
            b_ub.append(-float(rhs))
    res = linprog(
        -c if maximize else c,
        A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
        bounds=(0, None), method="highs",
    )
    if not res.success:
        raise ArithmeticError(f"reference HiGHS solve failed: {res.message}")
    return -res.fun if maximize else res.fun


def check_lp(result, objective, constraints, maximize, reference_value):
    """Exact primal feasibility, exact objective, and the HiGHS optimum."""
    if not result.optimal or len(result.x) != len(objective):
        return False
    x = [Fraction(v) for v in result.x]
    if any(v < 0 for v in x):
        return False
    for coeffs, sense, rhs in constraints:
        lhs = sum(Fraction(a) * v for a, v in zip(coeffs, x))
        rhs = Fraction(rhs)
        ok = lhs == rhs if sense == "=" else (lhs <= rhs if sense == "<=" else lhs >= rhs)
        if not ok:
            return False
    value = sum(Fraction(c) * v for c, v in zip(objective, x))
    if value != result.value:
        return False
    return abs(float(value) - reference_value) <= LP_TOL * max(1.0, abs(reference_value))


def designer_model(prior, eq, payoffs):
    """The designer LP over kernels q_k(t): rows sum to 1, prior-weighted
    average pinned to the equilibrium product ``eq`` (flattened cells)."""
    n_states, n_cells = len(prior), len(eq)
    n_vars = n_states * n_cells
    cons = []
    for k in range(n_states):
        row = [0] * n_vars
        row[k * n_cells:(k + 1) * n_cells] = [1] * n_cells
        cons.append((row, "=", 1))
    for t in range(n_cells):
        row = [0] * n_vars
        for k in range(n_states):
            row[k * n_cells + t] = prior[k]
        cons.append((row, "=", eq[t]))
    objective = [prior[k] * payoffs[k][t] for k in range(n_states) for t in range(n_cells)]
    return objective, cons


def check_designer(result, prior, eq, payoffs, reference_value, baseline, relaxed):
    """Kernel feasible exactly, payoff exact, equal to HiGHS, within bounds."""
    kernel, payoff = result
    n_cells = len(eq)
    flat = []
    for k, table in enumerate(kernel):
        row = [Fraction(v) for r in table for v in r]
        if len(row) != n_cells or any(v < 0 for v in row) or sum(row) != 1:
            return False
        flat.append(row)
    if len(flat) != len(prior):
        return False
    for t in range(n_cells):
        if sum(prior[k] * flat[k][t] for k in range(len(prior))) != eq[t]:
            return False
    value = sum(prior[k] * payoffs[k][t] * flat[k][t]
                for k in range(len(prior)) for t in range(n_cells))
    if value != payoff or not (baseline <= payoff <= relaxed):
        return False
    return abs(float(payoff) - reference_value) <= LP_TOL


# ---------------------------------------------------------------------------
# Grids and uniqueness
# ---------------------------------------------------------------------------

def has_switch(cells):
    """True iff two rows of a 0/1 matrix each have a 1 where the other has 0."""
    arr = np.asarray(cells, dtype=np.int8)
    for r in range(arr.shape[0] - 1):
        diff = arr[r + 1:] - arr[r]
        if ((diff > 0).any(axis=1) & (diff < 0).any(axis=1)).any():
            return True
    return False


def gale_ryser_unique(cells):
    """Sorted row sums equal the conjugate partition of the column sums."""
    arr = np.asarray(cells, dtype=np.int64)
    rows = sorted((int(v) for v in arr.sum(axis=1) if v > 0), reverse=True)
    cols = [int(v) for v in arr.sum(axis=0)]
    width = max(cols) if cols else 0
    conj = [sum(1 for c in cols if c > k) for k in range(width)]
    return rows == [c for c in conj if c > 0]


def has_label_checkerboard(labels):
    """Rows r < s, columns c < d with L[r,c] = L[s,d] != L[r,d] = L[s,c]:
    moving mass around that rectangle keeps every projection, so the
    partition is not one of uniqueness."""
    lab = np.asarray(labels)
    r = lab.shape[0]
    for i in range(r - 1):
        top = lab[i]
        for s in range(i + 1, r):
            bottom = lab[s]
            # need c, d with top[c] == bottom[d] = A, top[d] == bottom[c] = B.
            pairs = {(int(a), int(b)) for a, b in zip(top, bottom) if a != b}
            if any((b, a) in pairs for a, b in pairs):
                return True
    return False


def check_additive(witness, cells, epsilon, tol=1e-7):
    """The witness scores separate the set: >= 0 inside, <= -eps outside."""
    arr = np.asarray(cells, dtype=bool)
    h = [np.asarray(axis_h, dtype=float) for axis_h in witness]
    if len(h) != 2 or any(len(v) != arr.shape[0] for v in h):
        return False
    if max(np.abs(v).max() for v in h) > 1 + tol:
        return False
    total = h[0][:, None] + h[1][None, :]
    return bool((total[arr] >= -tol).all() and (total[~arr] <= -epsilon + tol).all())


def projections(labels, m):
    """Per-state row and column counts of a labeled grid."""
    lab = np.asarray(labels)
    return [((lab == k).sum(axis=1), (lab == k).sum(axis=0)) for k in range(m)]


def fuzzy_projections(cells):
    arr = np.asarray(cells, dtype=float)  # (r, r, m)
    return [(arr[..., k].sum(axis=1), arr[..., k].sum(axis=0)) for k in range(arr.shape[-1])]


# ---------------------------------------------------------------------------
# Information quantities of a perfect grid structure, from cell counts
# ---------------------------------------------------------------------------

def entropy_bits(p):
    return -sum(v * math.log2(v) for v in p if v > 0)


def grid_info(labels, m):
    """Per-agent mutual information and quadratic information, the prior,
    and per-state variances, computed from label counts only."""
    lab = np.asarray(labels)
    r = lab.shape[0]
    prior = [float((lab == k).sum()) / (r * r) for k in range(m)]
    mi, quad, var = [], [], []
    for axis in (1, 0):  # agent 0 sees the row (counts along axis 1)
        posts = [[float(c) / r for c in (lab == k).sum(axis=axis)] for k in range(m)]
        cond = [entropy_bits([posts[k][i] for k in range(m)]) for i in range(r)]
        mi.append(entropy_bits(prior) - sum(cond) / r)
        v = [sum((posts[k][i] - prior[k]) ** 2 for i in range(r)) / r for k in range(m)]
        var.append(v)
        quad.append(sum(v))
    return prior, mi, quad, var
