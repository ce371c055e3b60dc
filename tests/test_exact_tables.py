"""Exact tables on one common denominator, against an object-array oracle.

The oracle below is the formulation the integer kernels replaced: tables
of Fractions in object arrays, summed, divided and multiplied cell by cell.
Every public result on an exact table must equal the oracle's as Fractions,
types included (notes/decisions.md, "Exact tables on one common
denominator").
"""

import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsig import (
    FiniteStructure,
    FuzzyGrid,
    GridPartition,
    check_binary_strengthening,
    check_quadratic_bound,
    check_superadditivity,
    direct_revelation,
    dists_close,
    equivalent,
    garble,
    infobounds,
    is_private_private,
    joint_posterior_dist,
    posterior_dist,
)
from privsig._num import ORDER_TOL
from privsig.errors import PrivacyError
from privsig.structures import _belief_dist, _cluster, _fractions, structure_from_grid

#: Totals of the big-denominator tables: primes beyond int64 and one below.
PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)


# ---------------------------------------------------------------------------
# Oracle: object arrays of Fractions
# ---------------------------------------------------------------------------

def oracle_prior(pmf):
    return tuple(pmf.reshape(pmf.shape[0], -1).sum(axis=1).tolist())


def oracle_signal_marginal(pmf, agent):
    axes = tuple(ax for ax in range(pmf.ndim) if ax != 1 + agent)
    return tuple(pmf.sum(axis=axes).tolist())


def oracle_agent_joint(pmf, agent):
    axes = tuple(ax for ax in range(1, pmf.ndim) if ax != 1 + agent)
    return pmf.sum(axis=axes) if axes else pmf


def oracle_posteriors(joint):
    """Posteriors grouped by exact equality in a dict, then clustered."""
    probs = joint.sum(axis=0)
    live = np.flatnonzero(probs > 0)
    groups = {}
    group_of = []
    for vec, w in zip((joint[:, live] / probs[live]).T.tolist(), probs[live].tolist()):
        g = groups.setdefault(tuple(vec), [len(groups), 0])
        g[1] = g[1] + w
        group_of.append(g[0])
    atoms, label = _cluster(list(groups), [w for _, w in groups.values()])
    value_map = np.full(joint.shape[1], -1)
    value_map[live] = np.asarray(label, dtype=int)[group_of]
    return atoms, value_map


def oracle_posterior_dist(s, agent):
    return _belief_dist(oracle_posteriors(oracle_agent_joint(s.pmf, agent))[0])


def oracle_joint_posterior_dist(s):
    return _belief_dist(oracle_posteriors(s.pmf.reshape(s.m, -1))[0])


def oracle_is_private_private(pmf, tol=ORDER_TOL):
    joint = pmf.sum(axis=0)
    prod = np.ones((), dtype=object)
    for agent in range(joint.ndim):
        marg = np.asarray(oracle_signal_marginal(pmf, agent), dtype=object)
        shape = [1] * joint.ndim
        shape[agent] = -1
        prod = prod * marg.reshape(shape)
    return sum(abs(v) for v in (joint - prod).ravel().tolist()) / 2 <= tol


def oracle_direct_revelation(pmf):
    out = pmf
    for agent in range(pmf.ndim - 1):
        _, value_map = oracle_posteriors(oracle_agent_joint(pmf, agent))
        order = np.argsort(value_map, kind="stable")
        order = order[value_map[order] >= 0]
        starts = np.flatnonzero(np.diff(value_map[order], prepend=-1))
        out = np.add.reduceat(np.take(out, order, axis=1 + agent), starts, axis=1 + agent)
    return out


def oracle_garble(pmf, agent, kernel):
    new = np.dot(np.moveaxis(pmf, 1 + agent, -1), kernel)
    return np.moveaxis(new, -1, 1 + agent)


def oracle_equivalent(a, b):
    return all(
        dists_close(oracle_posterior_dist(a, i), oracle_posterior_dist(b, i))
        for i in range(a.n)
    )


def oracle_reports(s):
    """The three bound reports with every posterior taken from the oracle."""
    with mock.patch.multiple(
        infobounds,
        posterior_dist=oracle_posterior_dist,
        joint_posterior_dist=oracle_joint_posterior_dist,
    ):
        return bound_reports(s)


def bound_reports(s):
    checks = [check_superadditivity, check_quadratic_bound]
    if s.m == 2:
        checks.append(check_binary_strengthening)
    out = []
    for check in checks:
        try:
            out.append(check(s))
        except (PrivacyError, ArithmeticError) as exc:
            out.append(type(exc))
    return out


# ---------------------------------------------------------------------------
# Equality with types
# ---------------------------------------------------------------------------

def same(a, b):
    """Equal values of equal types, through tuples, arrays and dataclasses."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and same(a.ravel().tolist(), b.ravel().tolist())
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__
        )
    return type(a) is type(b) and a == b


# ---------------------------------------------------------------------------
# Random exact tables
# ---------------------------------------------------------------------------

@st.composite
def int_tables(draw):
    """Nonnegative integer tables, m in {2, 3} and n in {1, 2, 3}.

    Some slices repeat another slice up to scale (duplicate posteriors) and
    some are zero in every state (values of probability zero).
    """
    m = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    cells = m * math.prod(sizes)
    ints = np.array(draw(st.lists(st.integers(0, 4), min_size=cells, max_size=cells)),
                    dtype=object).reshape(m, *sizes)
    ints[(slice(None),) + (0,) * len(sizes)] += 1  # full-support prior
    for axis in range(1, ints.ndim):
        for _ in range(draw(st.integers(0, 2))):
            src = draw(st.integers(0, ints.shape[axis] - 1))
            copy = draw(st.integers(0, 3)) * np.take(ints, [src], axis=axis)
            ints = np.concatenate([ints, copy], axis=axis)
    return ints


@st.composite
def private_int_tables(draw):
    """Integer tables whose signals are independent: marginal weights times
    a state vector per signal profile."""
    m = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    out = np.ones((1,) * (1 + len(sizes)), dtype=object)
    for i, size in enumerate(sizes):
        marg = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        shape = [1] * (1 + len(sizes))
        shape[1 + i] = size
        out = out * np.array(marg, dtype=object).reshape(shape)
    profiles = math.prod(sizes)
    # Every profile's state vector sums to the same total, so the signal
    # marginal stays the product of the weights above.
    vecs = [draw(st.lists(st.integers(0, 4), min_size=m - 1, max_size=m - 1))
            for _ in range(profiles)]
    states = np.array([[*v, 12 - sum(v)] for v in vecs], dtype=object).T
    table = out * states.reshape(m, *sizes)
    table[(slice(None),) + (0,) * len(sizes)] += 1 if table.sum() == 0 else 0
    return table


def to_fractions(ints, prime=None):
    """Fractions of an integer table; with ``prime``, its total is that prime.

    Rescaling to a prime total rounds each cell down and puts the rest on
    the largest cell, so the common denominator is the prime itself.
    """
    total = int(ints.sum())
    if prime is not None:
        scaled = np.array([v * prime // total for v in ints.ravel().tolist()], dtype=object)
        scaled[int(np.argmax(ints.ravel()))] += prime - scaled.sum()
        ints, total = scaled.reshape(ints.shape), prime
    flat = [F(int(v), total) for v in ints.ravel().tolist()]
    return np.array(flat + [None], dtype=object)[:-1].reshape(ints.shape)


@st.composite
def exact_tables(draw):
    ints = draw(st.one_of(int_tables(), private_int_tables()))
    if ints.reshape(ints.shape[0], -1).sum(axis=1).min() == 0:
        ints[(slice(None),) + (0,) * (ints.ndim - 1)] += 1
    prime = draw(st.one_of(st.none(), st.sampled_from(PRIMES)))
    return to_fractions(ints, prime)


@st.composite
def kernels(draw, rows):
    cols = draw(st.integers(1, 3))
    raw = [draw(st.lists(st.integers(0, 5), min_size=cols, max_size=cols)) for _ in range(rows)]
    big = draw(st.sampled_from((1, 2**67 + 3)))
    out = []
    for row in raw:
        row = [v * big for v in row]
        row[-1] += 1
        out.append([F(v, sum(row)) for v in row])
    return np.array(out, dtype=object)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(exact_tables(), st.data())
def test_exact_ops_equal_the_object_array_oracle(pmf, data):
    s = FiniteStructure(pmf)
    assert s.exact and same(s.pmf, pmf)
    assert same(s.prior, oracle_prior(pmf))
    for agent in range(s.n):
        assert same(s.signal_marginal(agent), oracle_signal_marginal(pmf, agent))
        assert same(posterior_dist(s, agent), oracle_posterior_dist(s, agent))
    assert same(joint_posterior_dist(s), oracle_joint_posterior_dist(s))
    for tol in (ORDER_TOL, 0):
        assert is_private_private(s, tol) == oracle_is_private_private(pmf, tol)

    revealed = direct_revelation(s)
    assert revealed.exact and same(revealed.pmf, oracle_direct_revelation(pmf))

    agent = data.draw(st.integers(0, s.n - 1))
    kernel = data.draw(kernels(s.alphabet_sizes[agent]))
    garbled = garble(s, agent, kernel)
    assert garbled.exact and same(garbled.pmf, oracle_garble(pmf, agent, kernel))

    for other in (revealed, garbled, FiniteStructure(pmf[:, ::-1])):
        assert equivalent(s, other) == oracle_equivalent(s, other)
    assert same(bound_reports(s), oracle_reports(s))


@pytest.mark.parametrize("m", [2, 3])
def test_trusted_posteriors_still_drop_and_renormalize(m):
    # Exact posteriors skip validation, not the drop of weights at or below
    # WEIGHT_DROP_TOL and the renormalization that follows it.
    tiny = F(1, 10**17)
    pmf = np.full((m, m + 1), F(0), dtype=object)
    for k in range(m):
        pmf[k, k] = F(1, m)
    pmf[0, 0] -= tiny
    pmf[0, m] = pmf[m - 1, m] = tiny / 2  # a signal value of weight tiny
    s = FiniteStructure(pmf)
    got, want = posterior_dist(s, 0), oracle_posterior_dist(s, 0)
    assert same(got, want) and len(got.atoms) == m
    assert sum(w for _, w in got.atoms) == 1


def test_large_denominators_use_python_ints():
    # 2**89 - 1 is prime: every nonzero cell has it as its denominator.
    pmf = to_fractions(np.array([[[1, 2], [0, 3]], [[4, 0], [5, 6]]], dtype=object), 2**89 - 1)
    s = FiniteStructure(pmf)
    assert s._den == 2**89 - 1 and s._num.dtype == object
    assert same(s.pmf, pmf)
    small = FiniteStructure(to_fractions(np.array([[1, 2], [3, 4]], dtype=object)))
    assert small._num.dtype == np.int64 and small._den == 10


def test_common_denominator_is_reduced():
    # Garbling multiplies the denominators; the result is reduced once.
    s = FiniteStructure(np.array([[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]], dtype=object))
    g = garble(s, 0, np.array([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], dtype=object))
    assert g._den == 4 and g._num.tolist() == [[1, 1], [1, 1]]
    assert same(g.pmf, np.full((2, 2), F(1, 4), dtype=object))


# ---------------------------------------------------------------------------
# Which tables are exact
# ---------------------------------------------------------------------------

def test_a_float_entry_makes_a_float_table():
    s = FiniteStructure(np.array([[F(1, 2), 0.25], [0, F(1, 4)]], dtype=object))
    assert not s.exact and s.pmf.dtype == np.float64
    assert s.pmf.tolist() == [[0.5, 0.25], [0.0, 0.25]]
    ints = FiniteStructure(np.array([[F(1, 2), 0], [0, F(1, 2)]], dtype=object))
    assert ints.exact and same(ints.pmf, np.array([[F(1, 2), F(0)], [F(0), F(1, 2)]]))


@pytest.mark.parametrize("exact_table", [True, False])
def test_garble_is_exact_only_with_an_exact_table_and_kernel(exact_table):
    s = structure_from_grid(GridPartition(np.array([[0, 1], [1, 0]])), exact=exact_table)
    float_kernel = np.array([[0.5, 0.5], [0.25, 0.75]])
    exact_kernel = np.array([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]], dtype=object)
    for kernel in (float_kernel, exact_kernel):
        out = garble(s, 1, kernel)
        exact = exact_table and kernel.dtype == object
        assert out.exact == exact
        assert out.pmf.dtype == (object if exact else np.float64)
        want = oracle_garble(np.asarray(s.pmf, dtype=object), 1, kernel)
        assert np.allclose(np.asarray(out.pmf, dtype=float), np.asarray(want, dtype=float))


def test_fuzzy_exact_grid_keeps_its_fractions():
    cells = np.array([[[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]],
                      [[F(1), F(0)], [F(3, 4), F(1, 4)]]], dtype=object)
    s = structure_from_grid(FuzzyGrid(cells))
    want = np.moveaxis(cells, -1, 0) / 4
    assert s.exact and same(s.pmf, want)


# ---------------------------------------------------------------------------
# The pmf of Fractions against the np.unique build
# ---------------------------------------------------------------------------

def oracle_fractions(num, den):
    """The pmf as it was built before: one sort of every cell by np.unique."""
    values, inverse = np.unique(num, return_inverse=True)
    fractions = np.empty(len(values), dtype=object)
    fractions[:] = [F(v, den) for v in values.tolist()]
    return fractions[inverse.reshape(num.shape)]


@st.composite
def numerator_tables(draw):
    """Nonnegative numerators with at least one nonzero cell, and a
    denominator: one cell or up to 60, small values (a table of every
    value up to the largest) or large ones (a sort), int64 or Python ints."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    size = math.prod(shape)
    top = draw(st.sampled_from([1, 3, 4 * size - 1, 4 * size, 10**6, 2**62, 2**70]))
    zeros = draw(st.floats(0, 1))
    cells = [0 if draw(st.floats(0, 1)) < zeros else draw(st.integers(1, top))
             for _ in range(size)]
    if not any(cells):
        cells[draw(st.integers(0, size - 1))] = top
    dtype = object if top > 2**62 or draw(st.booleans()) else np.int64
    num = np.array(cells, dtype=dtype).reshape(shape)
    return num, draw(st.sampled_from([1, 7, 2**61 - 1, 2**89 - 1]))


@settings(max_examples=300, deadline=None)
@given(numerator_tables())
def test_pmf_equals_the_unique_build(table):
    num, den = table
    assert same(_fractions(num, den), oracle_fractions(num, den))


def test_pmf_shares_one_fraction_per_value():
    num = np.array([[0, 3, 3], [0, 5, 3]])
    pmf = _fractions(num, 14)
    assert pmf[0, 0] is pmf[1, 0] and pmf[0, 1] is pmf[0, 2] is pmf[1, 2]
    assert same(pmf, np.array([[F(0), F(3, 14), F(3, 14)], [F(0), F(5, 14), F(3, 14)]]))
    assert same(_fractions(np.array([[5]]), 5), np.array([[F(1)]], dtype=object))
