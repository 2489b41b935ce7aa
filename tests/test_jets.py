"""The jet derivation on chains of base polynomials, and jet ideals.

jet_chain (tests/jet_oracle.py) reads a chain off jets.jet_ideal; the
hand-written tuple examples call jets.derivative_chain directly.  Expected
jets are {exponent tuple: coefficient} maps in jet_ideal's columns: the
base variables x_1..x_n, then the jets of x_i ordered by (i, j).
"""

import random
from fractions import Fraction
from math import comb
from operator import add

import pytest

from logjet.chart import Chart
from logjet.errors import ModeMismatchError
from logjet.jets import LOG, ORDINARY, derivative_chain, jet_ideal
from logjet.monoid import AffineMonoid

from jet_oracle import (expand_by_substitution, jet_chain,
                        specialize_log_to_ordinary)

N2 = AffineMonoid(2, [(1, 0), (0, 1)])


def _product(f, g, scale=1):
    """scale * f * g of two maps with the same columns."""
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            e = tuple(map(add, a, b))
            out[e] = out.get(e, 0) + scale * ca * cb
    return {e: c for e, c in out.items() if c}


def _sum(maps):
    out = {}
    for f in maps:
        for e, c in f.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


# -- ordinary derivation -------------------------------------------------------


def test_derive_square():
    # columns x1, x1(1), x1(2): x1^2, 2 x1 x1(1), 2 x1(1)^2 + 2 x1 x1(2)
    assert jet_chain({(2,): 1}, 2, ORDINARY) == [
        {(2, 0, 0): 1}, {(1, 1, 0): 2}, {(0, 2, 0): 2, (1, 0, 1): 2}]


def test_derive_kills_top_order():
    # columns x1, x1(1), x1(2): no move leaves the top column, so x1(2)
    # derives to zero with no truncation rule
    assert derivative_chain({(0, 0, 1): 1}, 1, [(0, 1), (1, 2)]) == \
        [{(0, 0, 1): 1}, {}]


def test_derive_laurent():
    # d(x1^-1) = -x1^-2 x1(1), as the Leibniz rule on x1 * x1^-1 = 1 forces
    # columns x1, x1(1), x1(2): -x1^-2 x1(1), 2 x1^-3 x1(1)^2 - x1^-2 x1(2)
    assert jet_chain({(-1,): 1}, 2, ORDINARY) == [
        {(-1, 0, 0): 1}, {(-2, 1, 0): -1}, {(-3, 2, 0): 2, (-2, 0, 1): -1}]


def test_derive_order_zero_ring():
    f = {(1, 1): 1}
    assert jet_chain(f, 0, ORDINARY) == [f]
    assert jet_chain(f, 0, LOG) == [f]


def _leibniz(f, g, m, mode):
    """d^k(fg) = sum_i binom(k, i) d^i f d^(k-i) g for every k <= m."""
    cf, cg = jet_chain(f, m, mode), jet_chain(g, m, mode)
    for k, dk in enumerate(jet_chain(_product(f, g), m, mode)):
        assert dk == _sum(_product(cf[i], cg[k - i], comb(k, i))
                          for i in range(k + 1))


def test_leibniz_ordinary():
    rng = random.Random(3)
    for _ in range(15):
        _leibniz(_random_base(rng, 2, laurent=True),
                 _random_base(rng, 2, laurent=True), 3, ORDINARY)


# -- log derivation ------------------------------------------------------------


def test_log_monomial_identity():
    # columns x1, x2, u11, u21: d(x1 x2^2) = x1 x2^2 (u11 + 2 u21)
    assert jet_chain({(1, 2): 1}, 1, LOG)[1] == \
        {(1, 2, 1, 0): 1, (1, 2, 0, 1): 2}


def test_log_jet_identity():
    # columns x1, u11, u12, u13: d(u11) = u12 - u11^2, the move u11 -> u12
    # and the grow of u11 with factor 0 - 1
    assert derivative_chain({(0, 1, 0, 0): 1}, 1, [(1, 2), (2, 3)],
                            [(1, 0, [1, 2, 3])])[1] == \
        {(0, 0, 1, 0): 1, (0, 2, 0, 0): -1}


def test_log_truncation():
    # columns x1, u11, u12 at m = 2: no move leaves u12, so
    # d(u12) = -u11 u12, with u13 taken as zero
    assert derivative_chain({(0, 0, 1): 1}, 1, [(1, 2)],
                            [(1, 0, [1, 2])])[1] == {(0, 1, 1): -1}


def test_log_second_derivative_of_variable():
    # d(x1) = x1 u11; d^2(x1) = x1(u11^2 + u12 - u11^2) = x1 u12;
    # d^2(x1^2) = d(2 x1^2 u11) = 2 x1^2 (2 u11^2 + u12 - u11^2)
    # columns x1, u11, u12
    assert jet_chain({(1,): 1}, 2, LOG) == [
        {(1, 0, 0): 1}, {(1, 1, 0): 1}, {(1, 0, 1): 1}]
    assert jet_chain({(2,): 1}, 2, LOG)[2] == {(2, 2, 0): 2, (2, 0, 1): 2}


def test_leibniz_log():
    rng = random.Random(4)
    for _ in range(15):
        _leibniz(_random_base(rng, 2, laurent=True),
                 _random_base(rng, 2, laurent=True), 3, LOG)


# -- substitution oracle ---------------------------------------------------------


def test_expand_log_variable():
    # columns x1, u11, u12, u13
    assert expand_by_substitution({(1,): 1}, 3, LOG) == [
        {(1, 0, 0, 0): 1}, {(1, 1, 0, 0): 1}, {(1, 0, 1, 0): 1},
        {(1, 0, 0, 1): 1}]


def test_expand_ordinary_product():
    # columns x1, x2, x1(1), x2(1): x1(1) x2 + x1 x2(1)
    assert expand_by_substitution({(1, 1): 1}, 1, ORDINARY) == [
        {(1, 1, 0, 0): 1}, {(0, 1, 1, 0): 1, (1, 0, 0, 1): 1}]


def test_expand_cusp():
    # columns x1, x2, x1(1), x2(1): 2 x1 x1(1) - 3 x2^2 x2(1)
    assert expand_by_substitution({(2, 0): 1, (0, 3): -1}, 1, ORDINARY) == [
        {(2, 0, 0, 0): 1, (0, 3, 0, 0): -1},
        {(1, 0, 1, 0): 2, (0, 2, 0, 1): -3}]


def test_expand_laurent_inverse():
    coeffs = expand_by_substitution({(-1,): 1}, 2, ORDINARY)
    assert coeffs == jet_chain({(-1,): 1}, 2, ORDINARY)


def _random_base(rng, n, laurent=False):
    """A nonzero map in n base variables, 1 when the drawn terms cancel."""
    poly = {}
    for _ in range(rng.randint(1, 4)):
        lo = -2 if laurent else 0
        base = tuple(rng.randint(lo, 4 if n == 1 else 2) for _ in range(n))
        if sum(abs(b) for b in base) > 4:
            continue
        coeff = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        poly[base] = poly.get(base, 0) + coeff
    poly = {e: c for e, c in poly.items() if c}
    return poly or {(0,) * n: Fraction(1)}


@pytest.mark.parametrize("mode", [ORDINARY, LOG])
@pytest.mark.parametrize("seed", range(8))
def test_oracle_agreement(mode, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 4)
    f = _random_base(rng, n, laurent=True)
    assert jet_chain(f, m, mode) == expand_by_substitution(f, m, mode)


# -- jet ideals ------------------------------------------------------------------


def test_jet_ideal_line_log():
    chart = Chart.build(monoid=N2, equations=["x1 + x2 - 1"])
    names, (chain,) = jet_ideal(chart, 2, LOG)
    assert names == ("x1", "x2", "u[1,1]", "u[1,2]", "u[2,1]", "u[2,2]")
    # x1 + x2 - 1, x1 u11 + x2 u21, x1 u12 + x2 u22
    assert chain == ({(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1,
                      (0, 0, 0, 0, 0, 0): -1},
                     {(1, 0, 1, 0, 0, 0): 1, (0, 1, 0, 0, 1, 0): 1},
                     {(1, 0, 0, 1, 0, 0): 1, (0, 1, 0, 0, 0, 1): 1})
    # oracle recomputation
    oracle = expand_by_substitution(chart.equations[0], 2, LOG)
    assert list(chain) == oracle


def test_jet_ideal_ordinary():
    chart = Chart.build(ambient_rank=2, equations=["x1*x2"])
    names, (chain,) = jet_ideal(chart, 1, ORDINARY)
    assert names == ("x1", "x2", "x1(1)", "x2(1)")
    # x1 x2, x1(1) x2 + x1 x2(1)
    assert chain == ({(1, 1, 0, 0): 1}, {(0, 1, 1, 0): 1, (1, 0, 0, 1): 1})
    # oracle recomputation
    oracle = expand_by_substitution(chart.equations[0], 1, ORDINARY)
    assert list(chain) == oracle


def test_jet_ideal_empty_equations():
    chart = Chart.build(monoid=N2, equations=[])
    assert jet_ideal(chart, 2, LOG)[1] == ()


def test_jet_ideal_log_needs_monoid():
    chart = Chart.build(ambient_rank=2, equations=["x1*x2"])
    with pytest.raises(ModeMismatchError):
        jet_ideal(chart, 1, LOG)


@pytest.mark.parametrize("mode", [ORDINARY, LOG])
def test_jet_ideal_refuses_a_negative_order(mode):
    chart = Chart.build(monoid=N2, equations=["x1 + x2 - 1"])
    with pytest.raises(ValueError, match="jet order must be nonnegative"):
        jet_ideal(chart, -1, mode)


def _ordinary_moves(n, m):
    """The moves x_k(j) -> x_k(j+1), j < m, in exponent_vector columns:
    base variable k at k, jet (k, j) at n + k*m + j - 1."""
    def col(k, j):
        return k if j == 0 else n + k * m + j - 1
    return [(col(k, j), col(k, j + 1)) for k in range(n) for j in range(m)]


def test_nilpotency():
    # the derivation is nilpotent on the truncated ring: each step raises
    # the total jet weight, so d^(m*deg+1) kills a base polynomial; the
    # exponent m+1 suffices only for linear inputs (d^2(x^2) = 2 x(1)^2
    # at m=1 is nonzero).  Columns x1, x2, x1(1), x2(1) at m = 1.
    moves = _ordinary_moves(2, 1)
    chain = derivative_chain({(2, 0, 0, 0): 1}, 3, moves)
    assert chain[2] == {(0, 0, 2, 0): 2}
    assert chain[3] == {}
    linear = {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 0, 0): -1}
    assert derivative_chain(linear, 2, moves)[2] == {}
    rng = random.Random(11)
    for _ in range(5):
        m = rng.randint(1, 3)
        f = _random_base(rng, 2)
        pad = (0,) * (2 * m)
        terms = {e + pad: c for e, c in f.items()}
        deg = max(map(sum, f))
        chain = derivative_chain(terms, m * deg + 1, _ordinary_moves(2, m))
        assert chain[m * deg + 1] == {}


# -- specialization ---------------------------------------------------------------


def test_specialize_basics():
    # columns x1, u11, u12 -> x1, x1(1), x1(2): u11 -> x1(1) x1^-1 and
    # x1 u12 -> x1(2)
    assert specialize_log_to_ordinary({(0, 1, 0): 1}, 1) == {(-1, 1, 0): 1}
    assert specialize_log_to_ordinary({(1, 0, 1): 1}, 1) == {(0, 0, 1): 1}


def test_specialize_intertwines_derivations():
    f = {(1, 2): 1}
    log_chain = jet_chain(f, 2, LOG)
    assert [specialize_log_to_ordinary(g, 2) for g in log_chain] == \
        jet_chain(f, 2, ORDINARY)


@pytest.mark.parametrize("seed", range(10))
def test_specialize_intertwines_random(seed):
    rng = random.Random(seed)
    f = _random_base(rng, 2, laurent=True)
    log_chain = jet_chain(f, 3, LOG)
    assert [specialize_log_to_ordinary(g, 2) for g in log_chain] == \
        jet_chain(f, 3, ORDINARY)


def test_torus_consistency():
    # for a group monoid the specialized log jet ideal equals the ordinary
    # jet ideal of the same equations, term for term
    z2 = AffineMonoid(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    chart = Chart.build(monoid=z2, equations=["x1 + x2 - 1"],
                        basis=[(1, 0), (0, 1)])
    _names, (log_rows,) = jet_ideal(chart, 2, LOG)
    _names, (ord_rows,) = jet_ideal(chart, 2, ORDINARY)
    for lg, od in zip(log_rows, ord_rows):
        assert specialize_log_to_ordinary(lg, 2) == od
