"""The jet derivation on chains of base polynomials, and jet ideals.

jet_chain (tests/jet_oracle.py) reads a chain off jets.jet_ideal; the
hand-written tuple examples call jets.derivative_chain directly.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from logjet.chart import Chart
from logjet.errors import ModeMismatchError
from logjet.jets import derivative_chain, jet_ideal
from logjet.monoid import AffineMonoid
from logjet.parse import parse_poly
from logjet.poly import LOG, ORDINARY, JetPoly, RingDescriptor

from jet_oracle import (expand_by_substitution, jet_chain,
                        specialize_log_to_ordinary)

N2 = AffineMonoid(2, [(1, 0), (0, 1)])


def ring(n, m, mode=ORDINARY):
    return RingDescriptor(n, m, mode)


def P(text, r):
    return parse_poly(text, r)


# -- ordinary derivation -------------------------------------------------------


def test_derive_square():
    r = ring(1, 2)
    assert jet_chain(P("x1^2", ring(1, 0)), 2, ORDINARY) == [
        P("x1^2", r), P("2*x1*x1(1)", r), P("2*x1(1)^2 + 2*x1*x1(2)", r)]


def test_derive_kills_top_order():
    # columns x1, x1(1), x1(2): no move leaves the top column, so x1(2)
    # derives to zero with no truncation rule
    assert derivative_chain({(0, 0, 1): 1}, 1, [(0, 1), (1, 2)]) == \
        [{(0, 0, 1): 1}, {}]


def test_derive_laurent():
    # d(x1^-1) = -x1^-2 x1(1), as the Leibniz rule on x1 * x1^-1 = 1 forces
    r = ring(1, 2)
    assert jet_chain(P("x1^-1", ring(1, 0)), 2, ORDINARY) == [
        P("x1^-1", r), P("-x1^-2*x1(1)", r),
        P("2*x1^-3*x1(1)^2 - x1^-2*x1(2)", r)]


def test_derive_order_zero_ring():
    f = P("x1*x2", ring(2, 0))
    assert jet_chain(f, 0, ORDINARY) == [f]
    assert jet_chain(f, 0, LOG) == [P("x1*x2", ring(2, 0, LOG))]


def _leibniz(f, g, m, mode):
    """d^k(fg) = sum_i binom(k, i) d^i f d^(k-i) g for every k <= m."""
    cf, cg = jet_chain(f, m, mode), jet_chain(g, m, mode)
    for k, dk in enumerate(jet_chain(f * g, m, mode)):
        assert dk == sum((cf[i] * cg[k - i] * comb(k, i)
                          for i in range(k + 1)), JetPoly.zero(dk.ring))


def test_leibniz_ordinary():
    rng = random.Random(3)
    r = ring(2, 0)
    for _ in range(15):
        _leibniz(_random_base(rng, r, laurent=True),
                 _random_base(rng, r, laurent=True), 3, ORDINARY)


# -- log derivation ------------------------------------------------------------


def test_log_monomial_identity():
    f = P("x1*x2^2", ring(2, 0))
    rl = ring(2, 1, LOG)
    assert jet_chain(f, 1, LOG)[1] == \
        P("x1*x2^2", rl) * P("u[1,1] + 2*u[2,1]", rl)


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
    rl = ring(1, 2, LOG)
    assert jet_chain(P("x1", ring(1, 0)), 2, LOG) == [
        P("x1", rl), P("x1*u[1,1]", rl), P("x1*u[1,2]", rl)]
    assert jet_chain(P("x1^2", ring(1, 0)), 2, LOG)[2] == \
        P("2*x1^2*u[1,1]^2 + 2*x1^2*u[1,2]", rl)


def test_leibniz_log():
    rng = random.Random(4)
    r = ring(2, 0)
    for _ in range(15):
        _leibniz(_random_base(rng, r, laurent=True),
                 _random_base(rng, r, laurent=True), 3, LOG)


# -- substitution oracle ---------------------------------------------------------


def test_expand_log_variable():
    r = ring(1, 0)
    coeffs = expand_by_substitution(P("x1", r), 3, LOG)
    rl = ring(1, 3, LOG)
    assert coeffs == [P("x1", rl), P("x1*u[1,1]", rl),
                      P("x1*u[1,2]", rl), P("x1*u[1,3]", rl)]


def test_expand_ordinary_product():
    r = ring(2, 0)
    coeffs = expand_by_substitution(P("x1*x2", r), 1, ORDINARY)
    r1 = ring(2, 1)
    assert coeffs == [P("x1*x2", r1), P("x1(1)*x2 + x1*x2(1)", r1)]


def test_expand_cusp():
    r = ring(2, 0)
    coeffs = expand_by_substitution(P("x1^2 - x2^3", r), 1, ORDINARY)
    r1 = ring(2, 1)
    assert coeffs == [P("x1^2 - x2^3", r1),
                      P("2*x1*x1(1) - 3*x2^2*x2(1)", r1)]


def test_expand_laurent_inverse():
    r = ring(1, 0)
    coeffs = expand_by_substitution(P("x1^-1", r), 2, ORDINARY)
    assert coeffs == jet_chain(P("x1^-1", r), 2, ORDINARY)


def _random_base(rng, r, laurent=False):
    terms = []
    for _ in range(rng.randint(1, 4)):
        lo = -2 if laurent else 0
        base = tuple(rng.randint(lo, 4 if r.n == 1 else 2)
                     for _ in range(r.n))
        if sum(abs(b) for b in base) > 4:
            continue
        coeff = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        terms.append((base, coeff))
    poly = JetPoly.zero(r)
    for base, coeff in terms:
        poly = poly + JetPoly.monomial(r, base, coeff=coeff)
    return poly if poly else JetPoly.one(r)


@pytest.mark.parametrize("mode", [ORDINARY, LOG])
@pytest.mark.parametrize("seed", range(8))
def test_oracle_agreement(mode, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 4)
    f = _random_base(rng, ring(n, 0), laurent=True)
    assert jet_chain(f, m, mode) == expand_by_substitution(f, m, mode)


# -- jet ideals ------------------------------------------------------------------


def test_jet_ideal_line_log():
    chart = Chart.build(monoid=N2, equations=["x1 + x2 - 1"])
    (chain,) = jet_ideal(chart, 2, LOG)
    rl = ring(2, 2, LOG)
    assert chain == (P("x1 + x2 - 1", rl),
                     P("x1*u[1,1] + x2*u[2,1]", rl),
                     P("x1*u[1,2] + x2*u[2,2]", rl))
    # oracle recomputation
    oracle = expand_by_substitution(P("x1 + x2 - 1", ring(2, 0)), 2, LOG)
    assert list(chain) == oracle


def test_jet_ideal_ordinary():
    chart = Chart.build(ambient_rank=2, equations=["x1*x2"])
    (chain,) = jet_ideal(chart, 1, ORDINARY)
    r1 = ring(2, 1)
    assert chain == (P("x1*x2", r1), P("x1(1)*x2 + x1*x2(1)", r1))
    # oracle recomputation
    oracle = expand_by_substitution(P("x1*x2", ring(2, 0)), 1, ORDINARY)
    assert list(chain) == oracle


def test_jet_ideal_empty_equations():
    chart = Chart.build(monoid=N2, equations=[])
    assert jet_ideal(chart, 2, LOG) == ()


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
        f = _random_base(rng, ring(2, 0))
        pad = (0,) * (2 * m)
        terms = {mono.base + pad: c for mono, c in f.term_map().items()}
        deg = max(sum(mono.base) for mono in f.term_map())
        chain = derivative_chain(terms, m * deg + 1, _ordinary_moves(2, m))
        assert chain[m * deg + 1] == {}


# -- specialization ---------------------------------------------------------------


def test_specialize_basics():
    rl = ring(1, 2, LOG)
    ro = ring(1, 2, ORDINARY)
    assert specialize_log_to_ordinary(P("u[1,1]", rl)) == \
        P("x1(1)*x1^-1", ro)
    assert specialize_log_to_ordinary(P("x1*u[1,2]", rl)) == P("x1(2)", ro)


def test_specialize_intertwines_derivations():
    f = P("x1*x2^2", ring(2, 0))
    log_chain = jet_chain(f, 2, LOG)
    assert [specialize_log_to_ordinary(g) for g in log_chain] == \
        jet_chain(f, 2, ORDINARY)


@pytest.mark.parametrize("seed", range(10))
def test_specialize_intertwines_random(seed):
    rng = random.Random(seed)
    f = _random_base(rng, ring(2, 0), laurent=True)
    log_chain = jet_chain(f, 3, LOG)
    assert [specialize_log_to_ordinary(g) for g in log_chain] == \
        jet_chain(f, 3, ORDINARY)


def test_torus_consistency():
    # for a group monoid the specialized log jet ideal equals the ordinary
    # jet ideal of the same equations, term for term
    z2 = AffineMonoid(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    chart = Chart.build(monoid=z2, equations=["x1 + x2 - 1"],
                        basis=[(1, 0), (0, 1)])
    (log_rows,) = jet_ideal(chart, 2, LOG)
    (ord_rows,) = jet_ideal(chart, 2, ORDINARY)
    for lg, od in zip(log_rows, ord_rows):
        assert specialize_log_to_ordinary(lg) == od
