import random
from fractions import Fraction

import pytest

from logjet.chart import Chart
from logjet.errors import ModeMismatchError
from logjet.jets import (derivative_chain, derive_log, derive_ordinary,
                         jet_ideal)
from logjet.monoid import AffineMonoid
from logjet.parse import parse_poly
from logjet.poly import LOG, ORDINARY, JetPoly, RingDescriptor

from jet_oracle import expand_by_substitution, specialize_log_to_ordinary

N2 = AffineMonoid(2, [(1, 0), (0, 1)])


def ring(n, m, mode=ORDINARY):
    return RingDescriptor(n, m, mode)


def P(text, r):
    return parse_poly(text, r)


# -- ordinary derivation -------------------------------------------------------


def test_derive_square():
    r = ring(1, 2)
    assert derive_ordinary(P("x1^2", r)) == P("2*x1*x1(1)", r)


def test_derive_kills_top_order():
    r = ring(1, 2)
    assert derive_ordinary(P("x1(2)", r)).is_zero


def test_derive_laurent():
    # forced by the Leibniz rule on x1 * x1^-1 = 1
    r = ring(1, 2)
    f = P("x1^-1", r)
    assert derive_ordinary(f) == P("-x1^-2*x1(1)", r)
    assert derive_ordinary(P("x1", r) * f).is_zero


def test_derive_order_zero_ring():
    r = ring(2, 0)
    assert derive_ordinary(P("x1*x2", r)).is_zero


def test_leibniz_ordinary():
    rng = random.Random(3)
    r = ring(2, 3)
    for _ in range(15):
        f = _random_base(rng, r, laurent=True)
        g = _random_base(rng, r, laurent=True)
        assert derive_ordinary(f * g) == \
            derive_ordinary(f) * g + f * derive_ordinary(g)


# -- log derivation ------------------------------------------------------------


def test_log_monomial_identity():
    r = ring(2, 2, LOG)
    f = P("x1*x2^2", r)
    assert derive_log(f) == f * P("u[1,1] + 2*u[2,1]", r)


def test_log_jet_identity():
    r = ring(1, 3, LOG)
    assert derive_log(P("u[1,1]", r)) == P("u[1,2] - u[1,1]^2", r)


def test_log_truncation():
    # u_{i,m+1} is treated as zero
    r = ring(1, 2, LOG)
    assert derive_log(P("u[1,2]", r)) == P("-u[1,1]*u[1,2]", r)


def test_log_second_derivative_of_variable():
    # d(x1) = x1 u11; d^2(x1) = x1(u11^2 + u12 - u11^2) = x1 u12
    r = ring(1, 2, LOG)
    chain = derivative_chain(P("x1", r))
    assert chain[1] == P("x1*u[1,1]", r)
    assert chain[2] == P("x1*u[1,2]", r)


def test_leibniz_log():
    rng = random.Random(4)
    r = ring(2, 3, LOG)
    for _ in range(15):
        f = _random_log(rng, r)
        g = _random_log(rng, r)
        assert derive_log(f * g) == derive_log(f) * g + f * derive_log(g)


def test_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        derive_log(P("x1", ring(1, 1, ORDINARY)))
    with pytest.raises(ModeMismatchError):
        derive_ordinary(P("x1", ring(1, 1, LOG)))


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
    rj = ring(1, 2)
    chain = derivative_chain(P("x1^-1", rj))
    assert coeffs == chain


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


def _random_log(rng, r):
    poly = _random_base(rng, r, laurent=True)
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(1, r.n)
        j = rng.randint(1, r.m)
        poly = poly * JetPoly.jet_var(r, i, j)
    return poly


@pytest.mark.parametrize("mode", [ORDINARY, LOG])
@pytest.mark.parametrize("seed", range(8))
def test_oracle_agreement(mode, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 4)
    base = ring(n, 0)
    f = _random_base(rng, base, laurent=True)
    jet_ring = ring(n, m, mode)
    chain = derivative_chain(f.with_ring(jet_ring))
    oracle = expand_by_substitution(f, m, mode)
    assert chain == oracle


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


def test_nilpotency():
    # the derivation is nilpotent on the truncated ring: each step raises
    # the total jet weight, so d^(m*deg+1) kills a base polynomial; the
    # exponent m+1 suffices only for linear inputs (d^2(x^2) = 2 x(1)^2
    # at m=1 is nonzero)
    r = ring(2, 1)
    f = P("x1^2", r)
    chain = derivative_chain(f, 3)
    assert chain[2] == P("2*x1(1)^2", r)
    assert chain[3].is_zero
    linear = P("x1 + 2*x2 - 1", r)
    assert derivative_chain(linear, 2)[2].is_zero
    rng = random.Random(11)
    for _ in range(5):
        m = rng.randint(1, 3)
        r = ring(2, m)
        f = _random_base(rng, r)
        deg = max((sum(abs(e) for e in mono.base)
                   for mono in f.term_map()), default=0)
        chain = derivative_chain(f, m * deg + 1)
        assert chain[m * deg + 1].is_zero


# -- specialization ---------------------------------------------------------------


def test_specialize_basics():
    rl = ring(1, 2, LOG)
    ro = ring(1, 2, ORDINARY)
    assert specialize_log_to_ordinary(P("u[1,1]", rl)) == \
        P("x1(1)*x1^-1", ro)
    assert specialize_log_to_ordinary(P("x1*u[1,2]", rl)) == P("x1(2)", ro)


def test_specialize_intertwines_derivations():
    rl = ring(2, 2, LOG)
    f = P("x1*x2^2", rl)
    assert specialize_log_to_ordinary(derive_log(f)) == \
        derive_ordinary(specialize_log_to_ordinary(f))


@pytest.mark.parametrize("seed", range(10))
def test_specialize_intertwines_random(seed):
    rng = random.Random(seed)
    r = ring(2, 3, LOG)
    g = _random_log(rng, r)
    assert specialize_log_to_ordinary(derive_log(g)) == \
        derive_ordinary(specialize_log_to_ordinary(g))


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
