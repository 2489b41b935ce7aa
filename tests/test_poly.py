"""Polynomials as {exponent tuple: Fraction} maps: the parser's arithmetic
and render, the one format from chart text to report."""

import random
from fractions import Fraction

import pytest

from logjet.chart import Chart
from logjet.errors import ExpressionSyntaxError
from logjet.jets import LOG, ORDINARY, jet_ideal
from logjet.monoid import AffineMonoid
from logjet.parse import parse_poly, render

XS = ("x1", "x2")


def P(text, n=2):
    return parse_poly(text, n)


def test_zero_and_constants():
    assert P("0") == {} and P("1 - 1") == {}
    assert render({}, XS) == "0"
    assert P("3/2") == {(0, 0): Fraction(3, 2)}
    assert render(P("3/2"), XS) == "3/2"


def test_no_zero_terms_stored():
    assert P("x1 - x1") == {}
    assert len(P("x1 + x2")) == 2
    assert P("(x1 + 1)*(x1 - 1) + 1") == {(2, 0): 1}


def test_arithmetic_examples():
    assert P("(x1 + x2)*(x1 - x2)") == P("x1^2 - x2^2")
    assert P("(x1 + x2) - (x1 + x2)") == {}
    assert P("x1^-1*x1") == {(0, 0): 1}


def test_ring_mismatch():
    # a variable outside x1..xn does not parse, and render needs one name
    # per exponent column
    with pytest.raises(ExpressionSyntaxError, match="outside ring"):
        P("x3")
    with pytest.raises(ValueError):
        render({(1, 0, 1): 1}, XS)


def test_jet_exponents_nonnegative():
    # only the base columns of a jet chain are Laurent
    z2 = AffineMonoid(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    chart = Chart.build(monoid=z2, equations=["x1^-2*x2 - x2^-1"],
                        basis=[(1, 0), (0, 1)])
    for mode in (ORDINARY, LOG):
        _names, (chain,) = jet_ideal(chart, 2, mode)
        assert all(min(e[2:]) >= 0 for g in chain for e in g)
        assert any(min(e[:2]) < 0 for g in chain for e in g)


def test_pow():
    assert P("(x1 + 1)^0") == {(0, 0): 1}
    assert P("(x1 + 1)^3") == P("(x1 + 1)*(x1 + 1)*(x1 + 1)")
    assert P("(2*x1)^-2") == {(-2, 0): Fraction(1, 4)}
    with pytest.raises(ExpressionSyntaxError, match="non-monomial"):
        P("(x1 + 1)^-1")


def _random_poly(rng, n, lo):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = tuple(rng.randint(lo, 3) for _ in range(n))
        coeff = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        terms[e] = terms.get(e, 0) + coeff
    return {e: c for e, c in terms.items() if c}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ring", [(1, -2), (2, -2), (3, -1)])
def test_ring_laws(seed, ring):
    """The parser's +, - and * on rendered random Laurent maps: ring is
    (number of variables, lowest exponent)."""
    n, lo = ring
    rng = random.Random(seed)
    names = tuple(f"x{i}" for i in range(1, n + 1))
    f, g, h = (f"({render(_random_poly(rng, n, lo), names)})"
               for _ in range(3))
    assert P(f"({f} + {g}) + {h}", n) == P(f"{f} + ({g} + {h})", n)
    assert P(f"{f} + {g}", n) == P(f"{g} + {f}", n)
    assert P(f"({f} * {g}) * {h}", n) == P(f"{f} * ({g} * {h})", n)
    assert P(f"{f} * {g}", n) == P(f"{g} * {f}", n)
    assert P(f"{f} * ({g} + {h})", n) == P(f"{f} * {g} + {f} * {h}", n)
    assert P(f"{f} - {f}", n) == {}


def test_canonical_term_order_degrevlex():
    # x1^2 > x1*x2 > x2^2 > x1 > x2 > 1 in degrevlex
    f = P("1 + x2 + x1 + x2^2 + x1*x2 + x1^2")
    assert render(f, XS) == "x1^2 + x1*x2 + x2^2 + x1 + x2 + 1"


def test_render_signs_and_rationals():
    assert render(P("-x1^2 + 3/2*x2"), XS) == "-x1^2 + 3/2*x2"
    # integer coefficients print as the equal Fractions do
    assert render({(1, 0): 2, (0, 0): -1}, XS) == "2*x1 - 1"


def test_render_with_names():
    f = {(0, 0, 1, 1): 1, (0, 0, 0, 0): -1}
    assert render(f, ("x1", "x2", "w", "w(1)")) == "w*w(1) - 1"
