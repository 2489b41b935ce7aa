"""The Jacobian minors on exponent maps against sympy.

strata._jacobian_minors differentiates {exponent tuple: coefficient}
maps and expands each c x c determinant by cofactors.  sympy here builds
the same Laurent polynomials as expressions, differentiates them and takes
Matrix.det, sharing none of that code.  Random systems have n <= 3
variables and c <= 2 equations; the empty system's one minor is 1.
"""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from logjet import strata  # noqa: E402


def _expr(terms, xs):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[x ** e for x, e in zip(xs, exps)])
                       for exps, c in terms.items()])


def sympy_minors(equations, n):
    xs = sympy.symbols(f"x1:{n + 1}")
    jacobian = sympy.Matrix([[sympy.diff(_expr(f, xs), x) for x in xs]
                             for f in equations])
    return xs, [jacobian.extract(list(range(len(equations))), list(cols))
                .det() if equations else sympy.Integer(1)
                for cols in itertools.combinations(range(n),
                                                   len(equations))]


@st.composite
def systems(draw):
    """(equations, n): c <= min(2, n) Laurent polynomials in n <= 3
    variables, each an {exponent tuple: Fraction} map."""
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(-2, 3)] * n)
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                       st.integers(1, 3))
    polys = st.dictionaries(exponents, coeffs, min_size=1, max_size=4)
    return draw(st.lists(polys, max_size=min(2, n))), n


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(systems())
def test_minors_match_sympy(case):
    equations, n = case
    minors = strata._jacobian_minors(equations, n)
    xs, expected = sympy_minors(equations, n)
    assert len(minors) == len(expected)
    for minor, det in zip(minors, expected):
        assert all(c != 0 for c in minor.values())
        assert all(len(exps) == n for exps in minor)
        assert sympy.expand(_expr(minor, xs) - det) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_empty_system_has_the_minor_one(n):
    assert strata._jacobian_minors([], n) == [{(0,) * n: 1}]
    assert sympy_minors([], n)[1] == [1]
