"""The Jacobian minors on exponent maps against sympy.

strata._jacobian_minors differentiates {exponent tuple: coefficient}
maps and expands the c x c determinants along their rows, sharing the
minors of the lower rows by column set.  sympy here builds the same
Laurent polynomials as expressions, differentiates them and takes the
determinants with DomainMatrix over QQ[x1..xn], sharing none of that
code.  Random systems have n <= 4 variables and c <= 4 equations; the
empty system's one minor is 1.  A chain of eight equations, whose minors
took seconds by cofactor expansion, builds well within a second.
"""

import itertools
import time
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from logjet import Chart, strata  # noqa: E402


def _expr(terms, xs):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[x ** e for x, e in zip(xs, exps)])
                       for exps, c in terms.items()])


def sympy_minors(equations, n):
    """(to_ring, minors): each c x c minor times clear^c, where clear =
    (x1 ... xn)^3, as an element of sympy's QQ[x1..xn], and to_ring, which
    takes an exponent map to that ring times clear^c.  Exponents are >= -2,
    so a partial derivative times clear is a polynomial, and the
    determinants are taken by DomainMatrix over the polynomial ring: the
    expression determinant of Laurent entries is far slower."""
    xs = sympy.symbols(f"x1:{n + 1}")
    ring, *_gens = sympy.ring(xs, sympy.QQ)
    clear = sympy.Mul(*xs) ** 3
    jacobian = [[ring.from_expr(sympy.expand(sympy.diff(_expr(f, xs), x)
                                             * clear)) for x in xs]
                for f in equations]
    c = len(equations)
    minors = [DomainMatrix([[row[k] for k in cols] for row in jacobian],
                           (c, c), ring.to_domain()).det() if c else ring.one
              for cols in itertools.combinations(range(n), c)]

    def to_ring(terms):
        return ring.from_expr(sympy.expand(_expr(terms, xs) * clear ** c))

    return to_ring, minors


@st.composite
def systems(draw):
    """(equations, n): c <= n Laurent polynomials in n <= 4 variables,
    each an {exponent tuple: Fraction} map."""
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(-2, 3)] * n)
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                       st.integers(1, 3))
    polys = st.dictionaries(exponents, coeffs, min_size=1, max_size=4)
    return draw(st.lists(polys, max_size=n)), n


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(systems())
def test_minors_match_sympy(case):
    equations, n = case
    minors = strata._jacobian_minors(equations, n)
    to_ring, expected = sympy_minors(equations, n)
    assert len(minors) == len(expected)
    for minor, det in zip(minors, expected):
        assert all(c != 0 for c in minor.values())
        assert all(len(exps) == n for exps in minor)
        assert to_ring(minor) == det


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_empty_system_has_the_minor_one(n):
    assert strata._jacobian_minors([], n) == [{(0,) * n: 1}]
    assert sympy_minors([], n)[1] == [1]


def test_a_chain_of_eight_equations_builds_in_under_a_second():
    """x_i + x_{i+1}^2 - i, i = 1..8, in A^9: the Jacobian is bidiagonal,
    1 at (i, i) and 2 x_{i+1} at (i, i+1), so dropping column j leaves a
    block-triangular minor, the product 2^(8-j) x_{j+2} ... x_9 of the
    entries right of the diagonal from row j on."""
    c = 8
    chart = Chart.build(ambient_rank=c + 1, equations=[
        f"x{i} + x{i + 1}^2 - {i}" for i in range(1, c + 1)])
    start = time.perf_counter()
    source = strata.open_part(chart)
    assert time.perf_counter() - start < 1
    # combinations order drops the last column first
    assert source.constraints == tuple(
        {tuple(int(k > j) for k in range(c + 1)): 2 ** (c - j)}
        for j in reversed(range(c + 1)))
