"""Random small integer matrices against a Fraction row-echelon reference.

The reference is the rational elimination that the integer adjugate
replaced: reduced row echelon form over Q, with one rational solve per
parallelepiped point.
"""

import itertools
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from logjet import intlinalg  # noqa: E402
from logjet.monoid import _parallelepiped_points  # noqa: E402


def reduce_rational(rows, ncols):
    """Reduced row echelon form over Q: (rows of Fractions, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def solve_rational(columns, v):
    """The unique rational a with E a = v, E having the given columns."""
    n = len(columns)
    a, pivots = reduce_rational(
        [[columns[j][i] for j in range(n)] + [v[i]] for i in range(n)], n + 1)
    assert pivots[:n] == list(range(n))
    return [row[n] for row in a]


def reference_kernel(rows, ncols):
    """Primitive integer vector of a 1-dimensional kernel, else None."""
    a, pivots = reduce_rational(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -a[i][free[0]]
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    return [x // g for x in ints]


def reference_points(simplex):
    """The parallelepiped's points by one rational solve per coset."""
    rows = [list(s) for s in simplex]
    pivots = [next(x for x in row if x)
              for row in intlinalg.lattice_row_basis(rows)]
    points = set()
    for rep in itertools.product(*(range(d) for d in pivots)):
        lam = solve_rational(rows, rep)
        points.add(tuple(int(sum((c % 1) * s[k] for c, s in zip(lam, rows)))
                         for k in range(len(rep))))
    return points


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    entries = st.integers(-4, 4)
    mat = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                        min_size=n, max_size=n))
    v = draw(st.lists(entries, min_size=n, max_size=n))
    return mat, v


@hypothesis.settings(max_examples=250, deadline=None)
@hypothesis.given(matrices())
# unimodular examples of every size, so solve_unimodular is always compared
@hypothesis.example(case=([[-1]], [3]))
@hypothesis.example(case=([[2, 1], [1, 1]], [2, -3]))
@hypothesis.example(case=([[1, 2, 0], [0, 1, 3], [0, 0, -1]], [1, -4, 2]))
@hypothesis.example(case=([[1, 0, 0, 0], [2, 1, 0, 0], [-3, 4, 1, 0],
                           [1, 1, 1, 1]], [0, 4, -4, 1]))
def test_integer_algebra_matches_the_rational_reference(case):
    mat, v = case
    n = len(mat)
    d, adj = intlinalg.adjugate(mat)
    assert d == intlinalg.det(mat)
    for i in range(n):
        for j in range(n):
            assert sum(mat[i][k] * adj[k][j] for k in range(n)) == \
                d * (i == j)

    assert intlinalg.rank(mat) == len(reduce_rational(mat, n)[1])

    u = intlinalg.kernel_vector(mat[:-1], n)
    ref = reference_kernel(mat[:-1], n)
    if ref is None:
        assert u is None
    else:
        assert u in (ref, [-x for x in ref])

    if d in (1, -1):
        # mat holds the columns of E; E a = v
        expected = solve_rational(mat, v)
        assert intlinalg.solve_unimodular(mat, v) == expected
    else:
        with pytest.raises(ValueError, match=f"determinant {d} "):
            intlinalg.solve_unimodular(mat, v)

    if d:
        points = list(_parallelepiped_points(mat))
        assert len(points) == len(set(points)) == abs(d)
        assert set(points) == reference_points(mat)
        for p in points:
            assert all(0 <= c < 1 for c in solve_rational(mat, p))
