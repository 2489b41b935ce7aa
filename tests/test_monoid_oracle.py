"""Random rank-2 and rank-3 monoids against brute-force oracles for the
exact layer."""

import ast
import itertools
import re
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from logjet import intlinalg  # noqa: E402
from logjet.errors import MonoidError  # noqa: E402
from logjet.monoid import AffineMonoid  # noqa: E402

from test_monoid import reach_set  # noqa: E402

# Parallelepiped points of generators with entries in [-3, 3] have entries
# of absolute value at most 5, so this window holds every point the
# saturation proof can name.
WINDOW = 5

vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)


def spans_z2(gens):
    g = 0
    for a, b in itertools.combinations(gens, 2):
        g = gcd(g, intlinalg.det([list(a), list(b)]))
    return g == 1


def in_cone(gens, v):
    """Carathéodory in the plane: v is a nonnegative rational combination of
    one generator or of two independent ones."""
    if not any(v):
        return True
    for g in gens:
        if g[0] * v[1] == g[1] * v[0] and g[0] * v[0] + g[1] * v[1] > 0:
            return True
    for a, b in itertools.combinations(gens, 2):
        d = a[0] * b[1] - a[1] * b[0]
        if d:
            s = Fraction(v[0] * b[1] - v[1] * b[0], d)
            t = Fraction(a[0] * v[1] - a[1] * v[0], d)
            if s >= 0 and t >= 0:
                return True
    return False


def check_against_brute_force(gens, window, in_cone):
    """The monoid of gens is built iff every cone point of the window is an
    N-combination of gens, and then its membership is the oracle's on the
    whole window.  A monoid that is not saturated or not generated misses
    a parallelepiped point of some nonsingular n-subset, so the window must
    hold every such point; the point a refusal names is a cone point of
    the window that no N-combination reaches."""
    n = len(gens[0])
    reached = reach_set(gens, window)
    grid = list(itertools.product(range(-window, window + 1), repeat=n))
    saturated = all(v in reached or not in_cone(gens, v) for v in grid)
    try:
        monoid = AffineMonoid(n, gens)
    except MonoidError as err:
        assert not saturated
        named = ast.literal_eval(
            re.match(r"cone point (\(.*?\)) ", str(err)).group(1))
        assert max(map(abs, named)) <= window
        assert in_cone(gens, named) and named not in reached, named
        return
    assert saturated
    for v in grid:
        assert monoid.membership(v) == (v in reached), v


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.lists(vectors, min_size=2, max_size=5, unique=True))
def test_exact_layer_matches_brute_force(gens):
    hypothesis.assume(spans_z2(gens))
    check_against_brute_force(gens, WINDOW, in_cone)


vectors3 = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


def det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def spans_z3(gens):
    g = 0
    for triple in itertools.combinations(gens, 3):
        g = gcd(g, det3(*triple))
    return g == 1


def parallelepiped_window(gens):
    """A half-open parallelepiped point sum lam_i s_i (0 <= lam_i < 1) of
    three generators has |x_c| < sum |s_ic| in every coordinate c, so this
    window holds every point the saturation proof can name."""
    return max(sum(sorted(abs(g[c]) for g in gens)[-3:]) for c in range(3)) - 1


def in_cone3(gens, v):
    """Carathéodory in space: a point of the cone of generators spanning
    Q^3 is a nonnegative rational combination of three independent ones,
    whose coefficients Cramer's rule gives over Fractions."""
    for triple in itertools.combinations(gens, 3):
        d = det3(*triple)
        if d and all(Fraction(det3(*triple[:i], v, *triple[i + 1:]), d) >= 0
                     for i in range(3)):
            return True
    return False


@st.composite
def rank3_generators(draw):
    """Three to five vectors, then up to two of their pairwise sums that
    stay in [-2, 2]^3: generators inside the cone, not on its rays."""
    gens = draw(st.lists(vectors3, min_size=3, max_size=5, unique=True))
    sums = sorted({tuple(x + y for x, y in zip(a, b))
                   for a, b in itertools.combinations(gens, 2)}
                  - set(gens))
    sums = [s for s in sums if any(s) and max(map(abs, s)) <= 2]
    if sums:
        gens += draw(st.lists(st.sampled_from(sums), max_size=2, unique=True))
    return gens


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(rank3_generators())
# a line times a quadrant, not pointed
@hypothesis.example([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])
# all of Z^3, a cone with no facet
@hypothesis.example([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
# the cone over a square with its centre, a generator inside the cone
@hypothesis.example([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1),
                     (0, 0, 1)])
# spans Z^3, but (1, 2, 0) is in the cone and not generated; the star
# around (0, 0, 1) finds it on the facet z = 0, among three generators
@hypothesis.example([(0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 3, 0)])
def test_rank3_exact_layer_matches_brute_force(gens):
    hypothesis.assume(spans_z3(gens))
    check_against_brute_force(gens, parallelepiped_window(gens), in_cone3)
