"""Random rank-2 monoids against brute-force oracles for the exact layer."""

import itertools
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


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.lists(vectors, min_size=2, max_size=5, unique=True))
def test_exact_layer_matches_brute_force(gens):
    hypothesis.assume(spans_z2(gens))
    reached = reach_set(gens, WINDOW)
    grid = list(itertools.product(range(-WINDOW, WINDOW + 1), repeat=2))
    saturated = all(v in reached for v in grid if in_cone(gens, v))
    try:
        monoid = AffineMonoid(2, gens)
    except MonoidError:
        assert not saturated
        return
    assert saturated
    for v in grid:
        assert monoid.membership(v) == (v in reached), v
