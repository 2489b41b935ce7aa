import random
from fractions import Fraction

import pytest

from logjet.errors import ExponentError, RingMismatchError
from logjet.poly import LOG, ORDINARY, JetMonomial, JetPoly, RingDescriptor

R2 = RingDescriptor(2, 0, ORDINARY)
RJ = RingDescriptor(2, 2, ORDINARY)
RL = RingDescriptor(2, 2, LOG)


def x(i, ring=R2, power=1):
    return JetPoly.base_var(ring, i, power)


def test_zero_and_constants():
    z = JetPoly.zero(R2)
    assert z.is_zero
    assert (z + 1).term_map() == {JetMonomial((0, 0)): 1}
    assert JetPoly.constant(R2, Fraction(3, 2)).render() == "3/2"


def test_no_zero_terms_stored():
    f = x(1) - x(1)
    assert f.is_zero and len(f) == 0
    g = x(1) + x(2)
    assert len(g) == 2


def test_arithmetic_examples():
    f = (x(1) + x(2)) * (x(1) - x(2))
    assert f == x(1, power=2) - x(2, power=2)
    h = x(1) + x(2)
    assert (h + (-h)).is_zero
    assert (x(1, power=-1) * x(1)) == JetPoly.one(R2)


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        x(1) + JetPoly.base_var(RingDescriptor(3, 0), 1)


def test_jet_exponents_nonnegative():
    with pytest.raises(ExponentError):
        JetMonomial((0, 0), (((1, 1), -1),))


def test_pow():
    f = x(1) + 1
    assert f ** 0 == JetPoly.one(R2)
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1


def _random_poly(rng, ring, laurent=False):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        lo = -2 if laurent else 0
        base = tuple(rng.randint(lo, 3) for _ in range(ring.n))
        jets = []
        if ring.m:
            for _ in range(rng.randint(0, 2)):
                i = rng.randint(1, ring.n)
                j = rng.randint(1, ring.m)
                jets.append(((i, j), rng.randint(1, 2)))
        coeff = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        if coeff:
            mono = JetMonomial(base, jets)
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return JetPoly(ring, terms)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ring", [R2, RJ, RL])
def test_ring_laws(seed, ring):
    rng = random.Random(seed)
    f = _random_poly(rng, ring, laurent=True)
    g = _random_poly(rng, ring, laurent=True)
    h = _random_poly(rng, ring, laurent=True)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


def test_canonical_term_order_degrevlex():
    # x1^2 > x1*x2 > x2^2 > x1 > x2 > 1 in degrevlex
    f = (1 + x(2) + x(1) + x(2, power=2) + x(1) * x(2) + x(1, power=2))
    rendered = f.render()
    assert rendered == "x1^2 + x1*x2 + x2^2 + x1 + x2 + 1"


def test_render_signs_and_rationals():
    f = -x(1, power=2) + JetPoly.constant(R2, Fraction(3, 2)) * x(2)
    assert f.render() == "-x1^2 + 3/2*x2"


def test_render_with_names():
    ring = RingDescriptor(3, 1, ORDINARY)
    w = JetPoly.base_var(ring, 3)
    f = w * JetPoly.jet_var(ring, 3, 1) - 1
    assert f.render(("x1", "x2", "w")) == "w*w(1) - 1"


def test_hashable_and_equal():
    f = x(1) + x(2)
    g = x(2) + x(1)
    assert f == g and hash(f) == hash(g)
