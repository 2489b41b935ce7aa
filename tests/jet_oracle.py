"""Substitution oracle for the jet derivation (imported by the tests only).

expand_by_substitution replaces each x_i in a base polynomial by a truncated
series in t (ordinary: sum_j x_i^(j) t^j/j!; log: x_i (1 + sum_{j>0}
u_{i,j} t^j/j!)) and reads off the coefficients of t^j/j!.  A chain of
derivatives must reproduce those coefficients exactly, so the oracle pins
every coefficient of jets.derivative_chain in both modes without sharing
its code.  specialize_log_to_ordinary maps the log ring into the ordinary
one (u_{i,j} -> x_i^(j)/x_i), where the two derivations must intertwine.
jet_chain is the chain under test, from jets.jet_ideal.
"""

from fractions import Fraction
from functools import cache
from math import factorial

from logjet.chart import Chart
from logjet.errors import ModeMismatchError
from logjet.jets import jet_ideal
from logjet.monoid import AffineMonoid
from logjet.poly import LOG, ORDINARY, JetMonomial, JetPoly, RingDescriptor


class Series:
    """Polynomial in t mod t^(m+1) with JetPoly coefficients (plain t^j)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        m = ring.m
        coeffs = list(coeffs)[:m + 1]
        while len(coeffs) < m + 1:
            coeffs.append(JetPoly.zero(ring))
        self.ring = ring
        self.coeffs = coeffs

    @classmethod
    def constant(cls, ring, poly):
        return cls(ring, [poly])

    def __mul__(self, other):
        m = self.ring.m
        out = [JetPoly.zero(self.ring) for _ in range(m + 1)]
        for a, ca in enumerate(self.coeffs):
            if ca.is_zero:
                continue
            for b in range(m + 1 - a):
                cb = other.coeffs[b]
                if cb.is_zero:
                    continue
                out[a + b] = out[a + b] + ca * cb
        return Series(self.ring, out)

    def __add__(self, other):
        return Series(self.ring,
                      [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def inverse(self):
        """Invert when the t^0 coefficient is a single Laurent term."""
        lead = self.coeffs[0]
        terms = lead.term_map()
        if len(terms) != 1:
            raise ValueError("t^0 coefficient is not a single term")
        mono, c = next(iter(terms.items()))
        if mono.jets:
            raise ValueError("t^0 coefficient involves jet variables")
        lead_inv = JetPoly.monomial(self.ring, [-a for a in mono.base],
                                    coeff=Fraction(1) / c)
        # self * lead_inv = 1 + N with N nilpotent; invert by geometric series
        norm = self * Series.constant(self.ring, lead_inv)
        neg_nil = Series(self.ring,
                         [JetPoly.zero(self.ring)]
                         + [-x for x in norm.coeffs[1:]])
        total = Series.constant(self.ring, JetPoly.one(self.ring))
        power = Series.constant(self.ring, JetPoly.one(self.ring))
        for _ in range(self.ring.m):
            power = power * neg_nil
            total = total + power
        return total * Series.constant(self.ring, lead_inv)

    def power(self, a):
        if a >= 0:
            result = Series.constant(self.ring, JetPoly.one(self.ring))
            square = self
            while a:
                if a & 1:
                    result = result * square
                a >>= 1
                if a:
                    square = square * square
            return result
        return self.inverse().power(-a)


def variable_series(ring, i):
    """Series substituted for x_i, as plain-t coefficients."""
    coeffs = [JetPoly.base_var(ring, i)]
    for j in range(1, ring.m + 1):
        c = Fraction(1, factorial(j))
        if ring.mode == ORDINARY:
            coeffs.append(JetPoly.jet_var(ring, i, j) * c)
        else:
            coeffs.append(JetPoly.base_var(ring, i)
                          * JetPoly.jet_var(ring, i, j) * c)
    return Series(ring, coeffs)


def expand_by_substitution(f, m, mode):
    """Coefficients c_0..c_m with f(substituted) = sum c_j t^j/j! mod t^(m+1).

    f must be a base polynomial (jet order 0); the result lives in the
    (n, m, mode) ring.
    """
    if f.ring.m != 0:
        raise ModeMismatchError("expansion needs a base polynomial (m = 0)")
    ring = RingDescriptor(f.ring.n, m, mode)
    var_series = {}
    total = Series(ring, [])
    for mono, c in f.term_map().items():
        term = Series.constant(ring, JetPoly.constant(ring, c))
        for i, a in enumerate(mono.base, start=1):
            if a == 0:
                continue
            if i not in var_series:
                var_series[i] = variable_series(ring, i)
            term = term * var_series[i].power(a)
        total = total + term
    return [total.coeffs[j] * factorial(j) for j in range(m + 1)]


def specialize_log_to_ordinary(g):
    """Substitute u_{i,j} -> x_i^(j) * x_i^-1; lands in the ordinary ring."""
    if g.ring.mode != LOG:
        raise ModeMismatchError("specialization needs a log polynomial")
    ring = RingDescriptor(g.ring.n, g.ring.m, ORDINARY)
    terms = {}
    for mono, c in g.term_map().items():
        base = list(mono.base)
        jets = {}
        for (i, j), e in mono.jets:
            base[i - 1] -= e
            jets[(i, j)] = jets.get((i, j), 0) + e
        key = JetMonomial(base, jets.items())
        terms[key] = terms.get(key, Fraction(0)) + c
    return JetPoly(ring, terms)


@cache
def _torus(n):
    """The monoid Z^n and its unit basis."""
    units = tuple(tuple(int(k == i) for k in range(n)) for i in range(n))
    return AffineMonoid(n, units + tuple(tuple(-a for a in u)
                                         for u in units)), units


def jet_chain(f, m, mode):
    """[f, df, ..., d^m f] as jets.jet_ideal derives it, on the torus chart
    with the one equation f (so both modes take Laurent f): the code under
    test, for comparison with expand_by_substitution."""
    n = f.ring.n
    (chain,) = jet_ideal(Chart(n, (f,), *_torus(n)), m, mode)
    return list(chain)
