"""Substitution oracle for the jet derivation (imported by the tests only).

expand_by_substitution replaces each x_i in a base polynomial by a truncated
series in t (ordinary: sum_j x_i^(j) t^j/j!; log: x_i (1 + sum_{j>0}
u_{i,j} t^j/j!)) and reads off the coefficients of t^j/j!.  A chain of
derivatives must reproduce those coefficients exactly, so the oracle pins
every coefficient of jets.derivative_chain in both modes.  It computes in
sympy's sparse polynomial rings over QQ, so it shares no arithmetic with
logjet: each x_i gets an inverse variable y_i, and x_i(t)^a is x_i^a (or
y_i^-a) times sum_k binom(a, k) rel^k, cut at t^(m+1), where rel is
delta_i y_i in ordinary mode and delta_i in log mode, delta_i being the
jet part of the series.

Polynomials are {exponent tuple: coefficient} maps in the columns of
jets.jet_ideal: x_1..x_n, then the jets of x_i ordered by (i, j), x_i(j)
in ordinary mode and u_{i,j} in log mode.  specialize_log_to_ordinary maps
the log columns to the ordinary ones (u_{i,j} -> x_i^(j)/x_i), where the
two derivations must intertwine.  jet_chain is the chain under test, from
jets.jet_ideal.
"""

from fractions import Fraction
from functools import cache
from math import factorial

import pytest

from logjet.chart import Chart
from logjet.jets import ORDINARY, jet_ideal
from logjet.monoid import AffineMonoid

QQ = pytest.importorskip("sympy").QQ
ring = pytest.importorskip("sympy.polys.rings").ring


@cache
def _ring(n, m):
    """QQ[x_1..x_n, y_1..y_n, d_{i,j}, t] with the d_{i,j} in (i, j)
    order: (ring, x, y, d, t)."""
    names = ([f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
             + [f"d{i}_{j}" for i in range(n) for j in range(m)] + ["t"])
    R, *gens = ring(",".join(names), QQ)
    d = [gens[2 * n + i * m:2 * n + (i + 1) * m] for i in range(n)]
    return R, gens[:n], gens[n:2 * n], d, gens[-1]


def _cut(p, m):
    """p with every term of t-degree above m dropped."""
    return p.ring.from_dict({e: c for e, c in p.items() if e[-1] <= m})


def _binom(a, k):
    """The binomial coefficient of any integer a, as a QQ element."""
    num = 1
    for r in range(k):
        num *= a - r
    return QQ(num, factorial(k))


def expand_by_substitution(f, m, mode):
    """Coefficients c_0..c_m with f(substituted) = sum c_j t^j/j! mod t^(m+1).

    f is a base polynomial, an {exponent tuple over x_1..x_n: coefficient}
    map; each c_j is a map in jet_ideal's columns.
    """
    n = len(next(iter(f)))
    R, x, y, d, t = _ring(n, m)
    rel_powers = []
    for i in range(n):
        delta = sum((d[i][j - 1] * t ** j * QQ(1, factorial(j))
                     for j in range(1, m + 1)), R.zero)
        rel = delta * y[i] if mode == ORDINARY else delta
        powers = [R.one]
        for _ in range(m):
            powers.append(_cut(powers[-1] * rel, m))
        rel_powers.append(powers)
    total = R.zero
    for exps, c in f.items():
        term = R(QQ(c.numerator, c.denominator))
        for i, a in enumerate(exps):
            if a:
                series = sum((_binom(a, k) * rel_powers[i][k]
                              for k in range(m + 1)), R.zero)
                term = _cut(term * (x[i] ** a if a > 0 else y[i] ** -a)
                            * series, m)
        total += term
    coeffs = [{} for _ in range(m + 1)]
    for e, c in total.items():
        key = (tuple(a - b for a, b in zip(e[:n], e[n:2 * n]))
               + tuple(e[2 * n:-1]))
        out = coeffs[e[-1]]
        out[key] = (out.get(key, 0) + Fraction(int(c.numerator),
                                               int(c.denominator))
                    * factorial(e[-1]))
    return [{k: c for k, c in out.items() if c} for out in coeffs]


def specialize_log_to_ordinary(g, n):
    """Substitute u_{i,j} -> x_i^(j) * x_i^-1 in a map over n base
    variables; the result is in the ordinary columns."""
    m = (len(next(iter(g))) - n) // n if g else 0
    out = {}
    for e, c in g.items():
        base = tuple(e[i] - sum(e[n + i * m:n + (i + 1) * m])
                     for i in range(n))
        key = base + e[n:]
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


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
    n = len(next(iter(f)))
    _names, (chain,) = jet_ideal(Chart(n, (f,), *_torus(n)), m, mode)
    return list(chain)
