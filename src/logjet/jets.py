"""The jet derivation d in ordinary and log modes, and jet ideals.

Ordinary mode: d maps x_i^(j) to x_i^(j+1) with x_i^(m) killed, satisfies
the Leibniz rule, and extends to Laurent monomials by d(x_i^-1) =
-x_i^-2 x_i^(1).

Log mode: with u_{i,j} standing for x_i^(j)/x_i,

    d(prod x_i^{a_i}) = (prod x_i^{a_i}) * sum_i a_i u_{i,1}
    d(u_{i,j})        = u_{i,j+1} - u_{i,1} u_{i,j}      (u_{i,m+1} = 0)

The order-m jet ideal of a chart is generated by d^j f_i, 0 <= j <= m, for
its equations f_i.  The oracles for both derivations live in the tests:
tests/jet_oracle.py expands f after substituting truncated series for the
x_i (ordinary: sum_j x_i^(j) t^j/j!; log: x_i (1 + sum_{j>0} u_{i,j}
t^j/j!)), which pins every coefficient, and tests/test_bundle_oracle.py
checks the dimensions of log jet ideals restricted to each stratum against
the paper's bundle identity dim J_m(X_l) + m*l.
"""

from fractions import Fraction

from .errors import ModeMismatchError
from .poly import (LOG, ORDINARY, JetMonomial, JetPoly, RingDescriptor,
                   require_mode)


def derive_ordinary(f):
    """Apply d once in ordinary mode."""
    require_mode(f, ORDINARY)
    ring = f.ring
    m = ring.m
    out = {}

    def add(mono, c):
        s = out.get(mono, Fraction(0)) + c
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s

    for mono, c in f.term_map().items():
        if m == 0:
            continue
        jets = mono.jet_map()
        for i, a in enumerate(mono.base, start=1):
            if a == 0:
                continue
            base = list(mono.base)
            base[i - 1] = a - 1
            j1 = dict(jets)
            j1[(i, 1)] = j1.get((i, 1), 0) + 1
            add(JetMonomial(base, j1.items()), c * a)
        for (i, j), e in mono.jets:
            if j >= m:
                continue
            j1 = dict(jets)
            j1[(i, j)] = e - 1
            j1[(i, j + 1)] = j1.get((i, j + 1), 0) + 1
            add(JetMonomial(mono.base, j1.items()), c * e)
    return JetPoly(ring, out)


def derive_log(f):
    """Apply d once in log mode."""
    require_mode(f, LOG)
    ring = f.ring
    m = ring.m
    out = {}

    def add(mono, c):
        s = out.get(mono, Fraction(0)) + c
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s

    for mono, c in f.term_map().items():
        if m == 0:
            continue
        jets = mono.jet_map()
        # monomial part: prod x^a contributes sum_i a_i u_{i,1}
        for i, a in enumerate(mono.base, start=1):
            if a == 0:
                continue
            j1 = dict(jets)
            j1[(i, 1)] = j1.get((i, 1), 0) + 1
            add(JetMonomial(mono.base, j1.items()), c * a)
        # jet part: u_{i,j} -> u_{i,j+1} - u_{i,1} u_{i,j}
        for (i, j), e in mono.jets:
            if j < m:
                j1 = dict(jets)
                j1[(i, j)] = e - 1
                j1[(i, j + 1)] = j1.get((i, j + 1), 0) + 1
                add(JetMonomial(mono.base, j1.items()), c * e)
            j2 = dict(jets)
            j2[(i, 1)] = j2.get((i, 1), 0) + 1
            add(JetMonomial(mono.base, j2.items()), -c * e)
    return JetPoly(ring, out)


def derive(f):
    return derive_log(f) if f.ring.mode == LOG else derive_ordinary(f)


def derivative_chain(f, m=None):
    """[f, df, d^2 f, ...] up to the ring's jet order (or m if given)."""
    m = f.ring.m if m is None else m
    chain = [f]
    for _ in range(m):
        chain.append(derive(chain[-1]))
    return chain


def jet_ideal(chart, m, mode):
    """Generators of the order-m jet ideal of a chart, in the given mode.

    Entry i is the chain (f_i, d f_i, ..., d^m f_i) of the i-th chart
    equation; together the chains cut out J_m(X) inside the jet space of
    the ambient chart.
    """
    if mode == LOG and chart.monoid is None:
        raise ModeMismatchError("log jet ideal needs a chart with a monoid")
    ring = RingDescriptor(chart.ambient_rank, m, mode)
    return tuple(tuple(derivative_chain(f.with_ring(ring)))
                 for f in chart.equations)
