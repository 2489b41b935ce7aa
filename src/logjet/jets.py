"""The jet derivation in ordinary and log modes, and its substitution oracle.

Ordinary mode: d maps x_i^(j) to x_i^(j+1) with x_i^(m) killed, satisfies
the Leibniz rule, and extends to Laurent monomials by d(x_i^-1) =
-x_i^-2 x_i^(1).

Log mode: with u_{i,j} standing for x_i^(j)/x_i,

    d(prod x_i^{a_i}) = (prod x_i^{a_i}) * sum_i a_i u_{i,1}
    d(u_{i,j})        = u_{i,j+1} - u_{i,1} u_{i,j}      (u_{i,m+1} = 0)

The substitution oracle expands a base polynomial after replacing x_i by a
truncated series (ordinary: sum_j x_i^(j) t^j/j!; log: x_i (1 + sum_{j>0}
u_{i,j} t^j/j!)) and reads off the coefficients of t^j/j!.  Iterated
derivation must reproduce those coefficients exactly; jet ideals can be
cross-checked against the oracle on demand.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (LogjetError, ModeMismatchError, NotARefinementError,
                     NonInvertibleLeadingTermError)
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


# -- truncated power series oracle ------------------------------------------


class _Series:
    """Polynomial in t modulo t^(m+1), coefficients JetPoly (plain t powers)."""

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
        return _Series(self.ring, out)

    def __add__(self, other):
        return _Series(self.ring,
                       [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def inverse(self):
        """Invert when the t^0 coefficient is a single Laurent term."""
        lead = self.coeffs[0]
        terms = lead.term_map()
        if len(terms) != 1:
            raise NonInvertibleLeadingTermError(
                "t^0 coefficient is not a single term")
        mono, c = next(iter(terms.items()))
        if mono.jets:
            raise NonInvertibleLeadingTermError(
                "t^0 coefficient involves jet variables")
        lead_inv = JetPoly.monomial(self.ring, [-a for a in mono.base],
                                    coeff=Fraction(1) / c)
        # self * lead_inv = 1 + N with N nilpotent; invert by geometric series
        norm = self * _Series.constant(self.ring, lead_inv)
        neg_nil = _Series(self.ring,
                          [JetPoly.zero(self.ring)]
                          + [-x for x in norm.coeffs[1:]])
        total = _Series.constant(self.ring, JetPoly.one(self.ring))
        power = _Series.constant(self.ring, JetPoly.one(self.ring))
        for _ in range(self.ring.m):
            power = power * neg_nil
            total = total + power
        return total * _Series.constant(self.ring, lead_inv)

    def power(self, a):
        if a >= 0:
            result = _Series.constant(self.ring, JetPoly.one(self.ring))
            square = self
            while a:
                if a & 1:
                    result = result * square
                a >>= 1
                if a:
                    square = square * square
            return result
        return self.inverse().power(-a)


def _variable_series(ring, i):
    """Series substituted for x_i, as plain-t coefficients."""
    coeffs = [JetPoly.base_var(ring, i)]
    for j in range(1, ring.m + 1):
        c = Fraction(1, factorial(j))
        if ring.mode == ORDINARY:
            coeffs.append(JetPoly.jet_var(ring, i, j) * c)
        else:
            coeffs.append(JetPoly.base_var(ring, i)
                          * JetPoly.jet_var(ring, i, j) * c)
    return _Series(ring, coeffs)


def expand_by_substitution(f, m, mode):
    """Coefficients c_0..c_m with f(substituted) = sum c_j t^j/j! mod t^(m+1).

    f must be a base polynomial (jet order 0); the result lives in the
    (n, m, mode) ring.  This is the independent oracle for the derivation.
    """
    if f.ring.m != 0:
        raise ModeMismatchError("expansion needs a base polynomial (m = 0)")
    ring = RingDescriptor(f.ring.n, m, mode)
    var_series = {}
    total = _Series(ring, [])
    for mono, c in f.term_map().items():
        term = _Series.constant(ring, JetPoly.constant(ring, c))
        for i, a in enumerate(mono.base, start=1):
            if a == 0:
                continue
            if i not in var_series:
                var_series[i] = _variable_series(ring, i)
            term = term * var_series[i].power(a)
        total = total + term
    return [total.coeffs[j] * factorial(j) for j in range(m + 1)]


# -- jet ideals ---------------------------------------------------------------


@dataclass(frozen=True)
class JetIdeal:
    """Generators d^j f_i of a jet scheme presentation.

    rows[i][j] is d^j applied to the i-th chart equation; the generator set
    cuts out J_m(X) inside the jet space of the ambient chart.
    """

    ring: RingDescriptor
    rows: tuple

    def flat(self):
        return [g for row in self.rows for g in row]


def jet_ideal(chart, m, mode, verify=False):
    """Jet ideal of a chart: all d^j f_i for 0 <= j <= m.

    With verify=True every row is recomputed through the substitution
    oracle and compared exactly.
    """
    if mode == LOG and chart.monoid is None:
        raise ModeMismatchError("log jet ideal needs a chart with a monoid")
    ring = RingDescriptor(chart.ambient_rank, m, mode)
    rows = []
    for f in chart.equations:
        chain = derivative_chain(f.with_ring(ring))
        if verify:
            oracle = expand_by_substitution(f, m, mode)
            for j, (got, want) in enumerate(zip(chain, oracle)):
                if got != want:
                    raise LogjetError(
                        f"derivation disagrees with substitution oracle "
                        f"at order {j}: {got.render()} vs {want.render()}")
        rows.append(tuple(chain))
    return JetIdeal(ring, tuple(rows))


def specialize_log_to_ordinary(g):
    """Substitute u_{i,j} -> x_i^(j) * x_i^-1; lands in the ordinary ring."""
    require_mode(g, LOG)
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


# -- monoid refinements -------------------------------------------------------


@dataclass(frozen=True)
class RefinementCheck:
    ok: bool
    orders_checked: int
    detail: str


def refinement_pullback_check(chart, refined, m):
    """Fibre-square check for a monoid refinement P subset Q, P^gp = Q^gp.

    Rebuilds the chart over Q with the same basis monomials and equations
    and compares the log jet generators term by term; they must agree
    because the refined jet scheme is the base change (u goes to u).
    """
    from .chart import Chart  # local import to avoid a cycle

    if chart.monoid is None:
        raise ModeMismatchError("refinement check needs a monoid chart")
    if refined.ambient_rank != chart.ambient_rank:
        raise NotARefinementError(
            f"ambient ranks differ: {chart.ambient_rank} vs "
            f"{refined.ambient_rank}")
    for g in chart.monoid.generators:
        if not refined.membership(g):
            raise NotARefinementError(
                f"generator {g} of the chart monoid is not in the "
                "refined monoid")
    refined_chart = Chart.build(
        monoid=refined,
        equations=chart.equations,
        basis=chart.basis,
    )
    left = jet_ideal(chart, m, LOG)
    right = jet_ideal(refined_chart, m, LOG)
    for i, (row_l, row_r) in enumerate(zip(left.rows, right.rows)):
        for j, (a, b) in enumerate(zip(row_l, row_r)):
            if a != b:
                return RefinementCheck(
                    False, m,
                    f"generator ({i},{j}) differs: {a.render()} vs "
                    f"{b.render()}")
    return RefinementCheck(True, m, "log jet generators agree term for term")
