"""The exponent-map format, its arithmetic, the jet layout, and the jet
derivation d in ordinary and log modes.

A polynomial is an {exponent tuple: coefficient} map with no zero
coefficient, one column per variable, exponents possibly negative
(Laurent), coefficients int or Fraction: the one format of the engine.
Its operations live here: the sum poly_add, the product poly_mul (refused
past MAX_PRODUCT_WORK products of 64-bit coefficient words, so every
product of the engine is bounded by its work, whatever the size of its
coefficients), the power poly_pow, the partial
derivative poly_partial, and degrevlex, the sort key of an exponent tuple.

J_m over n base variables has one column layout, JetLayout: the base
variables, then their jets x_k(j) ordered by (k, j).  With an inversion
variable w (the last base variable) its jets come first instead, highest
order first, w(m), ..., w(1), w.  A jetted localization w * chi^p - 1
determines each w(j) by the coordinates, so with w(m) leading degrevlex,
Buchberger eliminates w before it works on the coordinates: fewer S-pairs
for the same dimension, which does not depend on the order of the
variables.

Ordinary mode: d maps x_i^(j) to x_i^(j+1), satisfies the Leibniz rule,
and extends to Laurent monomials by d(x_i^-1) = -x_i^-2 x_i^(1).

Log mode: with u_{i,j} standing for x_i^(j)/x_i,

    d(prod x_i^{a_i}) = (prod x_i^{a_i}) * sum_i a_i u_{i,1}
    d(u_{i,j})        = u_{i,j+1} - u_{i,1} u_{i,j}

Both derivations run on exponent maps in the layout's columns, as moves
and grows (derivative_chain):

  - a move (src, dst) takes one unit of column src to column dst, with the
    exponent of src as the factor.  The ordinary derivation is the moves
    x_i^(j) -> x_i^(j+1), x_i^(0) being x_i;
  - the log derivation is the moves u_{i,j} -> u_{i,j+1} plus, for each i,
    one grow that adds a unit of u_{i,1} with the factor a_i - sum_j
    b_{i,j}, where b_{i,j} is the exponent of u_{i,j}: the a_i u_{i,1} of
    the monomial part and the -u_{i,1} u_{i,j} of every jet factor.

A chain starts from a base polynomial, so d^k f (k < m) has no jet of
order above k: x_i^(m) and u_{i,m} are never derived, and truncation at
order m needs no rule.

The order-m jet ideal of a chart is generated by d^j f_i, 0 <= j <= m, for
its equations f_i.  The check lives in the tests: tests/jet_oracle.py
expands f after substituting truncated series for the x_i (ordinary:
sum_j x_i^(j) t^j/j!; log: x_i (1 + sum_{j>0} u_{i,j} t^j/j!)), which pins
every coefficient of both modes.
"""

from fractions import Fraction
from operator import add

from .errors import ModeMismatchError, ResourceLimitError

ORDINARY = "ordinary"
LOG = "log"

# Coefficient work one poly_mul may take, in products of 64-bit words: a
# coefficient of a words (numerator and denominator together) times one of
# b words counts a*b, so the bound covers the size of the coefficients as
# well as their number.  The largest product of any corpus or test chart,
# (x1 + x2 + x3 + 1)^20, takes 33915, all its coefficients of one word.
# (3*x1)^4000000 would square a coefficient of about 52000 words in one
# product of 1 by 1 terms.
MAX_PRODUCT_WORK = 50_000


# -- arithmetic on {exponent tuple: coefficient} maps -------------------------


def _put(out, e, c):
    """out[e] += c, keeping no zero coefficient."""
    s = out.get(e, 0) + c
    if s:
        out[e] = s
    else:
        out.pop(e, None)


def poly_add(f, g, sign=1):
    """f + sign*g."""
    out = dict(f)
    for e, c in g.items():
        _put(out, e, sign * c)
    return out


def _words(f):
    """The 64-bit words of f's coefficients, at least one each."""
    return sum((c.numerator.bit_length() + c.denominator.bit_length() - 1)
               // 64 + 1 for c in f.values())


def poly_mul(f, g):
    """f*g, refused with ResourceLimitError when its coefficient work,
    _words(f) * _words(g) word products (len(f) * len(g) when every
    coefficient fits a word), is over MAX_PRODUCT_WORK."""
    work = _words(f) * _words(g)
    if work > MAX_PRODUCT_WORK:
        raise ResourceLimitError(
            f"a product of {len(f)} by {len(g)} terms takes {work} "
            f"coefficient word products, over the limit of "
            f"{MAX_PRODUCT_WORK}")
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            _put(out, tuple(map(add, a, b)), ca * cb)
    return out


def poly_pow(f, k, n):
    """f^k for k >= 0, f a map in n variables; f^0 is Fraction(1)."""
    result = {(0,) * n: Fraction(1)}
    while k:
        if k & 1:
            result = poly_mul(result, f)
        k >>= 1
        if k:
            f = poly_mul(f, f)
    return result


def poly_partial(f, k):
    """df/dx_k, Laurent exponents included."""
    return {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k]
            for e, c in f.items() if e[k]}


def degrevlex(mono):
    """Sort key of an exponent tuple: larger key = larger monomial in
    degrevlex."""
    return sum(mono), tuple(-e for e in reversed(mono))


# -- the jet columns ----------------------------------------------------------


class JetLayout:
    """The columns of J_m over n base variables, base variable n-1 the
    inversion variable when inverted (see the module docstring): order
    lists the (base variable k, jet order j) of each column, column maps
    such a pair to its column, and base[k] is the column of x_k itself."""

    def __init__(self, n, m, inverted=False):
        if m < 0:
            raise ValueError("jet order must be nonnegative")
        coords = n - 1 if inverted else n
        order = [(n - 1, j) for j in range(m, -1, -1)] if inverted else []
        order += [(k, 0) for k in range(coords)]
        order += [(k, j) for k in range(coords) for j in range(1, m + 1)]
        self.m = m
        self.order = tuple(order)
        self.column = {kj: c for c, kj in enumerate(order)}
        self.base = tuple(self.column[k, 0] for k in range(n))

    def names(self, base_names, jet="{x}({j})"):
        """The name of each column: the base name at j = 0, else jet
        formatted with the base name x, its 1-based index k and j."""
        return tuple(base_names[k] if j == 0
                     else jet.format(x=base_names[k], k=k + 1, j=j)
                     for k, j in self.order)

    def moves(self, first=0):
        """The moves (column of x_k(j), column of x_k(j+1)) for first <= j
        < m: the ordinary derivation at first = 0, the u_{k,j} moves of
        the log one at first = 1."""
        return [(self.column[k, j], self.column[k, j + 1])
                for k in range(len(self.base)) for j in range(first, self.m)]


def derivative_chain(terms, m, moves, grows=()):
    """[g, dg, ..., d^m g] for g = terms, a {exponent tuple: coefficient}
    map.  Each (src, dst) of moves takes one unit of column src to dst,
    with the exponent of src as the factor; each (dst, plus, minus) of
    grows adds one unit of column dst, with the exponent of plus minus
    those of the minus columns as the factor."""
    chain = [terms]
    for _ in range(m):
        out = {}
        for vec, c in chain[-1].items():
            for src, dst in moves:
                e = vec[src]
                if e:
                    moved = list(vec)
                    moved[src] -= 1
                    moved[dst] += 1
                    _put(out, tuple(moved), c * e)
            for dst, plus, minus in grows:
                e = vec[plus] - sum(vec[k] for k in minus)
                if e:
                    grown = list(vec)
                    grown[dst] += 1
                    _put(out, tuple(grown), c * e)
        chain.append(out)
    return chain


def jet_ideal(chart, m, mode):
    """Generators of the order-m jet ideal of a chart, in the given mode,
    as (names, chains).

    chains[i] is (f_i, d f_i, ..., d^m f_i) for the i-th chart equation;
    together the chains cut out J_m(X) inside the jet space of the ambient
    chart.  Each polynomial is an {exponent tuple: coefficient} map in the
    columns of JetLayout(n, m), named by names: the chart variables
    x_1..x_n, then the jets of x_i ordered by (i, j), named x_i(j) in
    ordinary mode and u[i,j] in log mode.
    """
    if mode not in (ORDINARY, LOG):
        raise ValueError(f"unknown mode {mode!r}")
    n = chart.ambient_rank
    layout = JetLayout(n, m)
    if mode == LOG and chart.monoid is None:
        raise ModeMismatchError("log jet ideal needs a chart with a monoid")
    column = layout.column
    if mode == LOG:
        names = layout.names(chart.variables, "u[{k},{j}]")
        moves = layout.moves(1)
        grows = [(column[k, 1], column[k, 0],
                  [column[k, j] for j in range(1, m + 1)])
                 for k in range(n)] if m else []
    else:
        names, moves, grows = layout.names(chart.variables), layout.moves(), ()
    pad = (0,) * (len(names) - n)
    return names, tuple(
        tuple(derivative_chain({e + pad: c for e, c in f.items()},
                               m, moves, grows))
        for f in chart.equations)
