"""Jet-scheme dimensions of a hypersurface read off its Newton polyhedron.

Let f in k[x_1..x_n] be nondegenerate with respect to its Newton
polyhedron: for every weight a in N^n, the initial form f_a (the terms of
f of least a-weight phi(a)) has no singular point on the torus.  Split the
order-m jets x(t) of A^n by the orders a_i = ord_t x_i(t), capped at m + 1
(a_i = m + 1 when x_i(t) = 0 mod t^(m+1)).  The jets of orders a have
codimension sum a_i, and f(x(t)) has order >= phi(a), its coefficient of
t^phi(a) being f_a at the leading coefficients.  If phi(a) > m, each of
them lies on X = V(f).  If f_a is a monomial, no leading coefficients
annihilate it, so none does.  Otherwise f(x(t)) = 0 mod t^(m+1) is
m + 1 - phi(a) more conditions, independent by nondegeneracy (a variable
x_j of f_a has a_j <= phi(a), so its coefficients up to t^(a_j + m -
phi(a)) are jet coordinates).  Hence

    dim J_m(X) = n(m+1) - min_a [sum a_i + max(0, m + 1 - phi(a))]

over a in {0..m+1}^n, skipping every a with phi(a) <= m whose f_a is a
monomial.  Restricting to a >= 1, every x_i(0) = 0, gives the jets over
the origin: analyze's open row, when the origin is the only singular
point of X.  This uses no code of logjet: it reads only the exponents of
f.
"""

import itertools
from operator import mul


def newton_jet_dim(exponents, m, over_origin=False):
    """dim J_m(V(f)), or of its jets over the origin, for f nondegenerate
    with the given exponent tuples; "EMPTY" when no weight survives."""
    exponents = list(exponents)
    n = len(exponents[0])
    codims = []
    for a in itertools.product(range(int(over_origin), m + 2), repeat=n):
        weights = [sum(map(mul, a, e)) for e in exponents]
        phi = min(weights)
        if phi <= m and weights.count(phi) == 1:
            continue
        codims.append(sum(a) + max(0, m + 1 - phi))
    return n * (m + 1) - min(codims) if codims else "EMPTY"
