"""The jet derivation d in ordinary and log modes, and jet ideals.

Ordinary mode: d maps x_i^(j) to x_i^(j+1), satisfies the Leibniz rule,
and extends to Laurent monomials by d(x_i^-1) = -x_i^-2 x_i^(1).

Log mode: with u_{i,j} standing for x_i^(j)/x_i,

    d(prod x_i^{a_i}) = (prod x_i^{a_i}) * sum_i a_i u_{i,1}
    d(u_{i,j})        = u_{i,j+1} - u_{i,1} u_{i,j}

Both derivations run on {exponent tuple: coefficient} maps, one column per
variable, as moves and grows (derivative_chain):

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

from .errors import ModeMismatchError

ORDINARY = "ordinary"
LOG = "log"


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
                    moved = tuple(moved)
                    s = out.get(moved, 0) + c * e
                    if s:
                        out[moved] = s
                    else:
                        del out[moved]
            for dst, plus, minus in grows:
                e = vec[plus] - sum(vec[k] for k in minus)
                if e:
                    grown = list(vec)
                    grown[dst] += 1
                    grown = tuple(grown)
                    s = out.get(grown, 0) + c * e
                    if s:
                        out[grown] = s
                    else:
                        del out[grown]
        chain.append(out)
    return chain


def jet_ideal(chart, m, mode):
    """Generators of the order-m jet ideal of a chart, in the given mode,
    as (names, chains).

    chains[i] is (f_i, d f_i, ..., d^m f_i) for the i-th chart equation;
    together the chains cut out J_m(X) inside the jet space of the ambient
    chart.  Each polynomial is an {exponent tuple: coefficient} map whose
    columns are names: the chart variables x_1..x_n, then the jets of x_i
    ordered by (i, j), named x_i(j) in ordinary mode and u[i,j] in log
    mode.
    """
    if mode not in (ORDINARY, LOG):
        raise ValueError(f"unknown mode {mode!r}")
    if m < 0:
        raise ValueError("jet order must be nonnegative")
    if mode == LOG and chart.monoid is None:
        raise ModeMismatchError("log jet ideal needs a chart with a monoid")
    xs = chart.variables
    n = len(xs)
    jets = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    names = xs + tuple(f"u[{i},{j}]" if mode == LOG else f"{xs[i - 1]}({j})"
                       for i, j in jets)
    column = {(i, 0): i - 1 for i in range(1, n + 1)}
    column.update({ij: n + k for k, ij in enumerate(jets)})
    first = 1 if mode == LOG else 0
    moves = [(column[i, j], column[i, j + 1])
             for i in range(1, n + 1) for j in range(first, m)]
    grows = [(column[i, 1], column[i, 0],
              [column[i, j] for j in range(1, m + 1)])
             for i in range(1, n + 1)] if mode == LOG and m else []
    pad = (0,) * len(jets)
    return names, tuple(
        tuple(derivative_chain({e + pad: c for e, c in f.items()},
                               m, moves, grows))
        for f in chart.equations)
