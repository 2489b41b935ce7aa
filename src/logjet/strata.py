"""Row sources: the strata of a chart by torus orbits, the open part and
an ordinary chart's whole variety, and the one jet-presentation builder.

Each face F of the chart monoid yields a locally closed stratum X_l: the
points where exactly the monomials with exponent in F are invertible.  Its
base system inverts the monomial of p_F = (sum of the face generators), an
interior point of F, with one Rabinowitsch variable w:

    equations of X,  chi^g for generators g outside F,  w * chi^{p_F} - 1.

The open stratum (l = 0, F the whole monoid) keeps only the equations and
the localization of the torus.

Everything is written in the chart's basis coordinates; monomials of the
monoid may acquire negative exponents there.  Base systems are
{exponent tuple: coefficient} maps, the format the chart holds its
equations in, so every face shares the chart's equations as they are;
the exponents of the monoid generators are solved for once per chart.

Of the chi^g only the minimal ones are kept.  A stratum's presentation
clears the monomial chi^g, exponent e, to x^{e+} with e+ = max(e, 0), so
a chi^g whose e+ another one's divides lies in the ideal of that one:
dropping it leaves the same ideal, hence the same jet ideal (the jets of
any generating set generate it) and the same reduced Groebner basis, with
fewer S-pairs.  Generators keep their order, so a chart with nothing to
drop (N^n) gets the same presentations as before.

Every row has one source, a StratumPresentation: a stratum; whole_chart,
an ordinary chart's whole variety (no face, no w); or open_part, the open
stratum plus the Jacobian minors as constraints.  stratum_jet_presentation
builds the jets of each, its base system at m = 0, in the columns of
jets.JetLayout, with w as the inversion variable of a stratum.  It jets
every polynomial of the base system with the ordinary derivation, the
localization included, so w and its jets are fixed by the jetted
localization, the same for strata and for the open row; constraints are
added without jetting.  It is also the one place that clears Laurent
polynomials, on integer exponent tuples, with no Fraction.  A source is a
value: open_part is strata[0]._replace(constraints=minors).

check_assumption(strata, dims) tests Assumption 1 on the base (m = 0)
dimensions of stratify(chart), given as a list in stratum order.
"""

import itertools
import math
from operator import le
from typing import NamedTuple

from .dimension import EMPTY, IdealPresentation, check_variables
from .errors import LogjetError, ModeMismatchError
from .jets import JetLayout, derivative_chain, poly_add, poly_mul, poly_partial


class StratumPresentation(NamedTuple):
    """One row source: a stratum piece (one face of the monoid), or with
    face None a whole variety in A^n (x_1..x_n, no w).

    For a face, variables are the chart coordinates x_1..x_n plus the
    inverse variable w, stored as the last base variable n+1, the
    inversion variable of jets.JetLayout: its jet presentations list w(m),
    ..., w(1), w before the coordinates.  equations are {exponent tuple
    over x_1..x_n, w: coefficient} maps: the chart equations, the minimal
    off-face monomials and the localization.  They may be Laurent;
    stratum_jet_presentation clears them, which the w-equation makes
    legitimate.  constraints are polynomials over x_1..x_n added unjetted
    (the open part's Jacobian minors).  Sources compare by value; they do
    not hash, since their equations are dicts.
    """

    face: object            # monoid.Face, or None: a whole variety in A^n
    index: int
    variables: tuple
    equations: tuple
    constraints: tuple = ()


def _minimal(off_face, cleared):
    """The generators of off_face (indices, in order) whose cleared
    exponent max(e, 0) is divisible by no other one's; of equal cleared
    exponents the first is kept."""
    first = {}
    for gi in off_face:
        first.setdefault(cleared[gi], gi)
    return [gi for c, gi in first.items()
            if not any(d != c and all(map(le, d, c)) for d in first)]


def stratify(chart):
    """One StratumPresentation per face of the chart monoid.

    Each generator's exponents are solved for once; the basis-coordinate
    map is linear, so those of p_F are the sum of its face generators'.
    Every face shares the chart equations, lifted once by the column of w.
    Of the off-face monomials only the minimal ones are kept (see the
    module docstring).
    """
    if chart.monoid is None:
        raise ModeMismatchError(
            "stratification needs a monoid chart; an ordinary chart is a "
            "single stratum (the whole variety)")
    n = chart.ambient_rank
    exponents = [chart.exponents_of(g) for g in chart.monoid.generators]
    cleared = [tuple(max(a, 0) for a in e) for e in exponents]
    lifted = [{e + (0,): c for e, c in f.items()} for f in chart.equations]
    names = chart.variables + ("w",)
    strata = []
    for face in chart.monoid.faces():
        on = face.generator_indices
        p_f = tuple(sum(exponents[gi][k] for gi in on) for k in range(n))
        off = [gi for gi in range(len(exponents)) if gi not in on]
        eqs = lifted + [{exponents[gi] + (0,): 1}
                        for gi in _minimal(off, cleared)]
        eqs.append({p_f + (1,): 1, (0,) * (n + 1): -1})
        strata.append(StratumPresentation(face, face.stratum_index, names,
                                          tuple(eqs)))
    return tuple(strata)


def _integer_terms(f, layout, clear):
    """The base polynomial f, an {exponent tuple: coefficient} map over the
    leading base variables of layout, in its columns, as {exponent tuple:
    int}, a positive integer multiple of f; with clear, also times the
    smallest monomial that makes its exponents nonnegative."""
    denom = math.lcm(*(c.denominator for c in f.values()))
    low = ([min(0, *column) for column in zip(*f)] if clear
           else [0] * len(layout.base))
    out = {}
    for exps, c in f.items():
        vec = [0] * len(layout.order)
        for col, e, lo in zip(layout.base, exps, low):
            vec[col] = e - lo
        out[tuple(vec)] = c.numerator * (denom // c.denominator)
    return out


def whole_chart(chart):
    """The chart's whole variety in A^n, its basis coordinates, as a
    source: an ordinary chart, or a log chart whose monoid P is N*basis
    (no generator has a negative basis exponent).  Any other log chart is
    no subscheme of A^n and raises ModeMismatchError."""
    if chart.monoid is not None:
        for g in chart.monoid.generators:
            e = chart.exponents_of(g)
            if min(e) < 0:
                raise ModeMismatchError(
                    f"monoid generator {g} has basis exponents {e}, so the "
                    "chart is not a subscheme of affine space in its basis "
                    "coordinates")
    return StratumPresentation(None, 0, chart.variables, chart.equations)


def _jacobian_minors(equations, n):
    """All c x c minors of (df_i/dx_k) for c exponent maps over x_1..x_n,
    as exponent maps, columns in combinations order; the 0 x 0 minor is 1.

    Each minor is expanded along its rows, and the minor of the last rows
    on a column set is shared by every minor containing it: bottom-up, the
    minors of each row count are built once per column set from those of
    one row fewer, at most 2^n in all instead of c! products per minor.
    """
    partials = [[poly_partial(f, k) for k in range(n)] for f in equations]
    below = {(): {(0,) * n: 1}}
    for size, row in enumerate(reversed(partials), 1):
        minors = {}
        for cols in itertools.combinations(range(n), size):
            total = {}
            for t, k in enumerate(cols):
                if row[k]:
                    minor = below[cols[:t] + cols[t + 1:]]
                    total = poly_add(total, poly_mul(row[k], minor),
                                     (-1) ** t)
            minors[cols] = total
        below = minors
    return list(below.values())


def open_part(chart, strata=()):
    """The open row's source: the open stratum strata[0] with the Jacobian
    minors of the chart equations as constraints, so its jets lie over the
    singular locus.  strata is stratify(chart), whose faces() put the
    whole monoid first, or (whole_chart(chart),); built when not given.  A
    chart with no equation has no open-part check, and raises here."""
    if not chart.equations:
        raise LogjetError("open-part check needs at least one equation")
    if not strata:
        strata = (stratify(chart) if chart.monoid is not None
                  else (whole_chart(chart),))
    return strata[0]._replace(constraints=tuple(
        _jacobian_minors(chart.equations, chart.ambient_rank)))


def stratum_jet_presentation(stratum, m, budgets=None):
    """J_m of a source as dimension-engine input, m = 0 its base system.

    Every polynomial of stratum.equations is jetted with the ordinary
    derivation up to order m, and every one of stratum.constraints, over
    x_1..x_n, is added as it is, in the columns of jets.JetLayout; a
    stratum's w is its inversion variable.  A stratum's polynomials may be
    Laurent: each is cleared once, at every m (m = 0 included), by the
    smallest monomial that makes its exponents nonnegative; clearing does
    not commute with the derivation, so it happens before jetting.  This
    is the only place where Laurent polynomials are cleared.  A stratum's
    jetted localization fixes the jets of w, so the dimension is that of
    the jets of the locally closed stratum X_l.

    Given budgets, J_m with more variables than their Groebner bound, one
    per jet column, is refused as groebner_basis would refuse it, before
    any jet is derived.
    """
    where = ("over singular locus of the open stratum" if stratum.constraints
             else "of chart equations" if stratum.face is None
             else f"of stratum l={stratum.index} "
                  f"{stratum.face.generator_indices}")
    if budgets is not None:
        check_variables(len(stratum.variables) * (m + 1), f"J_{m} {where}",
                        budgets)
    inverted = stratum.face is not None
    layout = JetLayout(len(stratum.variables), m, inverted)
    moves = layout.moves()
    raw = []
    for f in stratum.equations:
        raw.extend(derivative_chain(_integer_terms(f, layout, inverted),
                                    m, moves))
    raw.extend(_integer_terms(g, layout, inverted)
               for g in stratum.constraints)
    return IdealPresentation.from_terms(
        layout.names(stratum.variables), raw, provenance=f"J_{m} {where}",
        jet_order=m)


def base_presentation(stratum):
    """The stratum itself (jet order 0) as dimension-engine input."""
    return stratum_jet_presentation(stratum, 0)


class StratumStatus(NamedTuple):
    """Assumption-1 bookkeeping for one stratum index l."""

    index: int
    pieces: tuple           # (face generator indices, dim or EMPTY)
    dim: object             # max piece dim, or EMPTY
    codim: object
    status: str             # PASS | EMPTY | FAIL


class AssumptionReport(NamedTuple):
    rows: tuple
    dim_x: object
    x0_nonempty: bool
    passed: bool

    @property
    def failing(self):
        return tuple(r for r in self.rows if r.status == "FAIL")


def check_assumption(strata, dims):
    """Assumption 1: every nonempty stratum X_l has codimension l in X.

    strata is stratify(chart), and dims holds the computed dimension (int
    or EMPTY) of each stratum, in the same order.  Strata sharing an
    index l are aggregated: dim X_l is the max over its pieces, and dim X
    the max over all strata.
    """
    if len(dims) != len(strata):
        raise ValueError(
            f"{len(dims)} dimension(s) given for {len(strata)} strata")
    by_l = {}
    for s, value in zip(strata, dims):
        by_l.setdefault(s.index, []).append((s.face.generator_indices, value))
    dim_x = max((d for d in dims if d != EMPTY), default=EMPTY)
    rows = []
    for l in sorted(by_l):
        pieces = tuple(sorted(by_l[l]))
        dim_l = max((d for _f, d in pieces if d != EMPTY), default=EMPTY)
        if dim_l == EMPTY:
            rows.append(StratumStatus(l, pieces, EMPTY, EMPTY, "EMPTY"))
        else:
            codim = dim_x - dim_l
            rows.append(StratumStatus(l, pieces, dim_l, codim,
                                      "PASS" if codim == l else "FAIL"))
    x0_nonempty = any(r.index == 0 and r.status != "EMPTY" for r in rows)
    passed = all(r.status != "FAIL" for r in rows)
    return AssumptionReport(tuple(rows), dim_x, x0_nonempty, passed)
