"""Stratification of a chart by torus orbits, and the one jet-presentation
builder.

Each face F of the chart monoid yields a locally closed stratum X_l: the
points where exactly the monomials with exponent in F are invertible.  Its
base system inverts the monomial of p_F = (sum of the face generators), an
interior point of F, with one Rabinowitsch variable w:

    equations of X,  chi^g for generators g outside F,  w * chi^{p_F} - 1.

The open stratum (l = 0, F the whole monoid) keeps only the equations and
the localization of the torus.

Everything is written in the chart's basis coordinates; monomials of the
monoid may acquire negative exponents there, which are cleared against the
inverted locus before the system is jetted.

Every jet presentation comes from one builder, jet_presentation.  It jets
every polynomial of a base system with the ordinary derivation, the
localization included, so w and its jets are fixed by the jetted
localization, the same for strata and for the open row.  Base-only
constraints are added without jetting: the open row is the l = 0 stratum's
presentation plus the Jacobian minors (analyzer.open_part_jet_presentation).
"""

from dataclasses import dataclass

from .dimension import EMPTY, IdealPresentation
from .errors import ModeMismatchError
from .jets import derivative_chain
from .monoid import Face
from .poly import (ORDINARY, JetMonomial, JetPoly, RingDescriptor,
                   lift_base_vars)


@dataclass(frozen=True)
class StratumPresentation:
    """Closed presentation of one stratum piece (one face of the monoid).

    Variables are the chart coordinates x_1..x_n plus the inverse variable
    w (stored as base variable n+1).  Equations may be Laurent; they are
    cleared by jet_presentation, which the w-equation makes legitimate.
    """

    face: object
    index: int
    variables: tuple
    ring: RingDescriptor
    equations: tuple


def _chi(chart, ring, point):
    """The monomial chi^point in basis coordinates, lifted to the ring."""
    exps = chart.exponents_of(point)
    return JetPoly.monomial(ring, tuple(exps) + (0,) * (ring.n - len(exps)))


def _stratum(chart, face):
    n = chart.ambient_rank
    ring = RingDescriptor(n + 1, 0, ORDINARY)
    eqs = [lift_base_vars(f, ring) for f in chart.equations]
    seen = set()
    for gi, g in enumerate(chart.monoid.generators):
        if gi in face.generator_indices:
            continue
        mono = _chi(chart, ring, g)
        key = mono.render()
        if key not in seen:
            seen.add(key)
            eqs.append(mono)
    p_f = tuple(
        sum(chart.monoid.generators[gi][k] for gi in face.generator_indices)
        for k in range(n))
    w = JetPoly.base_var(ring, n + 1)
    eqs.append(w * _chi(chart, ring, p_f) - 1)
    names = tuple(f"x{i}" for i in range(1, n + 1)) + ("w",)
    return StratumPresentation(face, face.stratum_index, names, ring,
                               tuple(eqs))


def stratify(chart):
    """One StratumPresentation per face of the chart monoid."""
    if chart.monoid is None:
        raise ModeMismatchError(
            "stratification needs a monoid chart; an ordinary chart is a "
            "single stratum (the whole variety)")
    return tuple(_stratum(chart, face) for face in chart.monoid.faces())


def open_stratum(chart):
    """The l = 0 stratum: the chart inside the torus.

    Its face is the whole monoid, which lies on no facet and has stratum
    index 0 because the chart basis makes the monoid full rank.
    """
    whole = Face(tuple(range(len(chart.monoid.generators))), (), 0)
    return _stratum(chart, whole)


def _cleared(f, ring):
    """f, lifted to ring like lift_base_vars, times the smallest monomial
    that makes its base exponents nonnegative."""
    terms = f.term_map()
    low = [min(0, *column) for column in zip(*[mono.base for mono in terms])]
    pad = [0] * (ring.n - f.ring.n)
    return JetPoly(ring, {JetMonomial([a - b for a, b in zip(mono.base, low)]
                                      + pad, mono.jets): c
                          for mono, c in terms.items()})


def _jet_names(base_names, ring):
    """Variable names matching JetMonomial.exponent_vector's column order."""
    return tuple(base_names) + tuple(f"{base_names[i - 1]}({j})"
                                     for i, j in ring.jet_positions())


def jet_presentation(variables, system, m, provenance, localized=False,
                     constraints=()):
    """J_m of a base system as dimension-engine input.

    Every polynomial of system, written in the given base variables, is
    jetted with the ordinary derivation up to order m; every polynomial of
    constraints, in the same or a leading subset of them, is added as it
    is.  The presentation's variables are the base variables followed by
    their jets.  A localized system may be Laurent: every system polynomial
    (at every m, m = 0 included) and every constraint is cleared here, once,
    by the smallest monomial that makes its exponents nonnegative; clearing
    does not commute with the derivation, so it happens before jetting.
    This is the only place where Laurent polynomials are cleared.
    """
    ring = RingDescriptor(len(variables), m, ORDINARY)
    lift = _cleared if localized else lift_base_vars
    polys = []
    for f in system:
        polys.extend(derivative_chain(lift(f, ring)))
    polys.extend(lift(g, ring) for g in constraints)
    terms = [{mono.exponent_vector(ring): c
              for mono, c in g.term_map().items()} for g in polys]
    return IdealPresentation.from_terms(
        _jet_names(variables, ring), terms, provenance=provenance,
        jet_order=m)


def base_presentation(stratum, provenance=None):
    """The stratum itself (jet order 0) as dimension-engine input."""
    return jet_presentation(
        stratum.variables, stratum.equations, 0,
        provenance or f"stratum l={stratum.index} "
                      f"{stratum.face.generator_indices}",
        localized=True)


def stratum_jet_presentation(stratum, m):
    """Ordinary jet ideal of the stratum presentation, for dim J_m(X_l).

    The jetted localization fixes the jets of w, so the dimension is that
    of the jets of the locally closed stratum X_l.
    """
    return jet_presentation(
        stratum.variables, stratum.equations, m,
        f"J_{m} of stratum l={stratum.index} "
        f"{stratum.face.generator_indices}",
        localized=True)


@dataclass(frozen=True)
class StratumStatus:
    """Assumption-1 bookkeeping for one stratum index l."""

    index: int
    pieces: tuple           # (face generator indices, dim or EMPTY)
    dim: object             # max piece dim, or EMPTY
    codim: object
    status: str             # PASS | EMPTY | FAIL


@dataclass(frozen=True)
class AssumptionReport:
    rows: tuple
    dim_x: object
    x0_nonempty: bool
    passed: bool

    @property
    def failing(self):
        return tuple(r for r in self.rows if r.status == "FAIL")


def check_assumption(chart, dims):
    """Assumption 1: every nonempty stratum X_l has codimension l in X.

    dims maps each face (or stratum presentation) to its computed
    dimension (int or EMPTY) and must cover every face of the chart
    monoid.  Strata sharing an index l are aggregated: dim X_l is the max
    over its pieces.
    """
    covered = {key.face if isinstance(key, StratumPresentation) else key
               for key in dims}
    missing = [f for f in chart.monoid.faces() if f not in covered]
    if missing:
        raise ValueError(
            f"dimension map misses {len(missing)} face(s) of the monoid")
    by_l = {}
    for key, value in dims.items():
        face = key.face if isinstance(key, StratumPresentation) else key
        by_l.setdefault(face.stratum_index, []).append(
            (face.generator_indices, value))
    dim_x = EMPTY
    for pieces in by_l.values():
        for _f, d in pieces:
            if d != EMPTY and (dim_x == EMPTY or d > dim_x):
                dim_x = d
    rows = []
    for l in sorted(by_l):
        pieces = tuple(sorted(by_l[l]))
        dims_l = [d for _f, d in pieces if d != EMPTY]
        if not dims_l:
            rows.append(StratumStatus(l, pieces, EMPTY, EMPTY, "EMPTY"))
            continue
        dim_l = max(dims_l)
        codim = dim_x - dim_l if dim_x != EMPTY else EMPTY
        status = "PASS" if codim == l else "FAIL"
        rows.append(StratumStatus(l, pieces, dim_l, codim, status))
    x0 = next((r for r in rows if r.index == 0), None)
    x0_nonempty = x0 is not None and x0.status != "EMPTY"
    passed = all(r.status != "FAIL" for r in rows)
    return AssumptionReport(tuple(rows), dim_x, x0_nonempty, passed)
