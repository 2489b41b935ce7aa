"""Jet-theoretic singularity analysis of a chart.

For a complete intersection chart of codimension c with d = dim X, the
log jet scheme is irreducible at order m exactly when every boundary
stratum satisfies the strict inequality

    dim J_m(X_l) + m*l < d*(m+1)        (l > 0)

and the jets over the singular locus of the open stratum stay below
d*(m+1).  A single violated inequality certifies reducibility, hence
NOT-canonical; finitely many orders can only gather evidence in the other
direction, so the positive verdict is NO_OBSTRUCTION_UP_TO_M.  Assumption
failure (a stratum of too-small codimension) with a nonempty open stratum
forces reducibility outright.

Per-stratum log canonical threshold estimates use

    lct(Y, X_l) = d + c - dim J_m(X_l) / (m+1)

reported for every computed m (the paper guarantees equality for m+1
large and divisible enough); ordinary charts use the ambient convention
n - dim J_m(X) / (m+1).
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .dimension import EMPTY, Budgets, dimension_of, fp_dimension_estimate
from .errors import CompleteIntersectionError, LogjetError, ResourceLimitError
from .jets import derivative_chain  # noqa: F401  (patched by bench/tracing.py)
from .jets import jet_ideal
from .poly import LOG, ORDINARY, JetMonomial, JetPoly, RingDescriptor
from .strata import (base_presentation, check_assumption, jet_presentation,
                     open_stratum, stratify, stratum_jet_presentation)


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings of one analysis.

    Every row comes from the exact Groebner path under budgets; F_p counts
    (over dimension.DEFAULT_PRIMES) only recheck a REDUCIBLE witness.
    verify_jets cross-checks the log jet generators against substitution.
    """

    max_order: int = 2
    budgets: Budgets = field(default_factory=Budgets)
    verify_jets: bool = False

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max order must be at least 1")


@dataclass(frozen=True)
class InequalityRow:
    """One (stratum, order) irreducibility check.

    kind is 'stratum' for dim J_m(X_l) + m*l < d(m+1) with l > 0, and
    'open' for the jets-over-singular-locus bound of the dense stratum.
    dim_jets is an int, EMPTY, or None when the computation hit a budget.
    """

    l: int
    m: int
    kind: str
    dim_jets: object
    added: int              # m*l for stratum rows, 0 for open rows
    bound: int              # d*(m+1)
    status: str             # OK | VIOLATED | EMPTY | UNKNOWN
    note: str = ""

    @property
    def total(self):
        if self.dim_jets in (EMPTY, None):
            return None
        return self.dim_jets + self.added


@dataclass(frozen=True)
class LctRow:
    l: object               # stratum index, or "X" in ordinary convention
    m: int
    dim_jets: object
    value: object           # Fraction, or None for +infinity
    convention: str         # "stratum: d+c-dimJ/(m+1)" | "ambient: n-dimJ/(m+1)"
    divisible_by: tuple     # divisors of m+1 among 2..6
    best: bool = False


@dataclass(frozen=True)
class WitnessConfirmation:
    attempted: bool
    confirmed: object       # True | False | None (unavailable)
    counts: object = None
    note: str = ""


@dataclass(frozen=True)
class AnalysisReport:
    chart_summary: dict
    dim_x: object
    codim: int
    assumption: object      # AssumptionReport or None for ordinary charts
    rows: tuple
    lct_rows: tuple
    verdict: str            # NO_OBSTRUCTION_UP_TO_M | REDUCIBLE |
                            # ASSUMPTION_FAIL | INCONCLUSIVE
    witness: object = None  # (l, m) for REDUCIBLE
    witness_confirmation: object = None
    not_canonical: bool = False
    conclusion: str = ""
    max_order: int = 0
    notes: tuple = ()

    @property
    def exit_code(self):
        return {"NO_OBSTRUCTION_UP_TO_M": 0, "REDUCIBLE": 10,
                "ASSUMPTION_FAIL": 20, "INCONCLUSIVE": 30}[self.verdict]


# -- presentations used by the analyzer ---------------------------------------


def _coordinates(chart):
    return tuple(f"x{i}" for i in range(1, chart.ambient_rank + 1))


def ordinary_jet_presentation(chart, m):
    """J_m of the chart equations in plain affine space."""
    return jet_presentation(_coordinates(chart), chart.equations, m,
                            f"J_{m} of chart equations")


def _jacobian_minors(chart):
    """All c x c minors of (df_i/dx_k), as base polynomials."""
    c = chart.codim
    n = chart.ambient_rank
    ring = RingDescriptor(n, 0, ORDINARY)
    partials = []
    for f in chart.equations:
        row = []
        for k in range(1, n + 1):
            terms = {}
            for mono, coeff in f.term_map().items():
                a = mono.base[k - 1]
                if a == 0:
                    continue
                base = list(mono.base)
                base[k - 1] = a - 1
                key = JetMonomial(base)
                terms[key] = terms.get(key, Fraction(0)) + coeff * a
            row.append(JetPoly(ring, terms))
        partials.append(row)
    minors = []
    for cols in itertools.combinations(range(n), c):
        minors.append(_det_polys(
            [[partials[i][k] for k in cols] for i in range(c)], ring))
    return minors


def _det_polys(matrix, ring):
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = JetPoly.zero(ring)
    for k in range(size):
        sub = [row[:k] + row[k + 1:] for row in matrix[1:]]
        term = matrix[0][k] * _det_polys(sub, ring)
        total = total + term if k % 2 == 0 else total - term
    return total


def open_part_jet_presentation(chart, m):
    """Jets of X constrained over the singular locus of the open stratum.

    The jet presentation of the open stratum (the chart itself for an
    ordinary chart, the l = 0 stratum for a monoid chart) plus the Jacobian
    minors as base-only constraints.  The dimension is compared against
    d*(m+1) per the local complete intersection theorem.
    """
    if not chart.equations:
        raise LogjetError("open-part check needs at least one equation")
    provenance = f"J_{m} over singular locus of the open stratum"
    minors = _jacobian_minors(chart)
    if chart.monoid is None:
        return jet_presentation(_coordinates(chart), chart.equations, m,
                                provenance, constraints=minors)
    stratum = open_stratum(chart)
    return jet_presentation(stratum.variables, stratum.equations, m,
                            provenance, localized=True, constraints=minors)


# -- the analysis --------------------------------------------------------------


def estimate_lct(d, c, dim_jets, m):
    """Order-m lct estimate d + c - dim J_m / (m+1); None means +infinity."""
    if dim_jets == EMPTY:
        return None
    return Fraction(d + c) - Fraction(dim_jets, m + 1)


def _divisors_of(k):
    return tuple(t for t in range(2, 7) if k % t == 0)


def _dim(pres, cfg):
    return dimension_of(pres, budgets=cfg.budgets)


def irreducibility_rows(chart, m, cfg, strata, d):
    """Inequality rows for one jet order: one per stratum (none on an
    ordinary chart, whose strata are ()), then the open row; see the module
    docstring."""
    rows = []
    bound = d * (m + 1)
    for s in strata:
        if s.index == 0:
            continue
        try:
            res = _dim(stratum_jet_presentation(s, m), cfg)
            dim_jets = res.dimension
        except ResourceLimitError as exc:
            rows.append(InequalityRow(s.index, m, "stratum", None, m * s.index,
                                      bound, "UNKNOWN", str(exc)))
            continue
        if dim_jets == EMPTY:
            status = "EMPTY"
        elif dim_jets + m * s.index < bound:
            status = "OK"
        else:
            status = "VIOLATED"
        rows.append(InequalityRow(
            s.index, m, "stratum", dim_jets, m * s.index, bound, status,
            f"face {s.face.generator_indices}"))
    rows.append(_open_row(open_part_jet_presentation(chart, m), m, d, cfg))
    return tuple(rows)


def _open_row(pres, m, d, cfg):
    bound = d * (m + 1)
    try:
        res = _dim(pres, cfg)
        dim_jets = res.dimension
    except ResourceLimitError as exc:
        return InequalityRow(0, m, "open", None, 0, bound, "UNKNOWN",
                             str(exc))
    if dim_jets == EMPTY:
        status = "EMPTY"
    elif dim_jets < bound:
        status = "OK"
    else:
        status = "VIOLATED"
    return InequalityRow(0, m, "open", dim_jets, 0, bound, status,
                         "jets over the singular locus")


def _confirm_witness(chart, row, cfg, strata):
    """Recompute a violated row's dimension over F_p and recheck it."""
    try:
        if row.kind == "open":
            pres = open_part_jet_presentation(chart, row.m)
        else:
            stratum = next(s for s in strata
                           if s.index == row.l and
                           f"face {s.face.generator_indices}" == row.note)
            pres = stratum_jet_presentation(stratum, row.m)
        fp = fp_dimension_estimate(pres, budgets=cfg.budgets)
    except LogjetError as exc:
        return WitnessConfirmation(True, None, note=f"fp check unavailable: {exc}")
    if fp.dimension == EMPTY:
        return WitnessConfirmation(True, False, fp.certificate,
                                   "fp count found no points")
    confirmed = fp.dimension + row.added >= row.bound
    return WitnessConfirmation(True, bool(confirmed), fp.certificate,
                               "unreliable majority" if fp.unreliable else "")


def analyze(chart, cfg=None):
    """Full analysis: gates, stratification, inequality rows, verdict."""
    cfg = cfg or AnalysisConfig()
    notes = []
    is_log = chart.monoid is not None
    n, c = chart.ambient_rank, chart.codim

    if is_log and cfg.verify_jets:
        jet_ideal(chart, min(cfg.max_order, 2), LOG, verify=True)
        notes.append("jet generators cross-checked against substitution")

    if is_log:
        strata = stratify(chart)
        dims = {}
        for s in strata:
            dims[s] = _dim(base_presentation(s), cfg).dimension
        assumption = check_assumption(chart, dims)
        dim_x = assumption.dim_x
    else:
        strata = ()
        assumption = None
        if chart.equations:
            dim_x = _dim(ordinary_jet_presentation(chart, 0), cfg).dimension
        else:
            dim_x = n

    summary = {
        "ambient_rank": n,
        "codim": c,
        "mode": "log" if is_log else "ordinary",
        "monoid_generators": (list(map(list, chart.monoid.generators))
                              if is_log else None),
        "basis": list(map(list, chart.basis)) if is_log else None,
        "equations": [f.render() for f in chart.equations],
        "max_order": cfg.max_order,
        "method": "groebner",
    }

    if dim_x == EMPTY:
        raise CompleteIntersectionError("the chart cuts out an empty scheme")
    if dim_x != n - c:
        raise CompleteIntersectionError(
            f"not a complete intersection: dim X = {dim_x}, expected "
            f"{n} - {c} = {n - c}")
    d = dim_x

    if is_log and not assumption.passed:
        failing = assumption.failing[0]
        reducible = assumption.x0_nonempty
        conclusion = (
            f"stratum l={failing.index} has codimension {failing.codim} < "
            f"{failing.index}"
            + ("; the open stratum is nonempty, so the log jet schemes are "
               "reducible and the chart is NOT canonical"
               if reducible else
               "; the open stratum is empty, no reducibility conclusion"))
        return AnalysisReport(summary, d, c, assumption, (), (),
                              "ASSUMPTION_FAIL", None, None,
                              reducible, conclusion, cfg.max_order,
                              tuple(notes))

    rows = []
    lct_rows = []
    for m in range(1, cfg.max_order + 1):
        rows.extend(irreducibility_rows(chart, m, cfg, strata, d))
    rows = tuple(rows)

    if is_log:
        lct_sources = [(r.l, r.m, r.dim_jets) for r in rows
                       if r.kind == "stratum" and r.status != "UNKNOWN"]
        convention = "stratum: d+c-dimJ/(m+1)"
    else:
        lct_sources = []
        for m in range(1, cfg.max_order + 1):
            try:
                res = _dim(ordinary_jet_presentation(chart, m), cfg)
                lct_sources.append(("X", m, res.dimension))
            except ResourceLimitError as exc:
                notes.append(f"lct at order {m} skipped: {exc}")
        convention = "ambient: n-dimJ/(m+1)"
    best = {}
    raw_rows = []
    for l, m, dim_jets in lct_sources:
        value = (estimate_lct(d, c, dim_jets, m) if is_log
                 else (None if dim_jets == EMPTY
                       else Fraction(n) - Fraction(dim_jets, m + 1)))
        raw_rows.append((l, m, dim_jets, value))
        if value is not None:
            cur = best.get(l)
            if cur is None or value > cur:
                best[l] = value
    for l, m, dim_jets, value in raw_rows:
        lct_rows.append(LctRow(l, m, dim_jets, value, convention,
                               _divisors_of(m + 1),
                               value is not None and best.get(l) == value))
    lct_rows = tuple(lct_rows)

    violated = [r for r in rows if r.status == "VIOLATED"]
    unknown = [r for r in rows if r.status == "UNKNOWN"]
    if violated:
        w = min(violated, key=lambda r: (r.m, r.l))
        confirmation = _confirm_witness(chart, w, cfg, strata)
        conclusion = (
            f"dim J_{w.m}(X_{w.l}) {'+ ' + str(w.added) + ' ' if w.added else ''}"
            f"= {w.total} >= {w.bound} = d*(m+1): the "
            f"{'log ' if is_log else ''}jet scheme at order {w.m} is "
            "reducible, so the chart is NOT canonical")
        return AnalysisReport(summary, d, c, assumption, rows, lct_rows,
                              "REDUCIBLE", (w.l, w.m), confirmation, True,
                              conclusion, cfg.max_order, tuple(notes))
    if unknown:
        return AnalysisReport(summary, d, c, assumption, rows, lct_rows,
                              "INCONCLUSIVE", None, None, False,
                              "some rows exceeded computation budgets",
                              cfg.max_order, tuple(notes))
    conclusion = (
        f"all irreducibility inequalities strict for m <= {cfg.max_order}; "
        "no obstruction found (canonicity would need all orders m)")
    return AnalysisReport(summary, d, c, assumption, rows, lct_rows,
                          "NO_OBSTRUCTION_UP_TO_M", None, None, False,
                          conclusion, cfg.max_order, tuple(notes))
