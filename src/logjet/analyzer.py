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
n - dim J_m(X) / (m+1), the same number since d + c = n.  Every estimate
is an upper bound (lct = n - max_m dim J_m / (m+1), Mustata 2002), so the
row marked best for each l is the smallest.

Every presentation is strata.stratum_jet_presentation(source, m) of a row
source: the strata of a log chart, or an ordinary chart's whole variety,
whose base (m = 0) dimensions come first, then the open part.  An
ordinary chart's lct orders jet its whole variety.

A row whose source is known to be empty is answered EMPTY without
building its presentation: a stratum X_l whose base (order 0) dimension,
computed once for the Assumption-1 check, is EMPTY, and the open part at
every order above one whose row was EMPTY.  This is exact: the order-m
presentation contains the order-m' generators (m' < m) in the lower
variables, so V(J_m) projects into V(J_m') = empty.  An UNKNOWN row decides
nothing and is never propagated.  Every presentation is built under the
analysis budgets, so a row whose J_m has more variables than the Groebner
bound is UNKNOWN without a build, and no jet past the bound is derived.

A REDUCIBLE witness is rechecked by counting points of its own
presentation over F_p.
"""

from fractions import Fraction
from typing import NamedTuple

from .dimension import EMPTY, Budgets, dimension_of, fp_dimension_estimate
from .errors import CompleteIntersectionError, LogjetError, ResourceLimitError
from .jets import derivative_chain  # noqa: F401  (patched by bench/tracing.py)
from .parse import render
from .strata import base_presentation  # noqa: F401  (a bench/tracing.py hook)
from .strata import (check_assumption, open_part, stratify,
                     stratum_jet_presentation, whole_chart)


class AnalysisConfig(NamedTuple):
    """Settings of one analysis: the highest jet order and the budgets.
    analyze refuses a max_order below 1.

    Every row comes from the exact Groebner path under budgets; F_p counts
    (over dimension.DEFAULT_PRIMES) only recheck a REDUCIBLE witness.
    """

    max_order: int = 2
    budgets: Budgets = Budgets()


class InequalityRow(NamedTuple):
    """One (stratum, order) irreducibility check.

    face is the generator indices of the face of X_l for a stratum row,
    dim J_m(X_l) + m*l < d(m+1) with l > 0; it is None for the open row,
    the jets-over-singular-locus bound of the dense stratum, whose l is 0.
    dim_jets is an int, EMPTY, or None when the computation hit a budget;
    error then holds the budget's message.
    """

    l: int
    m: int
    face: object            # tuple of generator indices; None: the open row
    dim_jets: object
    bound: int              # d*(m+1)
    status: str             # OK | VIOLATED | EMPTY | UNKNOWN
    error: str = ""         # the budget error of an UNKNOWN row

    @property
    def kind(self):
        return "open" if self.face is None else "stratum"

    @property
    def added(self):
        """m*l, which is 0 for the open row."""
        return self.m * self.l

    @property
    def note(self):
        """The row's label in a report: the budget error of an UNKNOWN
        row, else its face or the open part."""
        if self.error:
            return self.error
        if self.face is None:
            return "jets over the singular locus"
        return f"face {self.face}"

    @property
    def total(self):
        if self.dim_jets in (EMPTY, None):
            return None
        return self.dim_jets + self.added


class LctRow(NamedTuple):
    l: object               # stratum index, or "X" in ordinary convention
    m: int
    dim_jets: object
    value: object           # Fraction, or None for +infinity
    best: bool = False

    @property
    def convention(self):
        return ("ambient: n-dimJ/(m+1)" if self.l == "X"
                else "stratum: d+c-dimJ/(m+1)")

    @property
    def divisible_by(self):
        """The divisors of m+1 among 2..6."""
        return tuple(t for t in range(2, 7) if (self.m + 1) % t == 0)


class WitnessConfirmation(NamedTuple):
    confirmed: object       # True | False | None (unavailable)
    counts: object = None
    note: str = ""


class AnalysisReport(NamedTuple):
    chart_summary: dict
    dim_x: object
    assumption: object      # AssumptionReport or None for ordinary charts
    rows: tuple
    lct_rows: tuple
    verdict: str            # NO_OBSTRUCTION_UP_TO_M | REDUCIBLE |
                            # ASSUMPTION_FAIL | INCONCLUSIVE
    witness: object = None  # (l, m) for REDUCIBLE
    witness_confirmation: object = None
    conclusion: str = ""
    notes: tuple = ()

    @property
    def not_canonical(self):
        """A reducible jet scheme, or an assumption failure whose open
        stratum is nonempty (which forces one)."""
        return self.verdict == "REDUCIBLE" or (
            self.verdict == "ASSUMPTION_FAIL" and self.assumption.x0_nonempty)

    @property
    def exit_code(self):
        return {"NO_OBSTRUCTION_UP_TO_M": 0, "REDUCIBLE": 10,
                "ASSUMPTION_FAIL": 20, "INCONCLUSIVE": 30}[self.verdict]


# -- presentations by their public names ---------------------------------------


def ordinary_jet_presentation(chart, m):
    """J_m of the chart equations in affine space (strata.whole_chart)."""
    return stratum_jet_presentation(whole_chart(chart), m)


def open_part_jet_presentation(chart, m):
    """J_m of the open stratum over its singular locus (strata.open_part)."""
    return stratum_jet_presentation(open_part(chart), m)


# -- the analysis --------------------------------------------------------------


def estimate_lct(d, c, dim_jets, m):
    """Order-m lct estimate d + c - dim J_m / (m+1); None means +infinity."""
    if dim_jets == EMPTY:
        return None
    return Fraction(d + c) - Fraction(dim_jets, m + 1)


def _rows(chart, cfg, d, strata, base_dims):
    """(row, presentation) of every inequality row: per order m, one per
    stratum of index l > 0 (an ordinary chart's one source has l = 0),
    then the open row.

    Each source carries whether it is known to be empty: a stratum whose
    base dimension in base_dims (in stratum order) is EMPTY, or a source
    whose computed row was EMPTY at a lower order.  Such a source gets an
    EMPTY row with no presentation built.  See the module docstring.
    """
    sources = [[s, s.face.generator_indices, dim == EMPTY]
               for s, dim in zip(strata, base_dims) if s.index]
    sources.append([open_part(chart, strata), None, False])
    for m in range(1, cfg.max_order + 1):
        for entry in sources:
            source, face, empty = entry
            if empty:
                yield InequalityRow(source.index, m, face, EMPTY,
                                    d * (m + 1), "EMPTY"), None
                continue
            row, pres = _row(source, m, face, d, cfg)
            entry[2] = row.status == "EMPTY"
            yield row, pres


def _row(source, m, face, d, cfg):
    """(row, presentation) of J_m of a source: dim J_m + m*l against
    d*(m+1), or UNKNOWN with no presentation when a budget trips; see the
    module docstring."""
    l, bound = source.index, d * (m + 1)
    try:
        pres = stratum_jet_presentation(source, m, cfg.budgets)
        dim_jets = dimension_of(pres, budgets=cfg.budgets).dimension
    except ResourceLimitError as exc:
        return InequalityRow(l, m, face, None, bound, "UNKNOWN",
                             str(exc)), None
    if dim_jets == EMPTY:
        status = "EMPTY"
    elif dim_jets + m * l < bound:
        status = "OK"
    else:
        status = "VIOLATED"
    return InequalityRow(l, m, face, dim_jets, bound, status), pres


def _confirm_witness(row, pres, cfg):
    """Recount a violated row's own presentation over F_p and recheck it."""
    try:
        fp = fp_dimension_estimate(pres, budgets=cfg.budgets)
    except LogjetError as exc:
        return WitnessConfirmation(None, note=f"fp check unavailable: {exc}")
    if fp.dimension == EMPTY:
        return WitnessConfirmation(False, fp.certificate,
                                   "fp count found no points")
    return WitnessConfirmation(fp.dimension + row.added >= row.bound,
                               fp.certificate,
                               "unreliable majority" if fp.unreliable else "")


def _lct_rows(sources, d, c):
    """One LctRow per (l, m, dim J_m); per l the smallest estimate, the
    tightest upper bound on the lct, is marked best."""
    values = [estimate_lct(d, c, dim_jets, m) for _l, m, dim_jets in sources]
    best = {}
    for (l, _m, _dim), value in zip(sources, values):
        if value is not None:
            best[l] = min(best.get(l, value), value)
    return tuple(LctRow(l, m, dim_jets, value,
                        value is not None and best[l] == value)
                 for (l, m, dim_jets), value in zip(sources, values))


def analyze(chart, cfg=None):
    """Full analysis: gates, stratification, inequality rows, verdict."""
    cfg = cfg or AnalysisConfig()
    if cfg.max_order < 1:
        raise ValueError("max order must be at least 1")
    notes = []
    is_log = chart.monoid is not None
    n, c = chart.ambient_rank, chart.codim

    strata = stratify(chart) if is_log else (whole_chart(chart),)
    base_dims = [dimension_of(stratum_jet_presentation(s, 0, cfg.budgets),
                              budgets=cfg.budgets).dimension
                 for s in strata]
    assumption = check_assumption(strata, base_dims) if is_log else None
    d = max((dim for dim in base_dims if dim != EMPTY), default=EMPTY)

    summary = {
        "ambient_rank": n,
        "codim": c,
        "mode": "log" if is_log else "ordinary",
        "monoid_generators": (list(map(list, chart.monoid.generators))
                              if is_log else None),
        "basis": list(map(list, chart.basis)) if is_log else None,
        "equations": [render(f, chart.variables) for f in chart.equations],
        "max_order": cfg.max_order,
    }

    if d == EMPTY:
        raise CompleteIntersectionError("the chart cuts out an empty scheme")
    if d != n - c:
        raise CompleteIntersectionError(
            f"not a complete intersection: dim X = {d}, expected "
            f"{n} - {c} = {n - c}")

    rows, lct_rows, witness, confirmation = (), (), None, None
    if is_log and not assumption.passed:
        failing = assumption.failing[0]
        verdict = "ASSUMPTION_FAIL"
        conclusion = (
            f"stratum l={failing.index} has codimension {failing.codim} < "
            f"{failing.index}"
            + ("; the open stratum is nonempty, so the log jet schemes are "
               "reducible and the chart is NOT canonical"
               if assumption.x0_nonempty else
               "; the open stratum is empty, no reducibility conclusion"))
    else:
        rows, w = [], None      # w: the violated row of least (m, l)
        for row, pres in _rows(chart, cfg, d, strata, base_dims):
            rows.append(row)
            if row.status == "VIOLATED" and (
                    w is None or (row.m, row.l) < (w.m, w.l)):
                w, w_pres = row, pres
        rows = tuple(rows)

        if is_log:
            lct_sources = [(r.l, r.m, r.dim_jets) for r in rows
                           if r.kind == "stratum" and r.status != "UNKNOWN"]
        else:
            lct_sources = []
            for m in range(1, cfg.max_order + 1):
                try:
                    lct_sources.append(("X", m, dimension_of(
                        stratum_jet_presentation(strata[0], m, cfg.budgets),
                        budgets=cfg.budgets).dimension))
                except ResourceLimitError as exc:
                    notes.append(f"lct at order {m} skipped: {exc}")
        lct_rows = _lct_rows(lct_sources, d, c)

        if w is not None:
            witness = (w.l, w.m)
            confirmation = _confirm_witness(w, w_pres, cfg)
            verdict = "REDUCIBLE"
            conclusion = (
                f"dim J_{w.m}(X_{w.l}) "
                f"{'+ ' + str(w.added) + ' ' if w.added else ''}"
                f"= {w.total} >= {w.bound} = d*(m+1): the "
                f"{'log ' if is_log else ''}jet scheme at order {w.m} is "
                "reducible, so the chart is NOT canonical")
        elif any(r.status == "UNKNOWN" for r in rows):
            verdict = "INCONCLUSIVE"
            conclusion = "some rows exceeded computation budgets"
        else:
            verdict = "NO_OBSTRUCTION_UP_TO_M"
            conclusion = (
                f"all irreducibility inequalities strict for m <= "
                f"{cfg.max_order}; no obstruction found (canonicity would "
                "need all orders m)")
    return AnalysisReport(summary, d, assumption, rows, lct_rows, verdict,
                          witness, confirmation, conclusion, tuple(notes))
