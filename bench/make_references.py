"""Regenerate bench/references.json: the answers the benchmark checks.

Run from the repository root:

    python3 bench/make_references.py

Each row's dimension comes from one of these sources, recorded with it:

- closed-form: a formula from theory.  A smooth hyperplane stratum of the
  N^n chart x1+...+xn-1 has dim J_m(X_l) = (d-l)(m+1), d = n-1, and is
  empty at the origin (l = n).  The strata of N^3 x1*x2-x3^2-1 are smooth
  of the dimensions in QUADRIC_STRATA, and a smooth stratum of dimension e
  has jets of dimension e(m+1).  The equation-free cone is the toric
  variety itself, whose strata are tori of dimension n-l.  All these
  charts are smooth on the open torus, so their open rows are EMPTY.
  A closed form must agree with every row the analyzer decides today.
- baseline+fp: the analyzer's answer, confirmed by an F_p point count
  (possible when the presentation has at most 8 variables).
- baseline: the analyzer's answer alone.

Verdicts: the cusp is REDUCIBLE with its witness at m=1, du Val A_n have
no obstruction, and the smooth charts above have no obstruction at any
order.  A chart the analyzer decides today must agree with the verdict
written here.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import corpus  # noqa: E402
from logjet import analyzer, dimension, strata  # noqa: E402
from logjet.chartfile import load_chart  # noqa: E402
from logjet.errors import LogjetError  # noqa: E402

NO_OBSTRUCTION = "NO_OBSTRUCTION_UP_TO_M"

# face generator indices -> dim X_l for N^3 x1*x2 - x3^2 - 1: x3 = 0 gives
# x1*x2 = 1, x1 = 0 or x2 = 0 gives x3 = +-i with one free coordinate,
# x1 = x2 = 0 gives two points; every other boundary face has -1 = 0.
QUADRIC_STRATA = {(0, 1): 1, (0, 2): 1, (1, 2): 1, (2,): 0,
                  (0,): corpus.EMPTY, (1,): corpus.EMPTY,
                  (): corpus.EMPTY}


def hyperplane_dim(n, l, m):
    return corpus.EMPTY if l == n else (n - 1 - l) * (m + 1)


def smooth_dim(e, m):
    return corpus.EMPTY if e == corpus.EMPTY else e * (m + 1)


def closed_form(chart_name, kind, l, m, face):
    """Closed-form dim J_m(X_l) of one row, or None when there is none."""
    hyperplanes = {"n2_hyperplane.json": 2, "n2_hyperplane_pairs8.json": 2,
                   "n3_hyperplane.json": 3, "n5_hyperplane.json": 5}
    if chart_name in hyperplanes:
        return (corpus.EMPTY if kind == "open"
                else hyperplane_dim(hyperplanes[chart_name], l, m))
    if chart_name == "n3_quadric.json":
        return (corpus.EMPTY if kind == "open"
                else smooth_dim(QUADRIC_STRATA[tuple(face)], m))
    if chart_name == "cone2_bare.json":
        return corpus.EMPTY if kind == "open" else (2 - l) * (m + 1)
    return None


VERDICTS = {"cusp.json": "REDUCIBLE", "n2_binomial.json": "ASSUMPTION_FAIL",
            "n3_binomial.json": "ASSUMPTION_FAIL"}
WITNESSES = {"cusp.json": [0, 1]}


def _fp_check(pres, dim):
    """True/False from an F_p count, None when the count is not possible."""
    if len(pres.variables) > dimension.Budgets().fp_max_vars:
        return None
    fp = dimension.fp_dimension_estimate(pres)
    return fp.dimension == dim and not fp.unreliable


def _row_presentation(chart, strata_by_face, kind, m, face):
    if kind == "open":
        return analyzer.open_part_jet_presentation(chart, m)
    return strata.stratum_jet_presentation(strata_by_face[face], m)


def reference_for(chart_name, max_order):
    chart, _opts = load_chart(corpus.CHART_DIR / chart_name)
    cfg = analyzer.AnalysisConfig(max_order=max_order)
    try:
        report = analyzer.analyze(chart, cfg)
    except LogjetError as exc:
        report = None
        print(f"  {chart_name}: raises {exc}")
    baseline = {}
    if report is not None:
        for r in report.rows:
            if r.status != "UNKNOWN":
                face = (corpus.face_of_note(r.note)
                        if r.kind == "stratum" else None)
                baseline[corpus.row_key(r.kind, r.l, r.m, face)] = (
                    corpus.EMPTY if r.dim_jets == corpus.EMPTY
                    else r.dim_jets)

    keys = []
    strata_by_face = {}
    if chart.monoid is not None:
        strata_by_face = {s.face.generator_indices: s
                          for s in strata.stratify(chart)}
        if report is None or report.verdict != "ASSUMPTION_FAIL":
            for m in range(1, max_order + 1):
                keys += [corpus.row_key("stratum", s.index, m, f)
                         for f, s in sorted(strata_by_face.items())
                         if s.index > 0]
                keys.append(corpus.row_key("open", 0, m, None))
    else:
        keys = list(baseline)

    rows = []
    for kind, l, m, face in keys:
        key = (kind, l, m, face)
        dim = closed_form(chart_name, kind, l, m, face)
        if dim is not None:
            source = "closed-form"
            if key in baseline and baseline[key] != dim:
                raise SystemExit(f"{chart_name} {key}: analyzer says "
                                 f"{baseline[key]}, closed form {dim}")
        elif key in baseline:
            dim = baseline[key]
            pres = _row_presentation(chart, strata_by_face, kind, m, face)
            ok = _fp_check(pres, dim)
            if ok is False:
                raise SystemExit(f"{chart_name} {key}: F_p disagrees")
            source = "baseline+fp" if ok else "baseline"
        else:
            raise SystemExit(f"{chart_name} {key}: no reference available")
        row = {"kind": kind, "l": l, "m": m}
        if face is not None:
            row["face"] = list(face)
        row.update(dim=dim, source=source)
        rows.append(row)

    ref = {"verdict": VERDICTS.get(chart_name, NO_OBSTRUCTION), "rows": rows}
    if chart_name in WITNESSES:
        ref["witness"] = WITNESSES[chart_name]
    if report is not None and report.verdict not in (ref["verdict"],
                                                      corpus.INCONCLUSIVE):
        raise SystemExit(f"{chart_name}: verdict {report.verdict}, "
                         f"expected {ref['verdict']}")
    if chart.monoid is None:
        ref["lct"] = []
        for r in report.lct_rows:
            pres = analyzer.ordinary_jet_presentation(chart, r.m)
            ok = _fp_check(pres, r.dim_jets)
            if ok is False:
                raise SystemExit(f"{chart_name} lct m={r.m}: F_p disagrees")
            ref["lct"].append({"m": r.m, "dim": r.dim_jets,
                               "source": "baseline+fp" if ok else "baseline"})
    return ref


def render(refs):
    """One chart per block and one row per line, for readable diffs."""
    out = ["{"]
    names = sorted(refs)
    for i, name in enumerate(names):
        ref = refs[name]
        out.append(f"  {json.dumps(name)}: {{")
        out.append(f"    \"verdict\": {json.dumps(ref['verdict'])},")
        if "witness" in ref:
            out.append(f"    \"witness\": {json.dumps(ref['witness'])},")
        lists = [k for k in ("rows", "lct") if k in ref]
        for j, k in enumerate(lists):
            items = [f"      {json.dumps(r)}" for r in ref[k]]
            body = ",\n".join(items)
            tail = "," if j < len(lists) - 1 else ""
            out.append(f"    {json.dumps(k)}: [\n{body}\n    ]{tail}"
                       if items else f"    {json.dumps(k)}: []{tail}")
        out.append("  }" + ("," if i < len(names) - 1 else ""))
    out.append("}")
    return "\n".join(out) + "\n"


def main():
    orders = {}
    for entries in corpus.WORKLOADS.values():
        for e in entries:
            orders[e.chart] = max(orders.get(e.chart, 0), e.max_order)
    refs = {}
    for name, max_order in sorted(orders.items()):
        print(f"{name} up to m={max_order}", flush=True)
        refs[name] = reference_for(name, max_order)
    corpus.REFERENCES.write_text(render(refs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
