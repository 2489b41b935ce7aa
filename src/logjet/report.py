"""Report rendering: a diff-friendly fixed-width table and versioned JSON.

Exact rationals are serialized as "p/q" strings; EMPTY stays the string
"EMPTY"; +infinity lct estimates render as "inf".  Identical reports render
to byte-identical text.
"""

import json
from fractions import Fraction

from .analyzer import (AnalysisReport, InequalityRow, LctRow,
                       WitnessConfirmation)
from .strata import AssumptionReport, StratumStatus

SCHEMA = "logjet-report/1"


def _fmt_rational(q):
    if q is None:
        return "inf"
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 \
        else str(q.numerator)


def _parse_rational(text):
    if text == "inf":
        return None
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _fmt_dim(d):
    if d is None:
        return "?"
    return str(d)


def report_to_dict(report):
    doc = {
        "schema": SCHEMA,
        "chart": report.chart_summary,
        "dim_x": report.dim_x,
        "codim": report.codim,
        "max_order": report.max_order,
        "verdict": report.verdict,
        "witness": list(report.witness) if report.witness else None,
        "not_canonical": report.not_canonical,
        "conclusion": report.conclusion,
        "notes": list(report.notes),
        "assumption": None,
        "rows": [
            {"l": r.l, "m": r.m, "kind": r.kind,
             "dim_jets": r.dim_jets if r.dim_jets is not None else "?",
             "added": r.added, "bound": r.bound, "status": r.status,
             "note": r.note}
            for r in report.rows],
        "lct": [
            {"l": r.l, "m": r.m,
             "dim_jets": r.dim_jets if r.dim_jets is not None else "?",
             "estimate": _fmt_rational(r.value),
             "convention": r.convention,
             "divisible_by": list(r.divisible_by), "best": r.best}
            for r in report.lct_rows],
        "witness_confirmation": None,
    }
    if report.assumption is not None:
        doc["assumption"] = {
            "dim_x": report.assumption.dim_x,
            "x0_nonempty": report.assumption.x0_nonempty,
            "passed": report.assumption.passed,
            "rows": [
                {"l": r.index,
                 "pieces": [{"face": list(f), "dim": d}
                            for f, d in r.pieces],
                 "dim": r.dim, "codim": r.codim, "status": r.status}
                for r in report.assumption.rows],
        }
    if report.witness_confirmation is not None:
        wc = report.witness_confirmation
        doc["witness_confirmation"] = {
            "attempted": wc.attempted,
            "confirmed": wc.confirmed,
            "counts": ({str(p): c for p, c in wc.counts.items()}
                       if isinstance(wc.counts, dict) else None),
            "note": wc.note,
        }
    return doc


def report_from_dict(doc):
    """Rebuild an AnalysisReport from its JSON document."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported report schema {doc.get('schema')!r}")
    assumption = None
    if doc["assumption"] is not None:
        a = doc["assumption"]
        rows = tuple(
            StratumStatus(r["l"],
                          tuple((tuple(p["face"]), p["dim"])
                                for p in r["pieces"]),
                          r["dim"], r["codim"], r["status"])
            for r in a["rows"])
        assumption = AssumptionReport(rows, a["dim_x"], a["x0_nonempty"],
                                      a["passed"])
    rows = tuple(
        InequalityRow(r["l"], r["m"], r["kind"],
                      None if r["dim_jets"] == "?" else r["dim_jets"],
                      r["added"], r["bound"], r["status"], r["note"])
        for r in doc["rows"])
    lct_rows = tuple(
        LctRow(r["l"], r["m"],
               None if r["dim_jets"] == "?" else r["dim_jets"],
               _parse_rational(r["estimate"]), r["convention"],
               tuple(r["divisible_by"]), r["best"])
        for r in doc["lct"])
    confirmation = None
    if doc["witness_confirmation"] is not None:
        wc = doc["witness_confirmation"]
        confirmation = WitnessConfirmation(
            wc["attempted"], wc["confirmed"],
            ({int(p): c for p, c in wc["counts"].items()}
             if wc["counts"] else None),
            wc["note"])
    return AnalysisReport(
        doc["chart"], doc["dim_x"], doc["codim"], assumption, rows,
        lct_rows, doc["verdict"],
        tuple(doc["witness"]) if doc["witness"] else None,
        confirmation, doc["not_canonical"], doc["conclusion"],
        doc["max_order"], tuple(doc["notes"]))


def _table_lines(report):
    lines = []
    s = report.chart_summary
    lines.append(f"chart: mode={s['mode']} n={s['ambient_rank']} "
                 f"c={s['codim']} dim X={report.dim_x}")
    if s.get("monoid_generators"):
        gens = " ".join(str(tuple(g)) for g in s["monoid_generators"])
        lines.append(f"monoid: {gens}")
        basis = " ".join(str(tuple(b)) for b in s["basis"])
        lines.append(f"basis: {basis}")
    for eq in s["equations"]:
        lines.append(f"equation: {eq}")
    lines.append("")
    if report.assumption is not None:
        lines.append("assumption check (codim X_l = l):")
        lines.append("  l  dim  codim  status")
        for r in report.assumption.rows:
            lines.append(f"  {r.index:<2} {_fmt_dim(r.dim):>4} "
                         f"{_fmt_dim(r.codim):>6}  {r.status}")
        lines.append("")
    if report.rows:
        lines.append("irreducibility rows (strict bound d*(m+1)):")
        lines.append("  l  m  kind     dimJ  +ml  bound  status")
        for r in report.rows:
            lines.append(
                f"  {r.l:<2} {r.m:<2} {r.kind:<8} "
                f"{_fmt_dim(r.dim_jets):>4} {r.added:>4} {r.bound:>6}  "
                f"{r.status}" + (f"  [{r.note}]" if r.note else ""))
        lines.append("")
    if report.lct_rows:
        lines.append(f"lct estimates ({report.lct_rows[0].convention}):")
        lines.append("  l  m  dimJ  estimate")
        for r in report.lct_rows:
            mark = " *best" if r.best else ""
            div = (f"  (m+1 divisible by {','.join(map(str, r.divisible_by))})"
                   if r.divisible_by else "")
            lines.append(f"  {str(r.l):<2} {r.m:<2} {_fmt_dim(r.dim_jets):>4}"
                         f"  {_fmt_rational(r.value)}{mark}{div}")
        lines.append("")
    if report.witness is not None:
        lines.append(f"witness: (l={report.witness[0]}, m={report.witness[1]})")
        wc = report.witness_confirmation
        if wc is not None and wc.counts:
            counts = " ".join(f"p={p}:{c}" for p, c in sorted(wc.counts.items()))
            lines.append(f"witness fp check: confirmed={wc.confirmed} {counts}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {report.verdict}"
                 + (f" (witness l={report.witness[0]}, m={report.witness[1]})"
                    if report.witness else ""))
    if report.conclusion:
        lines.append(f"conclusion: {report.conclusion}")
    return lines


def emit_report(report, fmt="table"):
    """Render an analysis report as table text or versioned JSON."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True)
    if fmt == "table":
        return "\n".join(_table_lines(report)) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
