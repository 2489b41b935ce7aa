"""Report rendering: a diff-friendly fixed-width table and versioned JSON.

Reports are written, never read back: the JSON is a record for people and
other tools, and nothing in logjet parses it.  Exact rationals are
serialized as "p/q" strings; EMPTY stays the string "EMPTY"; +infinity lct
estimates render as "inf".  Identical reports render to byte-identical
text.
"""

import json
from fractions import Fraction

SCHEMA = "logjet-report/1"


def _fmt_rational(q):
    if q is None:
        return "inf"
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 \
        else str(q.numerator)


def _fmt_dim(d):
    if d is None:
        return "?"
    return str(d)


def report_to_dict(report):
    doc = {
        "schema": SCHEMA,
        "chart": report.chart_summary,
        "dim_x": report.dim_x,
        "codim": report.chart_summary["codim"],
        "max_order": report.chart_summary["max_order"],
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
            "attempted": True,     # a confirmation is always attempted
            "confirmed": wc.confirmed,
            "counts": ({str(p): c for p, c in wc.counts.items()}
                       if isinstance(wc.counts, dict) else None),
            "note": wc.note,
        }
    return doc


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
