"""The benchmark's chart corpus, its workloads, and the reference checker.

A workload is a list of (chart file, max order) entries.  Every chart has a
reference in references.json: the true verdict, and the true dimension of
every inequality row (and, for ordinary charts, every lct order) up to the
highest order any workload asks for.  check_outcome compares one analysis
against that reference and separates three things:

- a wrong answer (a decided verdict or decided row that disagrees with the
  reference), which must make the benchmark fail;
- a failed operation (the chart raised a LogjetError or came back
  INCONCLUSIVE), which is counted, never hidden;
- the decided share of the rows the reference asks for.  An UNKNOWN row,
  an lct order skipped under a budget, and every row of a chart that
  raised count as asked but undecided.
"""

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHART_DIR = BENCH_DIR / "charts"
REFERENCES = BENCH_DIR / "references.json"

EMPTY = "EMPTY"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Entry:
    chart: str          # file name under charts/
    max_order: int


WORKLOADS = {
    # Hundreds of stratum presentations, split between Buchberger and
    # krull_dim; the 20-variable strata at m=4 are the decidable frontier.
    "log-strata": (
        Entry("n2_hyperplane.json", 4),
        Entry("cone2_hyperplane.json", 4),
        Entry("n3_hyperplane.json", 4),
        Entry("n3_quadric.json", 4),
        Entry("conifold_hyperplane.json", 2),
        Entry("n5_hyperplane.json", 1),
        Entry("n2_hyperplane_pairs8.json", 3),
    ),
    # No monoid and no stratum: Fraction normal forms dominate, so stratum,
    # krull_dim and monoid changes should not move this workload.
    "ordinary-jets": (
        Entry("a1.json", 4),
        Entry("a2.json", 2),
        Entry("cusp.json", 4),
    ),
    # Many small charts at m=1: the saturation check in AffineMonoid and
    # report rendering dominate, dimension work is tiny.
    "chart-intake": tuple(
        [Entry(f"cone{k}_hyperplane.json", 1) for k in range(2, 8)]
        + [Entry("conifold_hyperplane.json", 1),
           Entry("n2_binomial.json", 1),
           Entry("n3_binomial.json", 1),
           Entry("cone2_bare.json", 1),
           Entry("a1.json", 1),
           Entry("cusp.json", 1)]),
}


def load_references():
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


def row_key(kind, l, m, face):
    """Reference key of one inequality row; face is None for open rows."""
    return (kind, l, m, tuple(face) if face is not None else None)


def face_of_note(note):
    """Generator indices from a decided stratum row's note 'face (0, 2)'."""
    if not note.startswith("face "):
        raise ValueError(f"stratum row note without a face: {note!r}")
    return tuple(ast.literal_eval(note[len("face "):]))


@dataclass
class Outcome:
    """What one chart analysis contributed to a pass."""

    verdict: str = None
    error: str = None       # LogjetError message, for a failed operation
    asked: int = 0
    decided: int = 0
    wrong: list = field(default_factory=list)

    @property
    def failed(self):
        return self.error is not None or self.verdict == INCONCLUSIVE


def _ref_rows(ref, max_order):
    rows = {}
    for r in ref["rows"]:
        if r["m"] <= max_order:
            key = row_key(r["kind"], r["l"], r["m"], r.get("face"))
            rows[key] = r["dim"]
    return rows


def _ref_lct(ref, max_order):
    return {r["m"]: r["dim"] for r in ref.get("lct", ())
            if r["m"] <= max_order}


def asked_rows(ref, max_order):
    return len(_ref_rows(ref, max_order)) + len(_ref_lct(ref, max_order))


def _dim_value(dim):
    return EMPTY if dim == EMPTY else int(dim)


def check_outcome(entry, ref, report=None, error=None):
    """Compare one analysis (a report, or the LogjetError it raised)."""
    out = Outcome(asked=asked_rows(ref, entry.max_order))
    if error is not None:
        out.error = str(error)
        return out
    out.verdict = report.verdict
    wrong = out.wrong
    if report.verdict not in (ref["verdict"], INCONCLUSIVE):
        wrong.append(f"verdict {report.verdict}, reference {ref['verdict']}")
    if report.verdict == "REDUCIBLE" and ref["verdict"] == "REDUCIBLE":
        if list(report.witness) != ref["witness"]:
            wrong.append(f"witness {report.witness}, reference "
                         f"{ref['witness']}")
        wc = report.witness_confirmation
        # None means the F_p check was unavailable, which is no answer
        if wc is not None and wc.confirmed is False:
            wrong.append("F_p check refuted the witness")

    ref_rows = _ref_rows(ref, entry.max_order)
    if report.verdict != "ASSUMPTION_FAIL":
        expected = {}
        for kind, l, m, _face in ref_rows:
            expected[(kind, l, m)] = expected.get((kind, l, m), 0) + 1
        seen = {}
        for r in report.rows:
            seen[(r.kind, r.l, r.m)] = seen.get((r.kind, r.l, r.m), 0) + 1
            if r.status == "UNKNOWN":
                continue
            face = face_of_note(r.note) if r.kind == "stratum" else None
            key = row_key(r.kind, r.l, r.m, face)
            if key not in ref_rows:
                wrong.append(f"unexpected row {key}")
                continue
            if _dim_value(r.dim_jets) != ref_rows[key]:
                wrong.append(f"row {key}: dim {r.dim_jets}, reference "
                             f"{ref_rows[key]}")
                continue
            out.decided += 1
        if seen != expected:
            wrong.append(f"row counts {sorted(seen.items())}, reference "
                         f"{sorted(expected.items())}")
    elif report.rows:
        wrong.append("rows reported after an assumption failure")

    ref_lct = _ref_lct(ref, entry.max_order)
    if report.chart_summary["mode"] == "ordinary":
        for r in report.lct_rows:
            if r.m not in ref_lct:
                wrong.append(f"unexpected lct order {r.m}")
            elif _dim_value(r.dim_jets) != ref_lct[r.m]:
                wrong.append(f"lct order {r.m}: dim {r.dim_jets}, "
                             f"reference {ref_lct[r.m]}")
            else:
                out.decided += 1
    return out
