"""The benchmark's tracer wraps logjet functions by the names their callers
look up (bench/tracing.py), and bench/make_references.py rebuilds row
presentations by their logjet.analyzer names.  A refactor that moves or
renames one of them would break `bench/run.py --trace 1` or the next
regeneration of the references; these tests catch that in tier 1."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import make_references  # noqa: E402
import tracing  # noqa: E402

from logjet import (EMPTY, AffineMonoid, AnalysisConfig, Chart,  # noqa: E402
                    analyzer, load_chart, stratify)

CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"
HOOKS = ([(owner, attr) for owner, attr, _layer, _hook in tracing.SPANS]
         + [(owner, attr) for owner, attr, _name in tracing.COUNTS])


@pytest.mark.parametrize("owner, attr", HOOKS,
                         ids=[f"{o.__name__}.{a}" for o, a in HOOKS])
def test_hook_resolves_on_its_owner(owner, attr):
    assert attr in owner.__dict__, f"{owner.__name__}.{attr} is not bound"


def test_tracer_restores_every_original():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in HOOKS]
    chart = Chart.build(monoid=AffineMonoid(2, [(1, 0), (0, 1)]),
                        equations=["x1 + x2 - 1"])
    with tracing.Tracer() as tracer:
        # through the module, as bench/run.py calls it, so the span is seen
        report = analyzer.analyze(chart, AnalysisConfig(max_order=1))
    assert report.verdict == "NO_OBSTRUCTION_UP_TO_M"
    assert tracer.calls["analyzer.analyze"] == 1
    assert tracer.calls["strata.present"] > 0
    assert tracer.calls["jets.derive"] > 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def _measured(chart):
    """The report of analyze at m = 1, and the (variables, generators) of
    every presentation it measured."""
    seen = set()
    measure = analyzer.dimension_of

    def recording(pres, budgets=None):
        seen.add((pres.variables, pres.generators))
        return measure(pres, budgets=budgets)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "dimension_of", recording)
        report = analyzer.analyze(chart, AnalysisConfig(max_order=1))
    return report, seen


@pytest.mark.parametrize("name", ["cone3_hyperplane.json", "a2.json"])
def test_reference_presentations_are_the_ones_analyze_measures(name):
    """make_references rechecks a row on the presentation that
    _row_presentation builds, and an ordinary chart's lct order on
    analyzer.ordinary_jet_presentation.  Regenerating the references is no
    tier-1 step, so this pins those names to what analyze measures: every
    row built at m = 1 (a stratum that is empty at order 0 gets no build)
    and every lct order."""
    chart = load_chart(CHARTS / name)[0]
    report, seen = _measured(chart)
    by_face = ({s.face.generator_indices: s for s in stratify(chart)}
               if chart.monoid is not None else {})
    empty = {face for row in (report.assumption.rows
                              if report.assumption else ())
             for face, dim in row.pieces if dim == EMPTY}
    built = [make_references._row_presentation(chart, by_face, r.kind, r.m,
                                               r.face)
             for r in report.rows if r.face not in empty]
    if chart.monoid is None:
        built += [analyzer.ordinary_jet_presentation(chart, r.m)
                  for r in report.lct_rows]
    # cone3: face (0,) and the open row; a2: the open row and lct at m = 1
    assert len(built) == 2
    for pres in built:
        assert (pres.variables, pres.generators) in seen
