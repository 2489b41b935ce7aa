"""Pins on the work the benchmark's fragile checks depend on.

bench/tests/test_bench.py::test_traced_self_times_add_up_to_the_pass needs
a2 at m = 2 to run longer than one speed-sample interval, and
test_unknown_row_is_undecided_not_wrong needs n2_hyperplane_pairs8 to trip
its 8-pair budget at m = 3.  Both depend on the exact presentations the
analyzer builds and on the S-pairs Buchberger processes for them, so a
change to presentation building or to the pair update shows here first,
with the figure that moved, instead of as a timing failure there.  The
basis pin holds a change to the reduction itself to the same reduced bases
and S-pair counts.
"""

import hashlib
from pathlib import Path

import pytest

from logjet import (AnalysisConfig, Budgets, analyze, analyzer, dimension,
                    groebner_basis, load_chart)
from logjet.errors import ResourceLimitError
from logjet.strata import stratify, stratum_jet_presentation

BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"


def _chart(name):
    return load_chart(BENCH_CHARTS / name)


def _jets(name, face, m):
    """J_m of an ordinary chart (face None) or of one stratum of a log
    chart, as the analyzer builds it."""
    chart, _opts = _chart(name)
    if face is None:
        return analyzer.ordinary_jet_presentation(chart, m)
    stratum = next(s for s in stratify(chart)
                   if s.face.generator_indices == face)
    return stratum_jet_presentation(stratum, m)


@pytest.fixture(scope="module")
def analyze_pass():
    """One analyze pass over the charts that do not raise, at m <= 2 (the
    rank-5 chart at m = 1, whose strata take seconds each at m = 2).
    Returns sha256 digests over the variables and generators of every
    presentation it measures, and over the basis and S-pair count of every
    Groebner basis it computes."""
    presentations, bases = hashlib.sha256(), hashlib.sha256()
    measure = analyzer.dimension_of
    compute = dimension.groebner_basis

    def recording_measure(pres, budgets=None):
        presentations.update(repr((pres.variables, pres.generators)).encode())
        return measure(pres, budgets=budgets)

    def recording_compute(pres, budgets=None):
        gb = compute(pres, budgets)
        bases.update(repr((gb.basis, gb.pairs_processed)).encode())
        return gb

    names = sorted(p.name for p in BENCH_CHARTS.glob("*.json")
                   if p.name != "cone2_bare.json")
    assert len(names) == 17
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "dimension_of", recording_measure)
        patch.setattr(dimension, "groebner_basis", recording_compute)
        for name in names:
            chart, options = _chart(name)
            analyze(chart, AnalysisConfig(
                max_order=1 if name.startswith("n5") else 2,
                budgets=options.budgets or Budgets()))
    return presentations.hexdigest(), bases.hexdigest()


def test_every_presentation_analyze_builds_is_pinned(analyze_pass):
    assert analyze_pass[0] == (
        "c3be8ec6d8aa4947bef0dab19cafde6bb8d7e50acab46a03837fe8161086dca8")


def test_every_groebner_basis_analyze_computes_is_pinned(analyze_pass):
    """Exactness pin for the Buchberger engine: the reduced bases and the
    S-pairs processed, not just the dimensions read from them."""
    assert analyze_pass[1] == (
        "10b9540902ff1dd106c02f42efc4a9f56d263352618cdcf85b198be2204932f8")


@pytest.mark.parametrize("name, face, m, pairs", [
    ("a2.json", None, 2, 80),
    ("cusp.json", None, 3, 176),
    ("n3_hyperplane.json", (1, 2), 3, 156),
    ("cusp.json", None, 4, 851),
])
def test_pairs_processed_are_pinned(name, face, m, pairs):
    assert groebner_basis(_jets(name, face, m)).pairs_processed == pairs


def test_pairs8_face_trips_its_budget():
    budgets = _chart("n2_hyperplane_pairs8.json")[1].budgets
    assert budgets.max_pairs == 8
    with pytest.raises(ResourceLimitError, match="S-pair budget 8"):
        groebner_basis(_jets("n2_hyperplane_pairs8.json", (1,), 3), budgets)
