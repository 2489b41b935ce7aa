"""Pins on the work the benchmark's fragile checks depend on.

bench/tests/test_bench.py::test_traced_self_times_add_up_to_the_pass needs
a2 at m = 2 to run longer than one speed-sample interval, and
test_unknown_row_is_undecided_not_wrong needs n2_hyperplane_pairs8 to trip
its 8-pair budget at m = 3.  Both depend on the exact presentations the
analyzer builds and on the S-pairs Buchberger processes for them, so a
change to presentation building or to the pair update shows here first,
with the figure that moved, instead of as a timing failure there.  The
basis pin holds a change to the reduction itself to the same reduced bases
and S-pair counts, and the work pins to the same term operations.
"""

import functools
import hashlib
from pathlib import Path

import pytest

from logjet import (AnalysisConfig, analyze, analyzer, dimension,
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
    Groebner basis it computes, each split into an ordinary half (the
    charts without a monoid) and a log half."""
    halves = {kind: (hashlib.sha256(), hashlib.sha256())
              for kind in ("ordinary", "log")}
    current = []
    measure = analyzer.dimension_of
    compute = dimension.groebner_basis

    def recording_measure(pres, budgets=None):
        current[0][0].update(repr((pres.variables, pres.generators)).encode())
        return measure(pres, budgets=budgets)

    def recording_compute(pres, budgets=None):
        gb = compute(pres, budgets)
        current[0][1].update(repr((gb.basis, gb.pairs_processed)).encode())
        return gb

    names = sorted(p.name for p in BENCH_CHARTS.glob("*.json")
                   if p.name != "cone2_bare.json")
    assert len(names) == 17
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "dimension_of", recording_measure)
        patch.setattr(dimension, "groebner_basis", recording_compute)
        for name in names:
            chart, options = _chart(name)
            current[:] = [halves["ordinary" if chart.monoid is None
                                 else "log"]]
            analyze(chart, AnalysisConfig(
                max_order=1 if name.startswith("n5") else 2,
                budgets=options.budgets))
    return {kind: (p.hexdigest(), b.hexdigest())
            for kind, (p, b) in halves.items()}


# The ordinary half (charts without a monoid, whose presentations have no
# inversion variable) is unchanged by the w-first column layout of
# localized presentations and by the minimal off-face monomials of
# strata; the log half was retaken with each.  Dropping the non-minimal
# monomials leaves every reduced basis as it was (tests/
# test_dropped_monomials.py) but fewer S-pairs, which the bases pin counts.
PRESENTATIONS = {
    "ordinary":
        "e1962edba9977eb624dca86a361238a50d16ad4b45311cfb41df1072d409ea58",
    "log":
        "1b6a8a4ee4f5d52bd889bed2e200ad0688ddcc027d9948bf15563af94c132841",
}
BASES = {
    "ordinary":
        "d4fd409e3fc421cc1f6d171132aa5a1724977983b71e6b3ba4beebc2740a3b21",
    "log":
        "b790717f7da3ef49f68f8bd94c495f99ccae3188ed62648f1d1422ab896c8aa2",
}


def test_every_presentation_analyze_builds_is_pinned(analyze_pass):
    assert {kind: digests[0] for kind, digests in analyze_pass.items()} == (
        PRESENTATIONS)


def test_every_groebner_basis_analyze_computes_is_pinned(analyze_pass):
    """Exactness pin for the Buchberger engine: the reduced bases and the
    S-pairs processed, not just the dimensions read from them."""
    assert {kind: digests[1] for kind, digests in analyze_pass.items()} == (
        BASES)


@functools.cache
def _run(name, face, m):
    return groebner_basis(_jets(name, face, m))


PINNED_RUNS = [("a2.json", None, 2), ("cusp.json", None, 3),
               ("n3_hyperplane.json", (1, 2), 3), ("cusp.json", None, 4)]


@pytest.mark.parametrize("name, face, m, pairs", [
    run + (pairs,) for run, pairs in zip(PINNED_RUNS, (80, 176, 121, 851))])
def test_pairs_processed_are_pinned(name, face, m, pairs):
    assert _run(name, face, m).pairs_processed == pairs


@pytest.mark.parametrize("name, m, work", [("a2.json", 2, 22068),
                                          ("cusp.json", 4, 741875)])
def test_work_is_pinned(name, m, work):
    """The term operations of a run: a change to the reduction shows as a
    count that moved, not as a time."""
    assert _run(name, None, m).work == work


def test_work_bound_has_a_fourfold_margin():
    """The cusp's J_4 is the largest run of the corpus and of tier 1, so
    the work bound refuses nothing the benchmark or the tests decide."""
    largest = max(_run(*run).work for run in PINNED_RUNS)
    assert largest == _run("cusp.json", None, 4).work
    assert dimension.MAX_GROEBNER_WORK >= 4 * largest


def test_pairs8_face_trips_its_budget():
    budgets = _chart("n2_hyperplane_pairs8.json")[1].budgets
    assert budgets.max_pairs == 8
    with pytest.raises(ResourceLimitError, match="S-pair budget 8"):
        groebner_basis(_jets("n2_hyperplane_pairs8.json", (1,), 3), budgets)


@pytest.mark.parametrize("m, pairs", [(2, 9), (3, 12)])
def test_pairs8_face_margin_over_its_budget(m, pairs):
    """Unbudgeted, face (1,) of n2_hyperplane_pairs8 needs 9 S-pairs at
    m = 2 and 12 at m = 3: one pair over the 8-pair budget at m = 2."""
    assert groebner_basis(
        _jets("n2_hyperplane_pairs8.json", (1,), m)).pairs_processed == pairs
