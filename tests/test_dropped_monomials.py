"""Minimal off-face monomials are exact: restoring the dropped ones changes
no reduced Groebner basis.

stratify keeps chi^g for a generator g off the face only when its cleared
exponent max(e, 0) is divisible by no other kept one's.  The ideal is the
same, so its jets and its reduced basis are too.  This checks it on every
stratum presentation analyze builds for the log charts of the benchmark
corpus, at m <= 2 (the rank-5 chart at m = 1, as in
tests/test_bench_margins.py): each is rebuilt with every off-face chi^g,
its exponents solved here from the generator, and both are reduced.
"""

from pathlib import Path

import pytest

from logjet import (AnalysisConfig, analyze, analyzer, groebner_basis,
                    load_chart)
from logjet.errors import LogjetError
from logjet.strata import StratumPresentation, stratum_jet_presentation

BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"
LOG_CHARTS = sorted(p.name for p in BENCH_CHARTS.glob("*.json")
                    if load_chart(p)[0].monoid is not None)


def _restored(chart, stratum):
    """The stratum's equations with chi^g for every generator g off its
    face, in generator order, between the chart equations and the
    localization."""
    on = stratum.face.generator_indices
    off = [chart.exponents_of(g) + (0,)
           for gi, g in enumerate(chart.monoid.generators) if gi not in on]
    c = chart.codim
    return (stratum.equations[:c] + tuple({e: 1} for e in off)
            + stratum.equations[-1:])


def _built(chart, max_order, budgets):
    """(stratum, m) of every stratum presentation analyze builds, its base
    presentations (m = 0) included; the open row's source, the one with
    constraints, is no stratum."""
    built = []
    jets = analyzer.stratum_jet_presentation

    def jets_recording(stratum, m, budgets=None):
        if not stratum.constraints:
            built.append((stratum, m))
        return jets(stratum, m, budgets)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "stratum_jet_presentation", jets_recording)
        try:
            analyze(chart, AnalysisConfig(max_order=max_order,
                                          budgets=budgets))
        except LogjetError:     # cone2_bare: after its base dimensions
            pass
    return built


def test_the_corpus_has_fifteen_log_charts():
    assert len(LOG_CHARTS) == 15


@pytest.mark.parametrize("name", LOG_CHARTS)
def test_restoring_dropped_monomials_keeps_every_reduced_basis(name):
    chart, options = load_chart(BENCH_CHARTS / name)
    built = _built(chart, 1 if name.startswith("n5") else 2,
                   options.budgets)
    assert built
    dropped = 0
    for stratum, m in built:
        full = _restored(chart, stratum)
        dropped += len(full) - len(stratum.equations)
        pres = stratum_jet_presentation(stratum, m)
        restored = stratum_jet_presentation(StratumPresentation(
            stratum.face, stratum.index, stratum.variables, full), m)
        assert groebner_basis(pres).basis == groebner_basis(restored).basis
    # only the cone and conifold charts have a monoid generator whose
    # cleared monomial is a multiple of another's
    assert (dropped > 0) == name.startswith(("cone", "conifold"))
