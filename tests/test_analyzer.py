from fractions import Fraction

import pytest

from logjet import AffineMonoid, AnalysisConfig, Chart, analyze, dimension_of
from logjet.analyzer import open_part_jet_presentation
from logjet.report import report_from_dict, report_to_dict

A1 = "(x1-1)^2 + (x2-1)^2 + (x3-1)^2"


@pytest.fixture(scope="module")
def a1_charts():
    """An A1 point inside the torus, as a log chart on N^3 and as an
    ordinary chart on A^3."""
    log = Chart.build(monoid=AffineMonoid(3, [(1, 0, 0), (0, 1, 0),
                                              (0, 0, 1)]),
                      equations=[A1])
    return log, Chart.build(ambient_rank=3, equations=[A1])


def test_log_open_row_matches_ordinary_chart(a1_charts):
    """The jetted localization fixes w and its jets, so the open row of a
    log chart measures the same jets as the ordinary chart."""
    log, ordinary = a1_charts
    for m, expected in ((1, 3), (2, 5)):
        assert dimension_of(
            open_part_jet_presentation(ordinary, m)).dimension == expected
        assert dimension_of(
            open_part_jet_presentation(log, m)).dimension == expected


def test_du_val_point_in_torus_has_no_obstruction(a1_charts):
    """A1 is canonical, so its jet schemes are irreducible (Mustata)."""
    report = analyze(a1_charts[0], AnalysisConfig(max_order=1))
    assert report.verdict == "NO_OBSTRUCTION_UP_TO_M"
    assert report.witness is None
    assert [(r.kind, r.status) for r in report.rows
            if r.kind == "open"] == [("open", "OK")]


def test_best_lct_estimate_is_the_smallest():
    """Each estimate n - dim J_m/(m+1) bounds the lct from above (Mustata
    2002), so the tightest is the smallest: x1^2 on A^1 has lct 1/2, reached
    at m = 1 and m = 3, while m = 2 gives 2/3."""
    chart = Chart.build(ambient_rank=1, equations=["x1^2"])
    report = analyze(chart, AnalysisConfig(max_order=3))
    assert [(r.m, r.value, r.best) for r in report.lct_rows] == [
        (1, Fraction(1, 2), True), (2, Fraction(2, 3), False),
        (3, Fraction(1, 2), True)]


def test_witness_on_a_stratum_row_is_rechecked_on_its_presentation():
    """On N^2, x1 + (x2-1)^2 meets the stratum x1 = 0, x2 invertible in the
    double point (x2-1)^2, whose order-1 jets have dimension 1 = 2 - l."""
    chart = Chart.build(monoid=AffineMonoid(2, [(1, 0), (0, 1)]),
                        equations=["x1 + (x2-1)^2"])
    report = analyze(chart, AnalysisConfig(max_order=1))
    assert report.verdict == "REDUCIBLE" and report.witness == (1, 1)
    assert [(r.l, r.note, r.dim_jets) for r in report.rows
            if r.status == "VIOLATED"] == [(1, "face (1,)", 1)]
    wc = report.witness_confirmation
    assert wc.confirmed is True
    assert wc.counts == {101: 101, 103: 103, 107: 107}
    assert report_from_dict(report_to_dict(report)) == report
