import pytest

from logjet import AffineMonoid, AnalysisConfig, Chart, analyze, dimension_of
from logjet.analyzer import open_part_jet_presentation

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
