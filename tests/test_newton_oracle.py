"""analyze against the Newton-polyhedron formula (tests/newton_oracle.py)
on nondegenerate hypersurfaces with an isolated singular point at the
origin: its open rows are the jets over the origin, its lct rows the jets
of X.  The orders are those at which analyze finishes in about a second.
"""

import pytest

from logjet import AnalysisConfig, Chart, analyze, dimension_of
from logjet.strata import (StratumPresentation, stratum_jet_presentation,
                           whole_chart)

from newton_oracle import newton_jet_dim

# (ambient rank, equation, highest order)
NONDEGENERATE = {
    "a1": (3, "x1^2 + x2^2 + x3^2", 3),
    "a2": (3, "x1^2 + x2^2 + x3^3", 2),
    "cusp": (2, "x1^2 - x2^3", 3),
    "A3": (3, "x1^2 + x2^2 + x3^4", 2),
    "D4": (3, "x1^2 + x2^3 + x3^3", 2),
    "E6": (3, "x1^2 + x2^3 + x3^4", 2),
    "A4_curve": (2, "x1^2 - x2^5", 3),
    "E6_curve": (2, "x1^3 - x2^4", 3),
}


def _dims(n, equation, max_order):
    """(open rows, lct rows, newton over the origin, newton) per order."""
    chart = Chart.build(ambient_rank=n, equations=[equation])
    report = analyze(chart, AnalysisConfig(max_order=max_order))
    f = chart.equations[0]
    orders = range(1, max_order + 1)
    return ([r.dim_jets for r in report.rows],
            [r.dim_jets for r in report.lct_rows],
            [newton_jet_dim(f, m, over_origin=True) for m in orders],
            [newton_jet_dim(f, m) for m in orders])


@pytest.mark.parametrize("name", NONDEGENERATE)
def test_analyze_matches_the_newton_formula(name):
    open_rows, lct_rows, over_origin, whole = _dims(*NONDEGENERATE[name])
    assert open_rows == over_origin
    assert lct_rows == whole


def test_the_formula_counts_the_cusp_by_hand():
    """x1^2 - x2^3 at m = 1: a = (1, 1) has phi = 2 > 1, codimension 2,
    so dim J_1 over the origin is 4 - 2 = 2; a = (0, 0) has phi = 0 and
    f_a = f, no monomial, codimension 0 + 2, so dim J_1 = 2 too."""
    f = {(2, 0): 1, (0, 3): -1}
    assert newton_jet_dim(f, 1, over_origin=True) == 2
    assert newton_jet_dim(f, 1) == 2


def test_a_degenerate_equation_is_outside_the_hypothesis():
    """(x1 + x2)^2 + x3^3 is degenerate: its initial form (x1 + x2)^2 is
    singular on the torus, and X is singular along the whole line x1 =
    -x2, x3 = 0.  The formula's jets over the origin, 3 and 5, are then no
    open row: the open row measures the jets over that line, 4 and 6.  The
    jets over the origin itself, x1 = x2 = x3 = 0 as constraints, are 3
    and 5 here."""
    equation = "(x1 + x2)^2 + x3^3"
    open_rows, lct_rows, over_origin, whole = _dims(3, equation, 2)
    assert over_origin == [3, 5]
    assert open_rows == [4, 6]
    assert lct_rows == whole == [4, 6]
    source = whole_chart(Chart.build(ambient_rank=3, equations=[equation]))
    origin = StratumPresentation(
        source.face, source.index, source.variables, source.equations,
        ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}))
    assert [dimension_of(stratum_jet_presentation(origin, m)).dimension
            for m in (1, 2)] == over_origin
