"""analyze on complete intersections of codimension 2: two equations, in
A^4 and on N^4.

Every other analyzer test has at most one equation, so these are the only
ones where the Jacobian minors are 2 x 2 and the strata carry two chart
equations each.
"""

import pytest

from logjet import AffineMonoid, AnalysisConfig, Chart, analyze

N4 = AffineMonoid(4, [tuple(int(i == k) for k in range(4)) for i in range(4)])


def test_cusp_times_cusp_is_reducible_at_order_one():
    """{x1^2 = x2^3} x {x3^2 = x4^3}: the jets over the singular point
    (0, 0, 0, 0) have the dimensions of the cusp's over its own, 2 and 3,
    added: 4 at m = 1 and 6 at m = 2, both >= d(m+1) with d = 2."""
    chart = Chart.build(ambient_rank=4,
                        equations=["x1^2 - x2^3", "x3^2 - x4^3"])
    report = analyze(chart, AnalysisConfig(max_order=2))
    assert report.dim_x == 2
    assert [(r.l, r.m, r.dim_jets, r.status) for r in report.rows] == [
        (0, 1, 4, "VIOLATED"), (0, 2, 6, "VIOLATED")]
    assert report.verdict == "REDUCIBLE"
    assert report.witness == (0, 1)


def test_a_plane_through_a_torus_fixed_line_fails_assumption_one():
    """A general 2-plane through (1, 0, 0, 0): it meets each coordinate
    plane x_i = x_j = 0 in at most a point, but it contains the point
    (1, 0, 0, 0) of the stratum l = 3, whose codimension in X is then
    2 < 3."""
    chart = Chart.build(monoid=N4, equations=[
        "x1 + x2 + 2*x3 + 3*x4 - 1", "x2 - x3 + 5*x4"])
    report = analyze(chart, AnalysisConfig(max_order=1))
    assert report.verdict == "ASSUMPTION_FAIL"
    assert report.rows == ()
    failing = report.assumption.failing
    assert [(r.index, r.dim, r.codim) for r in failing] == [(3, 0, 2)]
    assert dict(failing[0].pieces)[(0,)] == 0
    assert report.assumption.x0_nonempty


@pytest.mark.parametrize("max_order", [1, 2])
def test_two_general_hyperplanes_have_smooth_strata(max_order):
    """Two general hyperplanes cut N^4 in a plane X meeting every torus
    orbit of dimension >= 2 transversally: X_l is smooth of dimension
    n - c - l = 2 - l, so dim J_m(X_l) = (2 - l)(m + 1) for l <= 2, and
    X_l is empty for l > 2."""
    chart = Chart.build(monoid=N4, equations=[
        "x1 + 2*x2 + 3*x3 + 5*x4 - 7", "x1 - x2 + 4*x3 - 2*x4 - 3"])
    report = analyze(chart, AnalysisConfig(max_order=max_order))
    n, c = 4, 2
    strata_rows = [r for r in report.rows if r.kind == "stratum"]
    assert len(strata_rows) == max_order * 15      # 4 + 6 + 4 + 1 faces
    for r in strata_rows:
        if r.l <= n - c:
            assert (r.dim_jets, r.status) == ((n - c - r.l) * (r.m + 1),
                                              "OK")
        else:
            assert (r.dim_jets, r.status) == ("EMPTY", "EMPTY")
    assert report.verdict == "NO_OBSTRUCTION_UP_TO_M"
