"""analyze on complete intersections of codimension 2: two equations, in
A^4, A^5 and on N^4; on products with an a1 or a2 factor; and the gate
that refuses a chart that is no complete intersection.

Every other analyzer test has at most one equation, so these are the only
ones where the Jacobian minors are 2 x 2 and the strata carry two chart
equations each.  The products are checked against the product rule
J_m(Y x Z) = J_m(Y) x J_m(Z), Sing(Y x Z) = Sing Y x Z u Y x Sing Z, with
the factors' dimensions from bench/references.json.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from logjet import EMPTY, AffineMonoid, AnalysisConfig, Chart, analyze
from logjet.cli import main
from logjet.errors import CompleteIntersectionError

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "references.json")
    .read_text(encoding="utf-8"))

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


def _reference(name):
    """m -> (dim J_m, dim of the jets over the singular locus) of an
    ordinary corpus chart: its lct rows and its open rows."""
    ref = REFERENCES[f"{name}.json"]
    over_sing = {r["m"]: r["dim"] for r in ref["rows"] if r["kind"] == "open"}
    jets = {r["m"]: r["dim"] for r in ref["lct"]}
    return lambda m: (jets[m], over_sing[m])


def _line(m):
    """A^1: J_m is A^(m+1), and the singular locus is empty."""
    return m + 1, None


def _product(factors, m):
    """(dim J_m, dim of the jets over the singular locus) of a product: the
    jets over Sing Y x Z u Y x Sing Z are the larger of the two products."""
    dims = [factor(m) for factor in factors]
    jets = sum(j for j, _over in dims)
    over = [jets - j + s for j, s in dims if s is not None]
    return jets, max(over, default=EMPTY)


@pytest.mark.parametrize("n, equations, factors, max_order", [
    (4, ["x1^2 + x2^2 + x3^2"], (_reference("a1"), _line), 2),
    (5, ["x1^2 + x2^2 + x3^2", "x4^2 - x5^3"],
     (_reference("a1"), _reference("cusp")), 1),
    (4, ["x1^2 + x2^2 + x3^3"], (_reference("a2"), _line), 2),
    (5, ["x1^2 + x2^2 + x3^3", "x4^2 - x5^3"],
     (_reference("a2"), _reference("cusp")), 1),
], ids=["a1 x A1", "a1 x cusp", "a2 x A1", "a2 x cusp"])
def test_products_follow_the_product_rule(n, equations, factors, max_order):
    """a1 x A^1 in A^4 (d = 3): open rows 3 + 2 = 5 and 5 + 3 = 8 < 3(m+1),
    lct rows 4 + 2 and 6 + 3.  a1 x cusp in A^5 (c = 2, d = 3) at m = 1:
    the jets over a1 x Sing(cusp) have 4 + 2 = 6 >= 3 * 2, so it is
    reducible there, as the cusp is.  a2 has the same dimensions as a1 at
    m <= 2, so a2 x A^1 has open rows 5 and 8 and lct rows 6 and 9, and
    a2 x cusp has open row 6 at m = 1 and is reducible."""
    report = analyze(Chart.build(ambient_rank=n, equations=equations),
                     AnalysisConfig(max_order=max_order))
    d = n - len(equations)
    assert report.dim_x == d
    expected_rows, expected_lct = [], []
    for m in range(1, max_order + 1):
        jets, over = _product(factors, m)
        status = "OK" if over < d * (m + 1) else "VIOLATED"
        expected_rows.append((0, m, over, status))
        expected_lct.append((m, jets, n - Fraction(jets, m + 1)))
    assert [(r.l, r.m, r.dim_jets, r.status)
            for r in report.rows] == expected_rows
    assert [(r.m, r.dim_jets, r.value)
            for r in report.lct_rows] == expected_lct
    violated = [r for r in report.rows if r.status == "VIOLATED"]
    assert report.verdict == ("REDUCIBLE" if violated
                              else "NO_OBSTRUCTION_UP_TO_M")


@pytest.mark.parametrize("equations, message", [
    (["x1", "x1"], "not a complete intersection: dim X = 1, expected "
                   "2 - 2 = 0"),
    (["x1", "x1 - 1"], "the chart cuts out an empty scheme"),
], ids=["repeated-equation", "empty-scheme"])
def test_the_complete_intersection_gate(tmp_path, capsys, equations,
                                        message):
    """Two equations in A^2 must cut out a point: x1 = x1 = 0 is a line,
    and x1 = 0 = x1 - 1 is empty.  analyze refuses both, and the CLI
    exits 1 with the same text."""
    with pytest.raises(CompleteIntersectionError) as err:
        analyze(Chart.build(ambient_rank=2, equations=equations))
    assert str(err.value) == message
    path = tmp_path / "chart.json"
    path.write_text(json.dumps({"ambient_rank": 2, "equations": equations}))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("",
                                            f"logjet: error: {message}\n")
