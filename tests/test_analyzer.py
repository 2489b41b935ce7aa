import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from logjet import (EMPTY, AffineMonoid, AnalysisConfig, Budgets, Chart,
                    analyze, dimension_of, emit_report, fp_count_points,
                    load_chart)
from logjet import analyzer, dimension, strata
from logjet.analyzer import open_part_jet_presentation
from logjet.errors import LogjetError, ResourceLimitError
from logjet.strata import stratify, stratum_jet_presentation

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


@pytest.mark.parametrize("mode, source, text", [
    ("log", (0, 1), "8 variables exceeds the Groebner bound 7 "
                    "(J_1 of stratum l=1 (0, 1))"),
    ("log", None, "8 variables exceeds the Groebner bound 7 "
                  "(J_1 over singular locus of the open stratum)"),
    ("ordinary", None, "6 variables exceeds the Groebner bound 5 "
                       "(J_1 over singular locus of the open stratum)"),
    ("ordinary", "lct", "lct at order 1 skipped: 6 variables exceeds the "
                        "Groebner bound 5 (J_1 of chart equations)"),
], ids=["stratum", "log_open", "ordinary_open", "lct_note"])
def test_a_budget_error_names_its_row_source(a1_charts, mode, source, text):
    """Every row source has one provenance, which a tripped budget quotes:
    with the variable bound one below the order-1 presentations (w and
    its jet make the log ones 8 variables, the ordinary ones have 6), each
    row is UNKNOWN with its source's text, and so is the lct note."""
    chart = a1_charts[0] if mode == "log" else a1_charts[1]
    budgets = Budgets(max_groebner_vars=7 if mode == "log" else 5)
    report = analyze(chart, AnalysisConfig(max_order=1, budgets=budgets))
    texts = {r.face: r.error for r in report.rows}
    texts["lct"] = "\n".join(report.notes)
    assert texts[source] == text


def test_du_val_point_in_torus_has_no_obstruction(a1_charts):
    """A1 is canonical, so its jet schemes are irreducible (Mustata)."""
    report = analyze(a1_charts[0], AnalysisConfig(max_order=1))
    assert report.verdict == "NO_OBSTRUCTION_UP_TO_M"
    assert report.witness is None
    assert [(r.kind, r.status) for r in report.rows
            if r.kind == "open"] == [("open", "OK")]


def test_an_lct_run_over_the_work_bound_is_skipped(monkeypatch):
    """a2's J_3 swells past a work bound of 100000; its open row still
    decides, so only the lct estimate at order 3 is lost."""
    monkeypatch.setattr(dimension, "MAX_GROEBNER_WORK", 100_000)
    a2, _options = load_chart(BENCH_CHARTS / "a2.json")
    report = analyze(a2, AnalysisConfig(max_order=3))
    assert report.verdict == "NO_OBSTRUCTION_UP_TO_M"
    assert [(r.m, r.dim_jets, r.status) for r in report.rows] == [
        (1, 3, "OK"), (2, 5, "OK"), (3, 7, "OK")]
    assert [(r.m, r.dim_jets) for r in report.lct_rows] == [(1, 4), (2, 6)]
    assert report.notes == (
        "lct at order 3 skipped: Groebner work bound 100000 term "
        "operations exceeded (J_3 of chart equations)",)


def test_an_fp_recount_over_the_node_bound_leaves_the_witness_standing(
        monkeypatch):
    """The cusp's order-1 witness counts its 10201 points over F_101 in 3
    search nodes.  Under a bound of 2 the count raises, and the witness,
    which the exact dimension found, stands unconfirmed."""
    cusp, _options = load_chart(BENCH_CHARTS / "cusp.json")
    pres = open_part_jet_presentation(cusp, 1)
    assert fp_count_points(pres, 101) == 10201
    monkeypatch.setattr(dimension, "MAX_FP_NODES", 2)
    with pytest.raises(ResourceLimitError, match="F_p node bound 2 exceeded"):
        fp_count_points(pres, 101)
    report = analyze(cusp, AnalysisConfig(max_order=1))
    assert (report.verdict, report.witness) == ("REDUCIBLE", (0, 1))
    assert report.witness_confirmation.confirmed is None
    assert report.witness_confirmation.note == (
        "fp check unavailable: F_p node bound 2 exceeded")


def hyperplane_chart(n):
    """x1 + ... + xn = 1 on N^n."""
    return Chart.build(monoid=AffineMonoid(n, [
        tuple(int(i == j) for j in range(n)) for i in range(n)]),
        equations=[" + ".join(f"x{i}" for i in range(1, n + 1)) + " - 1"])


@pytest.mark.parametrize("n", [7, 8])
def test_a_hyperplane_past_rank_six_decides(n):
    """With no rank cap, the hyperplane on N^7 and N^8 decides at m = 1:
    the C(n, l) strata of each 0 < l < n are smooth of dimension n - 1 - l,
    so their jets have dimension (n - 1 - l)(m + 1); the open row and the
    stratum l = n, the origin, are EMPTY."""
    report = analyze(hyperplane_chart(n), AnalysisConfig(max_order=1))
    assert report.verdict == "NO_OBSTRUCTION_UP_TO_M"
    assert sorted((r.l, r.dim_jets) for r in report.rows
                  if r.status != "EMPTY") == sorted(
        (l, (n - 1 - l) * 2) for l in range(1, n)
        for _face in range(math.comb(n, l)))
    assert sorted((r.kind, r.l) for r in report.rows
                  if r.status == "EMPTY") == [("open", 0), ("stratum", n)]


@pytest.mark.parametrize("exponent, dims", [(1000, (2, 3)),
                                            (10 ** 9, None)])
def test_a_high_exponent_decides_or_trips_the_work_bound(exponent, dims):
    """x1^1000 - x2 keeps its jet dimensions; x1^(10^9) - x2 is refused
    at once, before its lead's index columns are built."""
    chart = Chart.build(ambient_rank=2, equations=[f"x1^{exponent} - x2"])
    start = time.perf_counter()
    if dims is None:
        with pytest.raises(ResourceLimitError, match="Groebner work bound"):
            analyze(chart, AnalysisConfig(max_order=2))
    else:
        report = analyze(chart, AnalysisConfig(max_order=2))
        assert [r.status for r in report.rows] == ["EMPTY", "EMPTY"]
        assert tuple(r.dim_jets for r in report.lct_rows) == dims
    assert time.perf_counter() - start < 1


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
    assert [(r.l, r.face, r.dim_jets) for r in report.rows
            if r.status == "VIOLATED"] == [(1, (1,), 1)]
    wc = report.witness_confirmation
    assert wc.confirmed is True
    assert wc.counts == {101: 101, 103: 103, 107: 107}


@pytest.mark.parametrize("equation, x0_nonempty", [
    ("x1", False), ("x1*(x2-1)", True)])
def test_assumption_failure_is_not_canonical_iff_x0_is_nonempty(
        equation, x0_nonempty):
    """x1 = 0 on N^2 lies in the boundary: its stratum l = 1 has
    codimension 0 and the open stratum is empty, so nothing follows.  Adding
    the component x2 = 1 makes the open stratum nonempty, which forces
    reducible log jet schemes."""
    chart = Chart.build(monoid=AffineMonoid(2, [(1, 0), (0, 1)]),
                        equations=[equation])
    report = analyze(chart, AnalysisConfig(max_order=1))
    assert report.verdict == "ASSUMPTION_FAIL" and report.rows == ()
    assert report.assumption.x0_nonempty is x0_nonempty
    assert report.not_canonical is x0_nonempty


BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"


def _analyzed(name, max_order):
    chart, options = load_chart(BENCH_CHARTS / name)
    return chart, analyze(chart, AnalysisConfig(
        max_order=max_order, budgets=options.budgets))


def _row_status(report, m):
    return {(r.l, r.face): r.status for r in report.rows if r.m == m}


@pytest.mark.parametrize("name, empty_rows", [
    ("n3_hyperplane.json", [(3, ())]),
    ("n3_quadric.json", [(2, (0,)), (2, (1,)), (3, ())]),
])
def test_empty_sources_are_answered_past_the_variable_cap(name, empty_rows):
    """At m = 4 these presentations have 20 variables, over the cap of 18;
    the strata are empty at order 0 and the open part at m = 1, so their
    rows are EMPTY.  The nonempty strata stay UNKNOWN, so the verdict stays
    INCONCLUSIVE."""
    _chart, report = _analyzed(name, 4)
    at4 = _row_status(report, 4)
    for key in empty_rows + [(0, None)]:
        assert at4[key] == "EMPTY"
    assert "UNKNOWN" in at4.values()
    assert report.verdict == "INCONCLUSIVE"


def _recording(monkeypatch):
    """Patch the analyzer's presentation builder to record (source, m) of
    every presentation it builds at m >= 1, the base presentations (m = 0)
    being no rows.  The source is "open" for the open row's, the one with
    constraints, "X" for an ordinary chart's lct order, else the face."""
    built = []
    build = analyzer.stratum_jet_presentation

    def recording(source, m, budgets=None):
        if source.constraints:
            key = "open"
        elif source.face is None:
            key = "X"
        else:
            key = source.face.generator_indices
        if m:
            built.append((key, m))
        return build(source, m, budgets)

    monkeypatch.setattr(analyzer, "stratum_jet_presentation", recording)
    return built


def test_an_empty_stratum_is_never_built(monkeypatch):
    built = _recording(monkeypatch)
    _chart, report = _analyzed("n3_hyperplane.json", 2)
    assert report.verdict == "NO_OBSTRUCTION_UP_TO_M"
    assert not any(face == () for face, _m in built)
    assert [key for key in built if key[0] == "open"] == [("open", 1)]
    assert all(_row_status(report, m)[(3, ())] == "EMPTY"
               for m in (1, 2))


@pytest.mark.parametrize("name", sorted(
    p.name for p in BENCH_CHARTS.glob("*.json") if p.name != "cone2_bare.json"))
def test_rows_answered_without_a_build_are_empty(monkeypatch, name):
    """Every row answered EMPTY without building its presentation reads
    EMPTY when its own presentation is built and measured.  Rank-5 strata
    take seconds each at m = 2, so that chart stops at m = 1."""
    built = _recording(monkeypatch)
    chart, report = _analyzed(name, 2 if "n5" not in name else 1)
    monkeypatch.undo()
    by_face = {s.face.generator_indices: s
               for s in stratify(chart)} if chart.monoid else {}
    for r in report.rows:
        if r.status == "UNKNOWN":       # a budget tripped, built or not
            continue
        if r.kind == "stratum":
            s = by_face[r.face]
            if (r.face, r.m) in built:
                continue
            pres = stratum_jet_presentation(s, r.m)
        elif ("open", r.m) in built:
            continue
        else:
            pres = open_part_jet_presentation(chart, r.m)
        assert r.status == "EMPTY"
        assert dimension_of(pres).dimension == EMPTY


def test_the_empty_minor_is_one():
    """The 0 x 0 determinant is 1: no equation (c = 0) gives the single
    Jacobian minor 1."""
    assert strata._jacobian_minors([], 2) == [{(0, 0): 1}]


def test_a_chart_with_no_equation_raises_before_any_row(monkeypatch):
    """A chart with no equation has no open-part check.  strata.open_part
    raises, and analyze builds the open source before its first row, so
    cone2_bare makes one Groebner run per face, for the base dimensions,
    and none for a row."""
    message = "^open-part check needs at least one equation$"
    bare = Chart.build(monoid=AffineMonoid(2, [(1, 0), (0, 1)]),
                       equations=[])
    with pytest.raises(LogjetError, match=message):
        strata.open_part(bare)
    with pytest.raises(LogjetError, match=message):
        open_part_jet_presentation(bare, 1)

    chart = load_chart(BENCH_CHARTS / "cone2_bare.json")[0]
    runs = []
    groebner_basis = dimension.groebner_basis

    def counting(pres, budgets=None):
        runs.append(pres.provenance)
        return groebner_basis(pres, budgets)

    monkeypatch.setattr(dimension, "groebner_basis", counting)
    with pytest.raises(LogjetError, match=message):
        analyze(chart, AnalysisConfig(max_order=1))
    assert len(runs) == len(stratify(chart)) == 4


def test_analysis_never_reduces_a_basis(monkeypatch):
    """A dimension reads only the minimal leads: with the final
    inter-reduction made to raise, untraced analyses (an F_p witness
    recheck and a budget-tripping row among them) give the same reports."""
    entries = [("a1.json", 2), ("cusp.json", 2), ("cone3_hyperplane.json", 1),
               ("conifold_hyperplane.json", 1),
               ("n2_hyperplane_pairs8.json", 3)]

    def reports():
        return [emit_report(_analyzed(name, m)[1], fmt)
                for name, m in entries for fmt in ("table", "json")]

    before = reports()
    assert "REDUCIBLE" in before[2] and "INCONCLUSIVE" in before[8]

    def refuse(_index):
        raise AssertionError("a Groebner basis reduced in the analysis path")

    monkeypatch.setattr(dimension, "_reduced_basis", refuse)
    assert reports() == before


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: basis-coordinate strata clear x1*x2*x3^-1 - 2 and "
    "its localization to 0 = 0, so w becomes free; orbit coordinates fix "
    "it"))
def test_t_type_conifold_passes_assumption_1():
    """t = 2 on the conifold uv = st, t = chi^(1,1,-1) = x1*x2*x3^-1: X is
    {uv = 2s}, a plane.  It meets the two facets through t in the lines
    u = s = 0 and v = s = 0, the ray of t in one point, and misses the
    vertex, where t = 0.  So dim X_1, X_2, X_3 = 1, 0, EMPTY: every
    stratum has codimension l, and Assumption 1 holds."""
    conifold = load_chart(BENCH_CHARTS / "conifold_hyperplane.json")[0]
    chart = Chart.build(monoid=conifold.monoid,
                        equations=["x1*x2*x3^-1 - 2"])
    report = analyze(chart, AnalysisConfig(max_order=1))
    assert [(r.index, r.dim) for r in report.assumption.rows] == [
        (0, 2), (1, 1), (2, 0), (3, EMPTY)]
    assert report.assumption.passed
