"""Reports survive the JSON round trip and render the same bytes after it."""

import json
from pathlib import Path

import pytest

from logjet.analyzer import AnalysisConfig, analyze
from logjet.chartfile import load_chart
from logjet.dimension import Budgets
from logjet.report import emit_report, report_from_dict, report_to_dict

BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"


def analyzed(name, max_order):
    chart, options = load_chart(BENCH_CHARTS / f"{name}.json")
    return analyze(chart, AnalysisConfig(
        max_order=max_order, budgets=options.budgets or Budgets()))


CASES = {
    "n2-hyperplane-m2": ("n2_hyperplane", 2, "NO_OBSTRUCTION_UP_TO_M"),
    "cusp-m1": ("cusp", 1, "REDUCIBLE"),
    "n2-hyperplane-pairs8-m3": ("n2_hyperplane_pairs8", 3, "INCONCLUSIVE"),
}


@pytest.fixture(scope="module", params=list(CASES))
def report(request):
    name, max_order, verdict = CASES[request.param]
    result = analyzed(name, max_order)
    assert result.verdict == verdict
    return result


def test_cusp_report_carries_a_confirmed_witness():
    report = analyzed("cusp", 1)
    assert report.witness == (0, 1) and report.lct_rows
    wc = report.witness_confirmation
    assert wc.attempted and wc.confirmed
    assert sorted(wc.counts) == [101, 103, 107]


def test_pair_budget_report_has_unknown_rows():
    rows = analyzed("n2_hyperplane_pairs8", 3).rows
    unknown = [r for r in rows if r.status == "UNKNOWN"]
    assert unknown and all(r.dim_jets is None for r in unknown)


def test_dict_round_trip(report):
    assert report_from_dict(report_to_dict(report)) == report


def test_json_text_round_trip_renders_the_same_bytes(report):
    rebuilt = report_from_dict(json.loads(emit_report(report, "json")))
    assert rebuilt == report
    for fmt in ("table", "json"):
        assert emit_report(rebuilt, fmt) == emit_report(report, fmt)


def test_unknown_schema_is_refused():
    doc = dict(report_to_dict(analyzed("n2_hyperplane", 1)),
               schema="logjet-report/0")
    with pytest.raises(ValueError):
        report_from_dict(doc)
