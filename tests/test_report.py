"""Reports survive the JSON round trip and render the same bytes after it."""

import hashlib
import json
from pathlib import Path

import pytest

from logjet.analyzer import AnalysisConfig, analyze
from logjet.chartfile import load_chart
from logjet.dimension import Budgets
from logjet.errors import LogjetError
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


# sha256 of the table and JSON reports of every chart-intake entry of the
# benchmark (each at max order 1); a report.py or analyzer change that moves
# one byte of a report fails here
PINNED = {
    "cone2_hyperplane": (
        "9effee39b192cbb62bc233ffd479b14445394212fee2f28ee8bdc56a0e21c1e4",
        "41be248284e4332ee2b405d54ee2e7afdd164bbc1da2721d30da2d64f1581a49"),
    "cone3_hyperplane": (
        "2ebe3d91a25155dcc445919c249aac96fad55b72e104772351a03e03365affa4",
        "461e943fd03c52825840a615f1b724cfc71cea604d7bf624466fe6fa7afb0f98"),
    "cone4_hyperplane": (
        "ada4693639ca83f1ef3fb876458cf0ed19ccc70ac8f6874fe3977b8230e79c18",
        "9858da9ecf09b9ddf9be16b3204c77353f16cfb638f660fda51a20e640a13dd6"),
    "cone5_hyperplane": (
        "7c2496053c8602ae7aaa2f4212257ff9b5136a2bc01e804cf52edbccfdf4732d",
        "4b6f876d1254afa294a4ae0204f09b06ea5570449516ec8fd68f6d35a3251c06"),
    "cone6_hyperplane": (
        "3f58b8b51135bea351705f8956eea494173c6b10e3b5da683c252ed4dfd167bc",
        "9429bd4d164649ecca3bb8bc8131c37e09ddb15650cb13d9dfe7c561a63fa413"),
    "cone7_hyperplane": (
        "2094197a074bb54be2ecc5a3653fdcd777a1273e9706aaf088bfdd20502bb73d",
        "b3ab99c0d585ed01af030467265cee7b562c30f35de7033dce3aa4084104f9fb"),
    "conifold_hyperplane": (
        "46d3dc70bdf9d00e11b9a433b83c50793bf81ec0102a0441b8d2184c98fe1bf9",
        "bf15a42162abae586b50299a99e0bdb87b3801e15e3eba8a4bdfff6db0d77b48"),
    "n2_binomial": (
        "33413c03c81fd2baa5fb1b9f4498ec46a3c99a473da35b84a99012367749d7ce",
        "ccf9fa6cbd427d88a06f5dc99306389a862c6a5d506f61c0cfc9c7a5b59e08ae"),
    "n3_binomial": (
        "e4c17fde6fb6079654a3875e40b8107c620e2786a5f285899c718f3df6d5d456",
        "687863aa8b63bc0f0706a85c21cc9bc9bb28dfb29c80dfbba80e6d1ea1ff6260"),
    "cone2_bare": "open-part check needs at least one equation",
    "a1": (
        "ee4d4000b64a822955a8ca1fac7ab781832a7cedcae56f75e44d7c3df069ea80",
        "b093009e383b2b68d593ab17fe090bc4630798b022203c21bc8f582a51e9d538"),
    "cusp": (
        "913fa69c48b9b55cfc4260a5a120c8953c29e8050d027f4798c7fd6011b7b49d",
        "f4ca672d86cfcaf31d431ae970a15160563c5be2d7575bf7ceb658bbe9e77944"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_report_bytes_are_pinned(name):
    pinned = PINNED[name]
    if isinstance(pinned, str):
        with pytest.raises(LogjetError) as info:
            analyzed(name, 1)
        assert str(info.value) == pinned
        return
    report = analyzed(name, 1)
    assert tuple(hashlib.sha256(emit_report(report, fmt).encode()).hexdigest()
                 for fmt in ("table", "json")) == pinned
