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
        "d4d51c8e702d005b50ee74445376b74884d8e610f5cc933998842d5636ae5083"),
    "cone3_hyperplane": (
        "2ebe3d91a25155dcc445919c249aac96fad55b72e104772351a03e03365affa4",
        "b9ff0f328a8ffc0b8b2d36a95a9f43bda9eb6c814492836a699b3eb1c8045d96"),
    "cone4_hyperplane": (
        "ada4693639ca83f1ef3fb876458cf0ed19ccc70ac8f6874fe3977b8230e79c18",
        "f16dd88b4bd6905f98fdabba6d8b183d1ac8063cf7fb9995f1a72a2f7007e4ac"),
    "cone5_hyperplane": (
        "7c2496053c8602ae7aaa2f4212257ff9b5136a2bc01e804cf52edbccfdf4732d",
        "30cae1002d010f2558e1eee57427b159ba531388b9297f67e02dda51fbb0d027"),
    "cone6_hyperplane": (
        "3f58b8b51135bea351705f8956eea494173c6b10e3b5da683c252ed4dfd167bc",
        "19ee76508ad844e7a41866ced8b11d1156eb448fcfc4eb6ff863e02ea6f89355"),
    "cone7_hyperplane": (
        "2094197a074bb54be2ecc5a3653fdcd777a1273e9706aaf088bfdd20502bb73d",
        "50a80fcd622eb90c842a983a29c842ba0995e16845d917ab52faef2fcc38319d"),
    "conifold_hyperplane": (
        "46d3dc70bdf9d00e11b9a433b83c50793bf81ec0102a0441b8d2184c98fe1bf9",
        "c35879eb7cc767e58fd80c0255349b0ec35f28e0857898bac81b0f4b0d6ea978"),
    "n2_binomial": (
        "33413c03c81fd2baa5fb1b9f4498ec46a3c99a473da35b84a99012367749d7ce",
        "e64cd61b85ca6235716f8e62d6fa79151d0c856063cf3189810730b2c1642626"),
    "n3_binomial": (
        "e4c17fde6fb6079654a3875e40b8107c620e2786a5f285899c718f3df6d5d456",
        "b841d9242f5914af98d384c11f240b5670664f6839dd95dc69848a9d96da0106"),
    "cone2_bare": "open-part check needs at least one equation",
    "a1": (
        "ee4d4000b64a822955a8ca1fac7ab781832a7cedcae56f75e44d7c3df069ea80",
        "24c510a7ca2a4be0a2cf2f3d7d6cb6a9b72fa4e000b5ee4bfb066893bcc2769f"),
    "cusp": (
        "913fa69c48b9b55cfc4260a5a120c8953c29e8050d027f4798c7fd6011b7b49d",
        "8db9a517c31b417071de183114a2052ff2ee86aed3cfa7a42e6cb2e23647f4bc"),
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
