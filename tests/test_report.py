"""Reports render to pinned bytes, and each row carries its face.

A report is written, never read back: the pins below hold the bytes of
the table and JSON of every benchmark workload entry, so a change to
analyzer.py or report.py that moves one byte fails here.
"""

import hashlib
import json
import sys
from functools import cache
from pathlib import Path

import pytest

from logjet.analyzer import AnalysisConfig, analyze
from logjet.chartfile import load_chart
from logjet.errors import LogjetError
from logjet.report import emit_report, report_to_dict

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import corpus  # noqa: E402

BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"


@cache
def analyzed(name, max_order):
    chart, options = load_chart(BENCH_CHARTS / f"{name}.json")
    return analyze(chart, AnalysisConfig(
        max_order=max_order, budgets=options.budgets))


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
    assert wc.confirmed
    assert sorted(wc.counts) == [101, 103, 107]


def test_pair_budget_report_has_unknown_rows():
    """The UNKNOWN rows keep their face; their note is the budget error."""
    rows = analyzed("n2_hyperplane_pairs8", 3).rows
    unknown = [r for r in rows if r.status == "UNKNOWN"]
    assert [(r.l, r.m, r.face) for r in unknown] == [(1, 2, (1,)),
                                                     (1, 3, (1,))]
    assert all(r.dim_jets is None for r in unknown)
    assert [r.note for r in unknown] == [
        f"S-pair budget 8 exceeded (J_{m} of stratum l=1 (1,))"
        for m in (2, 3)]


def test_json_text_round_trip_renders_the_same_bytes(report):
    """The JSON text is exactly the report's dict: nothing in it needs an
    encoder, and parsing it back gives the same document."""
    text = emit_report(report, "json")
    assert json.loads(text) == report_to_dict(report)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


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


# sha256 of the table and JSON reports of every log-strata and ordinary-jets
# entry of the benchmark, each at its workload's max order: these hold
# UNKNOWN rows with their budget errors, rows answered EMPTY at m > 1, and
# the ambient lct rows of ordinary charts
PINNED_AT_MAX_ORDER = {
    ("n2_hyperplane", 4): (
        "40636ba948db890e390a6c6e8d14e1bab43709b3fa979f3f5b6a49e7f330e9a9",
        "34280d5e379699d5e3173af9fff0a0c0668261f9924ff7174c3fb4d46b226fbd"),
    ("cone2_hyperplane", 4): (
        "54404b2de4adddfa15876f1944b7ce9a2a8771b0ff234b1292be470f6041bedc",
        "547099cfb252402e7a8945864f80cc7de6558d73485a71239a71dc26ad83a10c"),
    ("n3_hyperplane", 4): (
        "028c379496a5acde3b6be1c4b120f7eb0b30d757d561e74ec91497fce228ce8a",
        "32cb270bee821c4a508b29182833dccdd8f5ce9a3579b4463d68a67c05f221d8"),
    ("n3_quadric", 4): (
        "e222694b7a8132a7d7949f82ea4617c475c049a11440c0792a10f0b969098abb",
        "ada416999821cca8ad9ad45b55a4447d1a08badb2a52820e879a3d9bfd6a054b"),
    ("conifold_hyperplane", 2): (
        "f5808dbafda0960359db497565d66e6e31c9c0ce1bca567bf09399aeb77f2afe",
        "526b8a0f3a7a5be7f0a02b2919536c5760718bb15647a8f369775d765b3efffc"),
    ("n5_hyperplane", 1): (
        "51cb8d8b0f645c456c96869274113922fd78abc9b1b01ff479968d66d103825d",
        "00ef01cfad0721d64a56b25c5fa3c42ec524ca1f46b9fded0af00ec74de8a43d"),
    ("n2_hyperplane_pairs8", 3): (
        "25fb7b904cf98591050cfccd15b89b493a3eefceac05d8256a48f9b48c44fff7",
        "9e986e03ef1755e2495b0e99123c1a4767a5432488e0fffcb4e6b97e04413c4a"),
    ("a1", 4): (
        "54b5d94b396fdc5ddab2399b02db2db5f31af6d1b9ce950892f9d1166527ff47",
        "0f1fa1242081c803d09cb9e0660763b9c50bfc6f0b1692353fc9b38275f38e33"),
    ("a2", 2): (
        "65196ed1d757aaf4aedf1ace1fe03d068801648bfb0b1fedde57ef2a97f5fa81",
        "263bdb1371a20a4f190424fd873f264bfda833b92890f90adad8c018ab09fc67"),
    ("cusp", 4): (
        "d15acb5381db6011beb4a9239af693e6e138f49567ed2eb608fba4fedf19762c",
        "1373ef21857e9b5fbc027e35b028f7f671413ee04fe5ffc2e950b8ba7e53b7e5"),
}


def test_pins_cover_the_log_and_ordinary_workloads():
    assert sorted(PINNED_AT_MAX_ORDER) == sorted(
        (e.chart.removesuffix(".json"), e.max_order)
        for workload in ("log-strata", "ordinary-jets")
        for e in corpus.WORKLOADS[workload])


@pytest.mark.parametrize("name, max_order", list(PINNED_AT_MAX_ORDER),
                         ids=[f"{n}-m{m}" for n, m in PINNED_AT_MAX_ORDER])
def test_workload_report_bytes_are_pinned(name, max_order):
    report = analyzed(name, max_order)
    assert tuple(hashlib.sha256(emit_report(report, fmt).encode()).hexdigest()
                 for fmt in ("table", "json")) \
        == PINNED_AT_MAX_ORDER[name, max_order]


WORKLOAD_ENTRIES = sorted({(e.chart.removesuffix(".json"), e.max_order)
                           for entries in corpus.WORKLOADS.values()
                           for e in entries} - {("cone2_bare", 1)})


@pytest.mark.parametrize("name, max_order", WORKLOAD_ENTRIES,
                         ids=[f"{n}-m{m}" for n, m in WORKLOAD_ENTRIES])
def test_decided_stratum_rows_print_their_face(name, max_order):
    """bench/corpus.py reads the face of a decided stratum row back from its
    note; the note must print the row's face."""
    for row in analyzed(name, max_order).rows:
        if row.kind == "stratum" and row.status != "UNKNOWN":
            assert corpus.face_of_note(row.note) == row.face
        elif row.kind == "open":
            assert row.face is None
