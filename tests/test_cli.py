import json
from pathlib import Path

import pytest

from logjet.cli import main

CONE = {"format": "logjet-chart/1", "ambient_rank": 2,
        "monoid_generators": [[1, 0], [1, 1], [1, 2]],
        "equations": ["x1 + x2 - 1"]}
N2_HYPERPLANE = {"format": "logjet-chart/1", "ambient_rank": 2,
                 "monoid_generators": [[1, 0], [0, 1]],
                 "equations": ["x1 + x2 - 1"]}
CUSP = {"format": "logjet-chart/1", "ambient_rank": 2,
        "equations": ["x1^2 - x2^3"]}

# (l, face, equations) of `logjet strata` on CONE; variables are x1 x2 w.
CONE_STRATA = (
    (0, [0, 1, 2], ["x1 + x2 - 1", "x2^3*w - 1"]),
    (1, [0], ["x1 + x2 - 1", "x2", "x1^-1*x2^2", "x1*w - 1"]),
    (1, [2], ["x1 + x2 - 1", "x1", "x2", "x1^-1*x2^2*w - 1"]),
    (2, [], ["x1 + x2 - 1", "x1", "x2", "x1^-1*x2^2", "w - 1"]),
)


@pytest.fixture
def chart_file(tmp_path):
    def write(doc):
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)
    return write


def _strata_lines():
    lines = []
    for l, face, eqs in CONE_STRATA:
        lines.append(f"stratum l={l} face generators {tuple(face)}:")
        lines.append("  variables: x1 x2 w")
        lines.extend(f"  equation: {eq}" for eq in eqs)
    return lines


def test_strata_table(chart_file, capsys):
    assert main(["strata", chart_file(CONE)]) == 0
    assert capsys.readouterr().out == "\n".join(_strata_lines()) + "\n"


def test_strata_json(chart_file, capsys):
    assert main(["--format", "json", "strata", chart_file(CONE)]) == 0
    strata = [{"l": l, "face": face, "variables": ["x1", "x2", "w"],
               "equations": eqs} for l, face, eqs in CONE_STRATA]
    expected = {"schema": "logjet-strata/1", "strata": strata,
                "lines": _strata_lines()}
    assert capsys.readouterr().out == json.dumps(
        expected, indent=2, sort_keys=True) + "\n"


def test_dim_of_one_stratum(chart_file, capsys):
    assert main(["dim", "--stratum", "1", "--order", "1",
                 chart_file(CONE)]) == 0
    assert capsys.readouterr().out == (
        "l=1 face (0,): dim = 0 (groebner)\n"
        "l=1 face (2,): dim = EMPTY (groebner)\n")


def test_dim_certificates_through_the_cli(capsys):
    chart = Path(__file__).resolve().parents[1] / "bench" / "charts" / \
        "n3_hyperplane.json"
    assert main(["--verbose", "dim", "--stratum", "1", "--order", "3",
                 str(chart)]) == 0
    assert capsys.readouterr().out == (
        "l=1 face (0, 1): dim = 4 (groebner)\n"
        "  certificate: ('x2', 'x2(1)', 'x2(2)', 'x2(3)')\n"
        "l=1 face (0, 2): dim = 4 (groebner)\n"
        "  certificate: ('x3', 'x3(1)', 'x3(2)', 'x3(3)')\n"
        "l=1 face (1, 2): dim = 4 (groebner)\n"
        "  certificate: ('x3', 'x3(1)', 'x3(2)', 'x3(3)')\n")


@pytest.mark.parametrize("doc, code", [(N2_HYPERPLANE, 0), (CUSP, 10)])
def test_analyze_exit_codes(chart_file, capsys, doc, code):
    assert main(["analyze", "--max-order", "1", chart_file(doc)]) == code
    verdict = "NO_OBSTRUCTION_UP_TO_M" if code == 0 else "REDUCIBLE"
    assert verdict in capsys.readouterr().out


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1
    assert "logjet: error: cannot read" in capsys.readouterr().err


BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"


def test_budget_override_from_the_environment(chart_file, capsys,
                                              monkeypatch):
    """LOGJET_BUDGET=8,40 on the N^2 hyperplane gives the report of the
    chart file that sets {"pairs": 8} itself."""
    monkeypatch.delenv("LOGJET_BUDGET", raising=False)
    pairs8 = str(BENCH_CHARTS / "n2_hyperplane_pairs8.json")
    assert main(["analyze", "--max-order", "3", pairs8]) == 30
    expected = capsys.readouterr().out
    assert "INCONCLUSIVE" in expected
    monkeypatch.setenv("LOGJET_BUDGET", "8,40")
    assert main(["analyze", "--max-order", "3",
                 chart_file(N2_HYPERPLANE)]) == 30
    assert capsys.readouterr().out == expected


def test_malformed_budget_override(chart_file, capsys, monkeypatch):
    monkeypatch.setenv("LOGJET_BUDGET", "8")
    assert main(["analyze", "--max-order", "1",
                 chart_file(N2_HYPERPLANE)]) == 1
    assert "budget override must be 'pairs,degree'" in capsys.readouterr().err


def test_analyze_has_no_method_option(chart_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--method", "fp", chart_file(CUSP)])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --method" in capsys.readouterr().err


@pytest.mark.parametrize("method, line", [
    ("fp", "X: dim = 2 (fp_count)"),
    ("both", "X: dim = 2 (groebner)"),
])
def test_dim_methods(chart_file, capsys, method, line):
    assert main(["dim", "--order", "1", "--method", method,
                 chart_file(CUSP)]) == 0
    assert capsys.readouterr().out == line + "\n"
