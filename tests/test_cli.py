import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from logjet import cli, monoid, strata
from logjet.chartfile import load_chart
from logjet.cli import main
from logjet.parse import render

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
    (1, [0], ["x1 + x2 - 1", "x2", "x1*w - 1"]),
    (1, [2], ["x1 + x2 - 1", "x1", "x2", "x1^-1*x2^2*w - 1"]),
    (2, [], ["x1 + x2 - 1", "x1", "x2", "w - 1"]),
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


def _strata_run(capsys, path):
    """(table, JSON) runs of `logjet strata`: (exit code, stdout, stderr)."""
    runs = []
    for fmt in ("table", "json"):
        code = main(["--format", fmt, "strata", str(path)])
        runs.append((code, *capsys.readouterr()))
    return runs


def _with_dropped_restored(chart, runs):
    """The runs as they were before stratify dropped the non-minimal
    off-face monomials: each stratum lists chi^g for every generator g off
    its face, in generator order, between the chart equations and the
    localization.  Also returns the number of equations restored."""
    (code, _table, err), (_code, out, _err) = runs
    if code:
        return runs, 0
    c = chart.codim
    names = chart.variables + ("w",)
    rendered = [render({chart.exponents_of(g) + (0,): 1}, names)
                for g in chart.monoid.generators]
    payload = json.loads(out)
    lines, restored = [], 0
    for s in payload["strata"]:
        off = [eq for gi, eq in enumerate(rendered) if gi not in s["face"]]
        kept = iter(off)
        assert all(eq in kept for eq in s["equations"][c:-1])
        restored += len(off) - len(s["equations"][c:-1])
        s["equations"][c:-1] = off
        lines.append(f"stratum l={s['l']} face generators "
                     f"{tuple(s['face'])}:")
        lines.append(f"  variables: {' '.join(s['variables'])}")
        lines.extend(f"  equation: {eq}" for eq in s["equations"])
    payload["lines"] = lines
    return [(code, "\n".join(lines) + "\n", err),
            (code, json.dumps(payload, indent=2, sort_keys=True) + "\n",
             err)], restored


# sha256 of `strata` over the 18 corpus charts in name order (exit code,
# stdout and stderr in the table and then the JSON format): as it is, and
# with the dropped monomials restored, which is the output from before
# stratify kept only the minimal off-face monomials.
STRATA_SHA256 = (
    "8ca87d70e9d72c1879866186a6f0c62e08ab9905830eae046d90125cca78aca4",
    "473a820881655f9e1dae2e9c8d1c7e0c7d844fb2f2313721430d562d82bb2d5f",
)


def test_strata_over_the_corpus(capsys):
    now, before = hashlib.sha256(), hashlib.sha256()
    names = sorted(p.name for p in BENCH_CHARTS.glob("*.json"))
    dropped_on = []
    for name in names:
        runs = _strata_run(capsys, BENCH_CHARTS / name)
        restored_runs, restored = _with_dropped_restored(
            load_chart(BENCH_CHARTS / name)[0], runs)
        for digest, rs in ((now, runs), (before, restored_runs)):
            for code, out, err in rs:
                digest.update(f"{name}\n{code}\n{out}\0{err}\0".encode())
        if restored:
            dropped_on.append(name)
    assert len(names) == 18
    assert dropped_on == [name for name in names
                          if name.startswith(("cone", "conifold"))]
    assert (now.hexdigest(), before.hexdigest()) == STRATA_SHA256


def test_dim_of_the_whole_chart(chart_file, capsys):
    assert main(["dim", "--order", "1", chart_file(CUSP)]) == 0
    assert capsys.readouterr().out == "X: dim = 2\n"


def test_dim_of_one_stratum(chart_file, capsys):
    assert main(["dim", "--stratum", "1", "--order", "1",
                 chart_file(CONE)]) == 0
    assert capsys.readouterr().out == (
        "l=1 face (0,): dim = 0\n"
        "l=1 face (2,): dim = EMPTY\n")


@pytest.mark.parametrize("generators, equation", [
    ([[1, 0], [1, 1], [1, 2]], "x1"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]], "x1*x2*x3^-1 - 2"),
], ids=["double_line", "t_conifold"])
def test_dim_refuses_a_log_chart_that_is_not_affine_space(
        chart_file, capsys, generators, equation):
    """Without --stratum, dim jets the equations in A^n with the basis
    coordinates, which is Spec k[P] only when P = N*basis.  x1 on the cone
    <(1,0),(1,1),(1,2)> is Spec k[t,v]/(t^2), whose J_1 has dimension 3,
    not the 2 of x1 = 0 in A^2; on the conifold, t = x1*x2*x3^-1 is
    Laurent in the basis coordinates.  Both are refused, naming
    --stratum."""
    doc = {"format": "logjet-chart/1", "ambient_rank": len(generators[0]),
           "monoid_generators": generators, "equations": [equation]}
    assert main(["dim", "--order", "1", chart_file(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("logjet: error: monoid generator ")
    assert captured.err.endswith(
        "; measure one stratum with --stratum L\n")


@pytest.mark.parametrize("fmt, out", [
    ("table", "X: dim = 4\n  certificate: ('x2', 'x3', 'x2(1)', 'x3(1)')\n"),
    ("json", {"schema": "logjet-dim/1", "order": 1,
              "lines": ["X: dim = 4",
                        "  certificate: ('x2', 'x3', 'x2(1)', 'x3(1)')"],
              "results": [{"stratum": "X", "dimension": 4}]}),
])
def test_dim_of_a_log_chart_on_n3_is_its_affine_chart(capsys, fmt, out):
    """N^3 is N*basis, so Spec k[P] is A^3 and dim measures X there."""
    chart = BENCH_CHARTS / "n3_hyperplane.json"
    assert main(["--format", fmt, "--verbose", "dim", "--order", "1",
                 str(chart)]) == 0
    printed = capsys.readouterr().out
    assert (json.loads(printed) if fmt == "json" else printed) == out


def test_dim_json(chart_file, capsys):
    assert main(["--format", "json", "dim", "--order", "1",
                 chart_file(CUSP)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "schema": "logjet-dim/1", "order": 1, "lines": ["X: dim = 2"],
        "results": [{"stratum": "X", "dimension": 2}]}


@pytest.mark.parametrize("doc, extra", [(CUSP, []),
                                         (CONE, ["--stratum", "1"])])
def test_dim_refuses_a_negative_order(chart_file, capsys, doc, extra):
    assert main(["dim", "--order", "-1", *extra, chart_file(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "jet order must be nonnegative" in captured.err


def test_dim_certificates_through_the_cli(capsys):
    chart = Path(__file__).resolve().parents[1] / "bench" / "charts" / \
        "n3_hyperplane.json"
    assert main(["--verbose", "dim", "--stratum", "1", "--order", "3",
                 str(chart)]) == 0
    # a certificate follows the presentation's variable order, and a
    # stratum presentation lists the jets of w first
    assert capsys.readouterr().out == (
        "l=1 face (0, 1): dim = 4\n"
        "  certificate: ('w(3)', 'w(2)', 'w(1)', 'w')\n"
        "l=1 face (0, 2): dim = 4\n"
        "  certificate: ('w(3)', 'w(2)', 'w(1)', 'w')\n"
        "l=1 face (1, 2): dim = 4\n"
        "  certificate: ('w(3)', 'w(2)', 'w(1)', 'w')\n")


@pytest.mark.parametrize("doc, code", [(N2_HYPERPLANE, 0), (CUSP, 10)])
def test_analyze_exit_codes(chart_file, capsys, doc, code):
    assert main(["analyze", "--max-order", "1", chart_file(doc)]) == code
    verdict = "NO_OBSTRUCTION_UP_TO_M" if code == 0 else "REDUCIBLE"
    assert verdict in capsys.readouterr().out


def test_analyze_refuses_max_order_zero(chart_file, capsys):
    assert main(["analyze", "--max-order", "0", chart_file(CUSP)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "logjet: error: max order must be at least 1\n"


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1
    assert "logjet: error: cannot read" in capsys.readouterr().err


BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"


def test_chart_file_pair_budget_makes_analyze_inconclusive(capsys):
    """The chart file's {"pairs": 8} trips on the l = 1 stratum at m = 2."""
    pairs8 = str(BENCH_CHARTS / "n2_hyperplane_pairs8.json")
    assert main(["analyze", "--max-order", "3", pairs8]) == 30
    out = capsys.readouterr().out
    assert "verdict: INCONCLUSIVE" in out
    assert "UNKNOWN  [S-pair budget 8 exceeded" in out


def test_dim_reports_the_chart_file_pair_budget(capsys):
    args = ["dim", "--stratum", "1", "--order", "3"]
    assert main(args + [str(BENCH_CHARTS / "n2_hyperplane_pairs8.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "S-pair budget 8 exceeded" in captured.err


# `jets --order 2` lines per (chart file, mode)
JETS_LINES = {
    ("a1.json", "ordinary"): [
        "d^0 f_1 = x1^2 + x2^2 + x3^2",
        "d^1 f_1 = 2*x1*x1(1) + 2*x2*x2(1) + 2*x3*x3(1)",
        "d^2 f_1 = 2*x1(1)^2 + 2*x1*x1(2) + 2*x2(1)^2 + 2*x2*x2(2) "
        "+ 2*x3(1)^2 + 2*x3*x3(2)"],
    ("n2_hyperplane.json", "ordinary"): [
        "d^0 f_1 = x1 + x2 - 1",
        "d^1 f_1 = x1(1) + x2(1)",
        "d^2 f_1 = x1(2) + x2(2)"],
    ("n2_hyperplane.json", "log"): [
        "d^0 f_1 = x1 + x2 - 1",
        "d^1 f_1 = x1*u[1,1] + x2*u[2,1]",
        "d^2 f_1 = x1*u[1,2] + x2*u[2,2]"],
}


def _jets_argv(name, mode):
    return (["jets", "--order", "2"] + (["--log"] if mode == "log" else [])
            + [str(BENCH_CHARTS / name)])


@pytest.mark.parametrize("name, mode", JETS_LINES)
def test_jets_table(capsys, name, mode):
    assert main(_jets_argv(name, mode)) == 0
    assert capsys.readouterr().out == "\n".join(JETS_LINES[name, mode]) + "\n"


@pytest.mark.parametrize("name, mode", JETS_LINES)
def test_jets_json(capsys, name, mode):
    assert main(["--format", "json"] + _jets_argv(name, mode)) == 0
    lines = JETS_LINES[name, mode]
    gens = [{"equation": 1, "order": j, "poly": line.split(" = ", 1)[1]}
            for j, line in enumerate(lines)]
    expected = {"schema": "logjet-jets/1", "mode": mode, "order": 2,
                "generators": gens, "lines": lines}
    assert capsys.readouterr().out == json.dumps(
        expected, indent=2, sort_keys=True) + "\n"


def test_jets_log_needs_a_monoid(capsys):
    assert main(_jets_argv("a1.json", "log")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "logjet: error: log jet ideal needs a chart with a monoid\n")


# sha256 of `jets --order 3` per (chart file, mode): exit code, stdout and
# stderr in the table and then the JSON format.  a1, a2 and the cusp have
# no monoid, so their log rows pin the refusal.
JETS_ORDER3_SHA256 = {
    ("a1.json", "ordinary"):
        "c3b6b5d246f0c34069cdd4b65821875c0cc4d5b9c2d43ae0e28cf37b47ceb81f",
    ("a1.json", "log"):
        "9eb189fd484200a63beffc4e736139aeb62c5db6d9f78dee698e523742a3384a",
    ("a2.json", "ordinary"):
        "28f6adefb49ddf370be35760596d302e9102d551d44379f6418672aaaa99e909",
    ("a2.json", "log"):
        "9eb189fd484200a63beffc4e736139aeb62c5db6d9f78dee698e523742a3384a",
    ("cone2_bare.json", "ordinary"):
        "36b430ea36dfa85c3c61e51cf59f2c49865a5b0c238cf35bc46c04f15933b33a",
    ("cone2_bare.json", "log"):
        "7ca917e80f1aa0e013c7c6ef057d9e1b1f9afe35fa668e3ccd759c25bbf7a261",
    ("cone2_hyperplane.json", "ordinary"):
        "764470e351522283bf7179b7f3991a33a836f11cd27ff8e38601b52407972d84",
    ("cone2_hyperplane.json", "log"):
        "8e364948bb65cc9e168a0fba1e1cc9cb929f538d813f23bb5730ad3346615171",
    ("cone3_hyperplane.json", "ordinary"):
        "764470e351522283bf7179b7f3991a33a836f11cd27ff8e38601b52407972d84",
    ("cone3_hyperplane.json", "log"):
        "8e364948bb65cc9e168a0fba1e1cc9cb929f538d813f23bb5730ad3346615171",
    ("cone4_hyperplane.json", "ordinary"):
        "764470e351522283bf7179b7f3991a33a836f11cd27ff8e38601b52407972d84",
    ("cone4_hyperplane.json", "log"):
        "8e364948bb65cc9e168a0fba1e1cc9cb929f538d813f23bb5730ad3346615171",
    ("cone5_hyperplane.json", "ordinary"):
        "764470e351522283bf7179b7f3991a33a836f11cd27ff8e38601b52407972d84",
    ("cone5_hyperplane.json", "log"):
        "8e364948bb65cc9e168a0fba1e1cc9cb929f538d813f23bb5730ad3346615171",
    ("cone6_hyperplane.json", "ordinary"):
        "764470e351522283bf7179b7f3991a33a836f11cd27ff8e38601b52407972d84",
    ("cone6_hyperplane.json", "log"):
        "8e364948bb65cc9e168a0fba1e1cc9cb929f538d813f23bb5730ad3346615171",
    ("cone7_hyperplane.json", "ordinary"):
        "764470e351522283bf7179b7f3991a33a836f11cd27ff8e38601b52407972d84",
    ("cone7_hyperplane.json", "log"):
        "8e364948bb65cc9e168a0fba1e1cc9cb929f538d813f23bb5730ad3346615171",
    ("conifold_hyperplane.json", "ordinary"):
        "10a5cebfc32a23259dc261f36aa51f75a248a17c3e16b73d1eb477b95e88dff9",
    ("conifold_hyperplane.json", "log"):
        "3cbfd5dcaa0ac27834b0ce33b05bf0c37a011c8c1ec3f534ba1184ea07c40746",
    ("cusp.json", "ordinary"):
        "eb5278157a4dfba8bb24df8390213c383701518bdbda793ba7356591300ca357",
    ("cusp.json", "log"):
        "9eb189fd484200a63beffc4e736139aeb62c5db6d9f78dee698e523742a3384a",
    ("n2_binomial.json", "ordinary"):
        "9da400363a05c4d3c95dc5d9a5ac08ab28d3756256c1d872e012e836905bcfd6",
    ("n2_binomial.json", "log"):
        "576cc12df1a4dbbe0628371ca8c9f12d3b8d9b0a60cbcc512bc4ca3e1b816120",
    ("n2_hyperplane.json", "ordinary"):
        "764470e351522283bf7179b7f3991a33a836f11cd27ff8e38601b52407972d84",
    ("n2_hyperplane.json", "log"):
        "8e364948bb65cc9e168a0fba1e1cc9cb929f538d813f23bb5730ad3346615171",
    ("n2_hyperplane_pairs8.json", "ordinary"):
        "764470e351522283bf7179b7f3991a33a836f11cd27ff8e38601b52407972d84",
    ("n2_hyperplane_pairs8.json", "log"):
        "8e364948bb65cc9e168a0fba1e1cc9cb929f538d813f23bb5730ad3346615171",
    ("n3_binomial.json", "ordinary"):
        "9da400363a05c4d3c95dc5d9a5ac08ab28d3756256c1d872e012e836905bcfd6",
    ("n3_binomial.json", "log"):
        "576cc12df1a4dbbe0628371ca8c9f12d3b8d9b0a60cbcc512bc4ca3e1b816120",
    ("n3_hyperplane.json", "ordinary"):
        "10a5cebfc32a23259dc261f36aa51f75a248a17c3e16b73d1eb477b95e88dff9",
    ("n3_hyperplane.json", "log"):
        "3cbfd5dcaa0ac27834b0ce33b05bf0c37a011c8c1ec3f534ba1184ea07c40746",
    ("n3_quadric.json", "ordinary"):
        "aa86c970bbaff830aec9cd4357a40447c955301198e165099f4d449d442f9394",
    ("n3_quadric.json", "log"):
        "2b9e92dadfe9c6875a1481df761bed088de94fec2d677ebae2b3f94144cc2a8f",
    ("n5_hyperplane.json", "ordinary"):
        "0ba0a6232c3dc104df9d2ccd3b50c82bb3ea29fdfd1040468957cef54c405bf8",
    ("n5_hyperplane.json", "log"):
        "9b2a529660ede791f0deb8c432f7e6b738e66b9d2feba620dcd19bbbab247852",
}


@pytest.mark.parametrize("name, mode", JETS_ORDER3_SHA256)
def test_jets_order_three_over_the_corpus(capsys, name, mode):
    digest = hashlib.sha256()
    for fmt in ("table", "json"):
        argv = ["--format", fmt, "jets", "--order", "3"]
        code = main(argv + (["--log"] if mode == "log" else [])
                    + [str(BENCH_CHARTS / name)])
        out, err = capsys.readouterr()
        digest.update(f"{code}\n{out}\0{err}\0".encode())
    assert digest.hexdigest() == JETS_ORDER3_SHA256[name, mode]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", [
    _jets_argv("n2_hyperplane.json", "log"),
    ["analyze", "--max-order", "2", str(BENCH_CHARTS / "n2_hyperplane.json")],
], ids=["jets", "analyze"])
def test_verbose_changes_nothing_but_dim(capsys, fmt, command):
    """--verbose only adds dim certificates: jets and analyze print the
    same bytes with and without it."""
    plain_code = main(["--format", fmt] + command)
    plain = capsys.readouterr()
    assert main(["--format", fmt, "--verbose"] + command) == plain_code
    assert capsys.readouterr() == plain


def test_analyze_has_no_method_option(chart_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--method", "fp", chart_file(CUSP)])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_dim_has_no_method_option(chart_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["dim", "--order", "1", "--method", "fp", chart_file(CUSP)])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_check_refinement_is_not_a_command(chart_file, capsys):
    path = chart_file(N2_HYPERPLANE)
    with pytest.raises(SystemExit) as exit_info:
        main(["check-refinement", path, path, "--order", "1"])
    assert exit_info.value.code == 1
    assert "invalid choice: 'check-refinement'" in capsys.readouterr().err


def test_docstring_lists_exactly_the_commands():
    """The usage text under "Commands:" names each subcommand once."""
    commands_block = cli.__doc__.split("Commands:\n")[1].split("\n\n")[0]
    listed = [line.split()[0] for line in commands_block.splitlines()]
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(subparsers.choices)


def test_python_dash_m_runs_the_cli():
    done = _run(["analyze", "--max-order", "1",
                 str(BENCH_CHARTS / "n2_hyperplane.json")])
    assert done.returncode == 0, done.stderr
    assert "verdict: NO_OBSTRUCTION_UP_TO_M" in done.stdout


# -- hostile input: each ends with an exit code and a message, no traceback


def _run(args, **kwargs):
    """`python -m logjet ARGS` in a fresh interpreter, output as text."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "logjet", *args],
                          stderr=subprocess.PIPE, text=True, env=env,
                          cwd=root, timeout=60, **kwargs)


def _recorded_jet_work(monkeypatch):
    """Record the width of every JetLayout and the order of every
    derivative chain strata builds."""
    widths, orders = [], []
    layout, chain = strata.JetLayout, strata.derivative_chain

    def recording_layout(n, m, inverted=False):
        widths.append(n * (m + 1))
        return layout(n, m, inverted)

    def recording_chain(terms, m, moves, grows=()):
        orders.append(m)
        return chain(terms, m, moves, grows)

    monkeypatch.setattr(strata, "JetLayout", recording_layout)
    monkeypatch.setattr(strata, "derivative_chain", recording_chain)
    return widths, orders


def test_a_deeply_nested_equation_is_a_bad_equation(chart_file):
    path = chart_file(dict(CUSP, equations=["(" * 250 + "x1" + ")" * 250]))
    done = _run(["analyze", path])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        f"logjet: error: {path}: bad equation: parentheses nested deeper "
        "than 100 at position 100\n")


def test_a_huge_exponent_trips_the_work_bound(chart_file):
    """x1^(10^9) - x2 would need 10^9 lead-index column entries; the run
    is refused before they are built."""
    path = chart_file(dict(CUSP, equations=["x1^1000000000 - x2"]))
    done = _run(["analyze", path])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        "logjet: error: Groebner work bound 4000000 term operations "
        "exceeded (J_0 of chart equations)\n")


def _unit_vectors(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("rank, generators, walk, seconds", [
    (2, [[1, 0]] + [[1, k] for k in range(1, 4001)], "facet forms", 1),
    (14, _unit_vectors(14), "face lattice", 5)],
    ids=["fan-to-4000", "N14"])
def test_a_monoid_over_the_work_bound_is_an_input_error(
        chart_file, rank, generators, walk, seconds):
    """The fan to (1, 4000) would take 64 M units in its facet forms and
    is refused before them; N^14 builds, and its face lattice, 45 M units
    for its 2^14 faces, is refused part way."""
    path = chart_file(dict(N2_HYPERPLANE, ambient_rank=rank,
                           monoid_generators=generators,
                           equations=["x1 + x2 - 1"]))
    start = time.perf_counter()
    done = _run(["analyze", "--max-order", "1", path])
    assert time.perf_counter() - start < seconds
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("logjet: error: ")
    assert (f"monoid work bound {monoid.MAX_MONOID_WORK} exceeded in the "
            f"{walk}") in done.stderr


def test_a_closed_stdout_ends_quietly():
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run(["strata", str(BENCH_CHARTS / "n3_quadric.json")],
                    stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr == ""


def test_a_high_max_order_stops_at_the_variable_bound(monkeypatch, capsys):
    """a1 has 3 variables, so J_m has 3(m+1): over the bound of 18 from
    m = 6 on.  Those rows are UNKNOWN and those lct orders skipped without
    a jet derived or a layout built."""
    a1 = str(BENCH_CHARTS / "a1.json")
    done = _run(["analyze", "--max-order", "160", a1])
    assert done.returncode == 30
    assert "Traceback" not in done.stderr
    assert ("UNKNOWN  [483 variables exceeds the Groebner bound 18 "
            "(J_160 over singular locus of the open stratum)]") in done.stdout
    widths, orders = _recorded_jet_work(monkeypatch)
    assert main(["analyze", "--max-order", "160", a1]) == 30
    assert capsys.readouterr().out == done.stdout
    assert max(widths) == 18
    assert max(orders) == 5


def test_dim_refuses_an_order_over_the_bound_before_its_jets(monkeypatch,
                                                              capsys):
    widths, orders = _recorded_jet_work(monkeypatch)
    assert main(["dim", "--order", "10", str(BENCH_CHARTS / "a1.json")]) == 1
    assert capsys.readouterr().err == (
        "logjet: error: 33 variables exceeds the Groebner bound 18 "
        "(J_10 of chart equations)\n")
    assert widths == orders == []


def test_a_rank_100000_chart_is_refused_before_its_layout(
        chart_file, monkeypatch, capsys):
    path = chart_file({"format": "logjet-chart/1", "ambient_rank": 100_000,
                       "equations": ["x1 + x2 - 1"]})
    message = ("logjet: error: 100000 variables exceeds the Groebner bound "
               "18 (J_0 of chart equations)\n")
    done = _run(["analyze", path])
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    widths, orders = _recorded_jet_work(monkeypatch)
    assert main(["analyze", path]) == 1
    assert capsys.readouterr().err == message
    assert widths == orders == []
