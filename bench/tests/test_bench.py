"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts this checkout's src/ on sys.path)
import corpus  # noqa: E402
import make_references  # noqa: E402
import tracing  # noqa: E402
from corpus import Entry  # noqa: E402
from logjet import analyzer, chartfile, dimension  # noqa: E402
from logjet.chart import Chart  # noqa: E402
from logjet.errors import LogjetError  # noqa: E402

ROOT = BENCH_DIR.parent
HYPERPLANES = {"n2_hyperplane.json": 2, "n2_hyperplane_pairs8.json": 2,
               "n3_hyperplane.json": 3, "n5_hyperplane.json": 5}


def _analyze(name, m):
    chart, opts = chartfile.load_chart(corpus.CHART_DIR / name)
    cfg = analyzer.AnalysisConfig(
        max_order=m, budgets=opts.budgets or dimension.Budgets())
    return analyzer.analyze(chart, cfg)


def _chart_names():
    return {e.chart for entries in corpus.WORKLOADS.values()
            for e in entries}


def test_every_corpus_file_loads_and_is_used():
    on_disk = {p.name for p in corpus.CHART_DIR.glob("*.json")}
    assert on_disk == _chart_names()
    for name in sorted(on_disk):
        chart, _opts = chartfile.load_chart(corpus.CHART_DIR / name)
        assert isinstance(chart, Chart)


def test_every_chart_has_a_complete_reference():
    refs = corpus.load_references()
    assert set(refs) == _chart_names()
    for name, ref in refs.items():
        for row in ref["rows"] + ref.get("lct", []):
            assert row["dim"] is not None, (name, row)
            assert row["source"] in ("closed-form", "baseline+fp",
                                     "baseline")


def test_hyperplane_references_match_the_formula():
    refs = corpus.load_references()
    for name, n in HYPERPLANES.items():
        rows = refs[name]["rows"]
        assert rows
        for r in rows:
            if r["kind"] == "open" or r["l"] == n:
                expected = "EMPTY"
            else:
                expected = (n - 1 - r["l"]) * (r["m"] + 1)
            assert (r["dim"], r["source"]) == (expected, "closed-form")
    # the N^3 rows at m=4 are UNKNOWN today; theory still answers them
    m4 = [r for r in refs["n3_hyperplane.json"]["rows"] if r["m"] == 4]
    assert len(m4) == 8


def test_every_closed_form_reference_matches_its_formula():
    refs = corpus.load_references()
    count = 0
    for name, ref in refs.items():
        for r in ref["rows"]:
            if r["source"] == "closed-form":
                face = tuple(r["face"]) if "face" in r else None
                assert r["dim"] == make_references.closed_form(
                    name, r["kind"], r["l"], r["m"], face), (name, r)
                count += 1
    assert count > 100


def test_classical_verdicts():
    refs = corpus.load_references()
    assert refs["cusp.json"]["verdict"] == "REDUCIBLE"
    assert refs["cusp.json"]["witness"] == [0, 1]
    for name in ("a1.json", "a2.json"):
        assert refs[name]["verdict"] == "NO_OBSTRUCTION_UP_TO_M"


def test_unknown_row_is_undecided_not_wrong():
    entry = Entry("n2_hyperplane_pairs8.json", 3)
    ref = corpus.load_references()[entry.chart]
    report = _analyze(entry.chart, entry.max_order)
    assert report.verdict == "INCONCLUSIVE"
    assert any(r.status == "UNKNOWN" for r in report.rows)
    out = corpus.check_outcome(entry, ref, report)
    assert out.wrong == []
    assert out.failed
    assert out.asked == 12
    assert out.decided == 12 - sum(r.status == "UNKNOWN"
                                   for r in report.rows)


def test_raising_chart_is_a_failed_operation():
    entry = Entry("cone2_bare.json", 1)
    ref = corpus.load_references()[entry.chart]
    with pytest.raises(LogjetError) as info:
        _analyze(entry.chart, 1)
    out = corpus.check_outcome(entry, ref, error=info.value)
    assert out.failed and out.wrong == []
    assert out.error == "open-part check needs at least one equation"
    assert (out.asked, out.decided) == (4, 0)


def test_wrong_reference_is_caught():
    refs = corpus.load_references()
    report = _analyze("n2_hyperplane.json", 2)
    entry = Entry("n2_hyperplane.json", 2)
    assert corpus.check_outcome(entry, refs[entry.chart], report).wrong == []
    bad = copy.deepcopy(refs[entry.chart])
    bad["rows"][0]["dim"] = 99
    assert corpus.check_outcome(entry, bad, report).wrong
    bad = copy.deepcopy(refs[entry.chart])
    bad["verdict"] = "REDUCIBLE"
    assert corpus.check_outcome(entry, bad, report).wrong


def _run_tiny(monkeypatch, capsys, refs):
    monkeypatch.setattr(corpus, "WORKLOADS", {"tiny": (
        Entry("a1.json", 1), Entry("cusp.json", 1))})
    monkeypatch.setattr(corpus, "load_references", lambda: refs)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_injected_wrong_reference_fails_the_runner(monkeypatch, capsys):
    refs = corpus.load_references()
    code, result = _run_tiny(monkeypatch, capsys, refs)
    assert code == 0 and result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 0)

    bad = copy.deepcopy(refs)
    bad["cusp.json"]["lct"][0]["dim"] += 1
    code, result = _run_tiny(monkeypatch, capsys, bad)
    assert code == 1 and not result["correct"]


def test_budget_variable_is_ignored(monkeypatch):
    monkeypatch.setenv("LOGJET_BUDGET", "1,1")
    work = run.Workload((Entry("n2_hyperplane.json", 1),),
                        corpus.load_references(), 0)
    work.timed_pass()
    assert work.failed == 0 and work.decided == work.asked == 4


def test_tracer_restores_every_original():
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, *_rest in tracing.SPANS + tracing.COUNTS]
    with tracing.Tracer():
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_traced_self_times_add_up_to_the_pass():
    work = run.Workload((Entry("cone3_hyperplane.json", 1),
                         Entry("a2.json", 2)),
                        corpus.load_references(), 0)
    load_tracer, pass_tracer, factor = work.traced_pass()
    assert factor > 0
    assert load_tracer.counts["monoid.membership"] > 0
    assert load_tracer.self_s["monoid.build"] > 0
    assert pass_tracer.calls["dimension.groebner"] > 0
    assert pass_tracer.calls[tracing.ROOT] == 2
    # every span of the pass is inside a root span, so the self times of
    # the layers and of the roots add up to the roots' duration, less the
    # speed samples taken inside them
    assert pass_tracer.excluded_s > 0
    assert sum(pass_tracer.self_s.values()) == pytest.approx(
        pass_tracer.root_s - pass_tracer.excluded_s, rel=1e-9)
    assert pass_tracer.self_s[tracing.ROOT] < 0.1 * pass_tracer.root_s
    assert not work.wrong


def test_speed_sampling_leaves_no_timer_behind():
    handler = signal.getsignal(signal.SIGALRM)
    runs = list(run.calibrated([lambda: sum(range(3_000_000)), lambda: 7]))
    assert [r[2] for r in runs] == [sum(range(3_000_000)), 7]
    for wall, ref, _result in runs:
        assert 0 <= wall and 0 <= ref
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_names_what_the_runner_prints():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


def test_runner_refuses_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chart-intake",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
