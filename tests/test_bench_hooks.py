"""The benchmark's tracer wraps logjet functions by the names their callers
look up (bench/tracing.py).  A refactor that moves or renames one of them
would break `bench/run.py --trace 1`; these tests catch that in tier 1."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

from logjet import AffineMonoid, AnalysisConfig, Chart, analyzer  # noqa: E402

HOOKS = ([(owner, attr) for owner, attr, _layer, _hook in tracing.SPANS]
         + [(owner, attr) for owner, attr, _name in tracing.COUNTS])


@pytest.mark.parametrize("owner, attr", HOOKS,
                         ids=[f"{o.__name__}.{a}" for o, a in HOOKS])
def test_hook_resolves_on_its_owner(owner, attr):
    assert attr in owner.__dict__, f"{owner.__name__}.{attr} is not bound"


def test_tracer_restores_every_original():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in HOOKS]
    chart = Chart.build(monoid=AffineMonoid(2, [(1, 0), (0, 1)]),
                        equations=["x1 + x2 - 1"])
    with tracing.Tracer() as tracer:
        # through the module, as bench/run.py calls it, so the span is seen
        report = analyzer.analyze(chart, AnalysisConfig(max_order=1))
    assert report.verdict == "NO_OBSTRUCTION_UP_TO_M"
    assert tracer.calls["analyzer.analyze"] == 1
    assert tracer.calls["strata.present"] > 0
    assert tracer.calls["jets.derive"] > 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
