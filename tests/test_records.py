"""The package's records are NamedTuples: they refuse assignment, copy
and pickle, and compare by value; analyze validates its config's order,
and GroebnerResult reduces its basis on each read.  A lint keeps the
idiom: no logjet class defines __setattr__ or __reduce__."""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from logjet import (AnalysisConfig, AnalysisReport, Budgets, Chart,
                    DimResult, Face, IdealPresentation, analyze)
from logjet.analyzer import InequalityRow, LctRow, WitnessConfirmation
from logjet.chartfile import ChartFileOptions
from logjet.dimension import groebner_basis
from logjet.jets import degrevlex
from logjet.strata import (AssumptionReport, StratumPresentation,
                           StratumStatus)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "logjet"

FACE = Face((0,), ((0, 1),), 1)

# (record, one of its fields) of every frozen record
FROZEN = [
    (AnalysisConfig(max_order=1), "max_order"),
    (InequalityRow(1, 1, (0,), 2, 4, "OK"), "status"),
    (LctRow(1, 1, 2, Fraction(1)), "best"),
    (WitnessConfirmation(True), "confirmed"),
    (AnalysisReport({}, 1, None, (), (), "NO_OBSTRUCTION_UP_TO_M"),
     "verdict"),
    (Budgets(), "max_pairs"),
    (IdealPresentation(("x",), ()), "generators"),
    (DimResult(1), "dimension"),
    (StratumPresentation(FACE, 1, ("x1", "w"), ()), "constraints"),
    (StratumStatus(1, (), 1, 1, "PASS"), "status"),
    (AssumptionReport((), 1, True, True), "passed"),
    (Chart(1, ()), "equations"),
    (ChartFileOptions(), "budgets"),
    (FACE, "stratum_index"),
]


@pytest.mark.parametrize("record, name", FROZEN,
                         ids=[type(r).__name__ for r, _name in FROZEN])
def test_a_frozen_record_refuses_assignment(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    assert getattr(record, name) is before


@pytest.mark.parametrize("record, name", FROZEN,
                         ids=[type(r).__name__ for r, _name in FROZEN])
def test_a_frozen_record_copies_and_pickles(record, name):
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert getattr(clone, name) == getattr(record, name)


def test_analysis_config_refuses_order_zero():
    chart = Chart.build(ambient_rank=1, equations=["x1"])
    with pytest.raises(ValueError, match="max order must be at least 1"):
        analyze(chart, AnalysisConfig(max_order=0))


def test_analysis_config_defaults():
    cfg = AnalysisConfig()
    assert (cfg.max_order, cfg.budgets) == (2, Budgets())


@pytest.mark.parametrize("make", [
    lambda: Budgets(max_pairs=8),
    lambda: Face((0, 2), ((1, 0), (0, 1)), 0),
], ids=["Budgets", "Face"])
def test_equal_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_budgets_with_different_values_differ():
    assert Budgets(max_pairs=8) != Budgets()


def test_equal_stratum_presentations_compare_equal():
    fields = (FACE, 1, ("x1", "w"), ({(1, 0): 1},))
    a, b = StratumPresentation(*fields), StratumPresentation(*fields)
    assert a is not b
    assert a == b
    assert a._replace(constraints=({(1,): 1},)) != b


def test_groebner_result_reduces_its_basis_on_read():
    gb = groebner_basis(IdealPresentation.from_terms(
        ("x", "y"), [{(1, 1): 1, (0, 0): -1}, {(2, 0): 1, (0, 1): -1}]))
    basis = gb.basis
    assert gb.basis == basis
    assert gb.leading_monomials() == tuple(
        max((mono for mono, _c in g), key=degrevlex) for g in basis)


@pytest.mark.parametrize("record", [r for r, _name in FROZEN] + [
    groebner_basis(IdealPresentation(("x",), ((((1,), 1),),)))],
    ids=[type(r).__name__ for r, _name in FROZEN] + ["GroebnerResult"])
def test_every_record_is_a_named_tuple(record):
    assert isinstance(record, tuple)
    assert record._fields


def test_no_class_defines_setattr_or_reduce():
    found = [f"{path.name}: {node.name}.{item.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.ClassDef)
             for item in node.body
             if isinstance(item, ast.FunctionDef)
             and item.name in ("__setattr__", "__reduce__")]
    assert found == []
