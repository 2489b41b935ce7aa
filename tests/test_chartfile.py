"""Chart files: every rejection path of load_chart, and the options block."""

import json

import pytest

from logjet.chartfile import _BUDGET_FIELDS, load_chart
from logjet.dimension import Budgets
from logjet.errors import (ChartParseError, LogjetError, MonoidError,
                           ResourceLimitError, SupportError)

N2_DOC = {"format": "logjet-chart/1", "ambient_rank": 2,
          "monoid_generators": [[1, 0], [0, 1]],
          "equations": ["x1 + x2 - 1"]}


def write(tmp_path, doc):
    path = tmp_path / "chart.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def test_loads_a_log_chart(tmp_path):
    chart, _options = load_chart(write(tmp_path, N2_DOC))
    assert chart.monoid is not None and chart.codim == 1


def test_ignored_membership_cap_field(tmp_path):
    # a capped coefficient search with cap 2 rejected x1^3 as outside N^2;
    # the field is now an unknown key like any other
    doc = dict(N2_DOC, membership_cap=2, equations=["x1^3 - x2"])
    chart, _ = load_chart(write(tmp_path, doc))
    assert chart.support_violation(chart.equations[0]) is None


@pytest.mark.parametrize("doc", [
    "{not json",
    {k: v for k, v in N2_DOC.items() if k != "ambient_rank"},
    dict(N2_DOC, monoid_generators=[[1, 0], [0, 1.5]]),
    dict(N2_DOC, basis=[0, 2]),
    dict(N2_DOC, basis=[True, 0]),
    dict(N2_DOC, mode="ordinary"),
    dict(N2_DOC, equations=["x1 + * x2"]),
], ids=["invalid-json", "missing-ambient-rank", "non-integer-generator",
        "basis-index-out-of-range", "boolean-basis-index",
        "mode-contradicts-monoid", "bad-equation"])
def test_chart_parse_errors(tmp_path, doc):
    with pytest.raises(ChartParseError):
        load_chart(write(tmp_path, doc))


@pytest.mark.parametrize("equation, position", [
    ("x1(1) + x2", 2), ("x1 + u[1,1]", 5)], ids=["ordinary-jet", "log-jet"])
def test_jet_variable_in_an_equation_is_a_bad_equation(tmp_path, equation,
                                                       position):
    path = write(tmp_path, dict(N2_DOC, equations=[equation]))
    with pytest.raises(ChartParseError) as err:
        load_chart(path)
    message = str(err.value)
    assert message.startswith(f"{path}: bad equation: ")
    assert f"at position {position}" in message


@pytest.mark.parametrize("rank", [0, -2])
def test_non_positive_ambient_rank_is_a_parse_error(tmp_path, rank):
    path = write(tmp_path, {"ambient_rank": rank, "equations": []})
    with pytest.raises(ChartParseError) as err:
        load_chart(path)
    assert str(err.value) == (f"{path}: field 'ambient_rank' must be a "
                              f"positive integer, got {rank}")


def test_unsaturated_monoid_error_names_the_file(tmp_path):
    path = write(tmp_path, dict(
        N2_DOC, monoid_generators=[[2, 0], [3, 0], [0, 1], [1, 1]]))
    with pytest.raises(MonoidError) as err:
        load_chart(path)
    assert str(err.value).startswith(f"{path}: ")
    assert "(1, 0)" in str(err.value)


def test_budgets_block_reaches_options(tmp_path):
    doc = dict(N2_DOC, budgets={"pairs": 8, "variables": 10})
    _, options = load_chart(write(tmp_path, doc))
    assert options.budgets == Budgets(max_pairs=8, max_groebner_vars=10,
                                      fp_max_vars=Budgets().fp_max_vars)


def test_every_budget_key_sets_its_own_field():
    """Each key names a Budgets field, and each field but fp_max_vars has
    exactly one key, so a removed field leaves no dead key behind."""
    assert sorted(_BUDGET_FIELDS.values()) == sorted(
        set(Budgets._fields) - {"fp_max_vars"})


@pytest.mark.parametrize("key, value", [
    ("pairs", "many"), ("variables", 0), ("variables", True),
    ("pairs", -3), ("pairs", 2.5), ("variables", None)])
def test_bad_budget_is_a_parse_error_naming_the_key(tmp_path, key, value):
    doc = dict(N2_DOC, budgets={key: value})
    with pytest.raises(ChartParseError) as err:
        load_chart(write(tmp_path, doc))
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("budgets", [
    {"pair": 8}, {"variables": 12, "max_pairs": 8}, {"Pairs": 8},
    {"fp_node": "many"}, {"degree": 40}, {"fp_nodes": 1000}],
    ids=["pair", "max_pairs", "Pairs", "fp_node", "degree", "fp_nodes"])
def test_unknown_budget_key_is_a_parse_error(tmp_path, budgets):
    # a mistyped key must not fall back to the default budget silently;
    # "degree" and "fp_nodes" set nothing, since MAX_GROEBNER_WORK and
    # MAX_FP_NODES bound every run
    (unknown,) = set(budgets) - set(_BUDGET_FIELDS)
    with pytest.raises(ChartParseError) as err:
        load_chart(write(tmp_path, dict(N2_DOC, budgets=budgets)))
    message = str(err.value)
    assert f"unknown budget key {unknown!r}" in message
    assert message.endswith("(known keys: 'pairs', 'variables')")


@pytest.mark.parametrize("budgets", ["absent", None])
def test_chart_without_budgets_loads_the_defaults(tmp_path, budgets):
    """A file without a "budgets" field (or with null) loads as Budgets(),
    so no caller needs a fallback."""
    doc = dict(N2_DOC) if budgets == "absent" else dict(N2_DOC,
                                                        budgets=budgets)
    _, options = load_chart(write(tmp_path, doc))
    assert options.budgets == Budgets()


def test_partial_budgets_keep_the_defaults(tmp_path):
    _, options = load_chart(write(tmp_path, dict(N2_DOC,
                                                 budgets={"pairs": 8})))
    assert options.budgets == Budgets(max_pairs=8)


@pytest.mark.parametrize("doc, error", [
    ({k: v for k, v in N2_DOC.items() if k != "ambient_rank"},
     ChartParseError),
    (dict(N2_DOC, equations=["x1 + x2 - 1", 3]), ChartParseError),
    (dict(N2_DOC, basis=[0, 0]), MonoidError),
    (dict(N2_DOC, basis=[0]), MonoidError),
    (dict(N2_DOC, basis=[0, 2]), ChartParseError),
    (dict(N2_DOC, mode="ordinary"), ChartParseError),
    (dict(N2_DOC, budgets={"pairs": 0}), ChartParseError),
    (dict(N2_DOC, equations=["x1^-1 - 1"]), SupportError),
    (dict(N2_DOC, equations=["(x1 + x2)^3000"]), ResourceLimitError),
    (dict(N2_DOC, monoid_generators=[[1, 0], [1, 2]]), MonoidError),
    ({"ambient_rank": 2, "equations": ["x1"], "basis": [0, 1]},
     ChartParseError),
], ids=["missing-field", "non-string-equation", "non-unimodular-basis",
        "short-basis", "basis-index-out-of-range", "mode-contradicts-monoid",
        "bad-budget", "support", "work-refusal", "unsaturated-monoid",
        "basis-on-an-ordinary-chart"])
def test_every_content_error_names_the_file(tmp_path, doc, error):
    """Each error keeps its class and starts with the file's path."""
    path = write(tmp_path, doc)
    with pytest.raises(LogjetError) as err:
        load_chart(path)
    assert type(err.value) is error
    assert str(err.value).startswith(f"{path}: ")

