"""Chart files: JSON documents describing a chart plus run options.

Schema "logjet-chart/1":

    {
      "format": "logjet-chart/1",
      "ambient_rank": 2,
      "monoid_generators": [[1, 0], [0, 1]],   // omit or null: ordinary chart
      "basis": [0, 1],                          // optional generator indices
      "equations": ["x1 + x2 - 1"],
      "mode": "log",                            // optional, validated
      "budgets": {"pairs": 50000}               // optional; also
    }                                           // "variables", both > 0

A budget the file does not set keeps its Budgets default, so load_chart
always returns a Budgets, Budgets() for a file without "budgets".  The
two keys set max_pairs and max_groebner_vars.  The Groebner term work,
the F_p search nodes and the monoid work have one bound each for every
chart, MAX_GROEBNER_WORK, MAX_FP_NODES and MAX_MONOID_WORK, so a
"degree", "work" or "fp_nodes" key is unknown.

Unknown top-level fields are ignored; an unknown budget key is an error,
since a mistyped key would otherwise leave its budget at the default, and
so is a "basis" on an ordinary chart, which has no monoid to index.
"""

import json
from typing import NamedTuple

from .chart import Chart
from .dimension import Budgets
from .errors import ChartParseError, ExpressionSyntaxError, LogjetError
from .monoid import AffineMonoid

FORMAT = "logjet-chart/1"

# chart-file budget keys and the Budgets fields they set
_BUDGET_FIELDS = {"pairs": "max_pairs", "variables": "max_groebner_vars"}


class ChartFileOptions(NamedTuple):
    budgets: Budgets = Budgets()


def _is_int(value):
    """A JSON integer; booleans are ints in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(doc, name, kind, required=False, default=None):
    if name not in doc or doc[name] is None:
        if required:
            raise ChartParseError(f"missing field {name!r}")
        return default
    value = doc[name]
    if kind is int and not _is_int(value):
        raise ChartParseError(f"field {name!r} must be an integer")
    if kind is list and not isinstance(value, list):
        raise ChartParseError(f"field {name!r} must be a list")
    if kind is str and not isinstance(value, str):
        raise ChartParseError(f"field {name!r} must be a string")
    if kind is dict and not isinstance(value, dict):
        raise ChartParseError(f"field {name!r} must be an object")
    return value


def load_chart(path):
    """Load and fully validate a chart file; returns (Chart, options).

    Every error about the document's content names the file: it is
    re-raised as its own class with a "{path}: " prefix, and an equation
    that does not parse is a ChartParseError "{path}: bad equation: ...".
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChartParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChartParseError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return _from_document(doc)
    except ExpressionSyntaxError as exc:
        raise ChartParseError(f"{path}: bad equation: {exc}") from exc
    except LogjetError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _from_document(doc):
    """The (Chart, options) of a parsed chart document."""
    if not isinstance(doc, dict):
        raise ChartParseError("top level must be an object")
    fmt = _field(doc, "format", str, default=FORMAT)
    if fmt != FORMAT:
        raise ChartParseError(f"unsupported format {fmt!r}")

    n = _field(doc, "ambient_rank", int, required=True)
    if n < 1:
        raise ChartParseError(
            f"field 'ambient_rank' must be a positive integer, got {n!r}")
    raw_gens = _field(doc, "monoid_generators", list)
    equations = _field(doc, "equations", list, default=[])
    for idx, eq in enumerate(equations):
        if not isinstance(eq, str):
            raise ChartParseError(f"equations[{idx}] must be a string")

    monoid = None
    basis = None
    basis_idx = _field(doc, "basis", list)
    if raw_gens is None:
        if basis_idx is not None:
            raise ChartParseError(
                "field 'basis' needs 'monoid_generators'; an ordinary chart "
                "has no basis")
    else:
        for gi, g in enumerate(raw_gens):
            if not isinstance(g, list) or not all(map(_is_int, g)):
                raise ChartParseError(
                    f"monoid_generators[{gi}] must be a list of integers")
        monoid = AffineMonoid(n, raw_gens)
        if basis_idx is not None:
            for bi in basis_idx:
                if not _is_int(bi) or not 0 <= bi < len(monoid.generators):
                    raise ChartParseError(
                        f"basis index {bi!r} out of range")
            basis = tuple(monoid.generators[bi] for bi in basis_idx)

    mode = _field(doc, "mode", str)
    implied = "log" if monoid is not None else "ordinary"
    if mode is not None and mode != implied:
        raise ChartParseError(
            f"mode {mode!r} contradicts the monoid data "
            f"(implied {implied!r})")

    raw_budgets = _field(doc, "budgets", dict, default={})
    unknown = sorted(set(raw_budgets) - set(_BUDGET_FIELDS))
    if unknown:
        raise ChartParseError(
            f"unknown budget key {unknown[0]!r} (known keys: "
            f"{', '.join(map(repr, _BUDGET_FIELDS))})")
    fields = {}
    for key, name in _BUDGET_FIELDS.items():
        if key in raw_budgets:
            value = raw_budgets[key]
            if not _is_int(value) or value < 1:
                raise ChartParseError(
                    f"budgets[{key!r}] must be a positive integer, got "
                    f"{value!r}")
            fields[name] = value

    chart = Chart.build(ambient_rank=n, equations=equations, monoid=monoid,
                        basis=basis)
    return chart, ChartFileOptions(budgets=Budgets(**fields))
