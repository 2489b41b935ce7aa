"""The paper's bundle identity as an oracle for the stratum rows.

Over a stratum X_l the log jet scheme of X has dimension
dim J_m(X_l) + m*l: the boundary coordinates vanish there, and the log jets
u_{i,j} of those l coordinates are free.  On the N^n charts of the bench
corpus the basis coordinates are the orbit coordinates (generator k is the
unit vector e_i), so the log jet ideal restricts to the stratum of a face F
by dropping every term with some x_i, i outside F, and inverting the x_i
with i in F.  Its dimension must equal the row's total, computed by the
analyzer from ordinary jets of the stratum plus m*l.  The two paths share
the dimension engine and the derivation, jets.derivative_chain: the log
path runs it with the log grows, the analyzer with ordinary moves only.
The substitution oracle (tests/jet_oracle.py) pins the derivation's
coefficients in both modes; a slipped coefficient need not move a
dimension.
"""

from functools import cache
from pathlib import Path

import pytest

from logjet.analyzer import AnalysisConfig, analyze
from logjet.chartfile import load_chart
from logjet.dimension import EMPTY, IdealPresentation, dimension_of
from logjet.jets import LOG, jet_ideal

CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"

# chart file -> highest order compared
CASES = {"n2_hyperplane.json": 3, "n3_hyperplane.json": 2,
         "n3_quadric.json": 2, "n5_hyperplane.json": 1}

# decided stratum rows over all CASES: 3 faces with l > 0 for N^2 at three
# orders, 7 for N^3 at two orders (two charts), 31 for N^5 at one order
ROWS_COMPARED = 68


def _orbit_coordinate(chart):
    """Generator index -> the chart coordinate it is the unit vector of."""
    coord = {}
    for k, g in enumerate(chart.monoid.generators):
        assert sorted(g) == [0] * (len(g) - 1) + [1], g
        coord[k] = list(g).index(1) + 1
    return coord


def bundle_presentation(chart, m, face):
    """The order-m log jet ideal of chart restricted to the stratum of face
    (generator indices): terms with x_i off the face dropped, the x_i on
    the face inverted by w * prod x_i - 1, every u_{i,j} kept."""
    coord = _orbit_coordinate(chart)
    names, chains = jet_ideal(chart, m, LOG)
    jets = names[chart.ambient_rank:]
    variables = ([f"x{i}" for i in sorted(coord[k] for k in face)] + ["w"]
                 + list(jets))
    nv = len(variables)
    slot = {name: s for s, name in enumerate(variables)}
    raw = []
    for chain in chains:
        for g in chain:
            terms = {}
            for vec, c in g.items():
                if any(a and names[k] not in slot for k, a in enumerate(vec)):
                    continue
                e = [0] * nv
                for k, a in enumerate(vec):
                    if a:
                        e[slot[names[k]]] = a
                terms[tuple(e)] = terms.get(tuple(e), 0) + c
            raw.append(terms)
    inverse = [1] * (nv - len(jets)) + [0] * len(jets)
    raw.append({tuple(inverse): 1, (0,) * nv: -1})
    return IdealPresentation.from_terms(variables, raw,
                                        provenance=f"bundle {face}",
                                        jet_order=m)


@cache
def _compare(name, max_order):
    chart, options = load_chart(CHARTS / name)
    report = analyze(chart, AnalysisConfig(max_order=max_order,
                                           budgets=options.budgets))
    mismatches, compared = [], 0
    for row in report.rows:
        if row.kind != "stratum" or row.status == "UNKNOWN":
            continue
        pres = bundle_presentation(chart, row.m, row.face)
        got = dimension_of(pres).dimension
        want = EMPTY if row.dim_jets == EMPTY else row.total
        compared += 1
        if got != want:
            mismatches.append((row.l, row.m, row.face, got, want))
    return compared, mismatches


def test_bundle_presentation_of_the_line():
    # x1 + x2 - 1 over the face {x1} (x2 = 0): x1 = 1, its log jets u[1,j]
    # vanish, and u[2,1] stays free
    chart, _ = load_chart(CHARTS / "n2_hyperplane.json")
    pres = bundle_presentation(chart, 1, (0,))
    assert pres.variables == ("x1", "w", "u[1,1]", "u[2,1]")
    assert dimension_of(pres).dimension == 1


@pytest.mark.parametrize("name", CASES)
def test_stratum_rows_match_the_bundle_identity(name):
    _, mismatches = _compare(name, CASES[name])
    assert mismatches == []


def test_every_decided_stratum_row_is_compared():
    # without the count a chart that turned into an assumption failure
    # would leave no rows and pass vacuously
    assert sum(_compare(name, m)[0] for name, m in CASES.items()) \
        == ROWS_COMPARED
