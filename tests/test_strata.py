import pytest

from logjet import AffineMonoid, Chart, EMPTY, dimension_of
from logjet.analyzer import open_part_jet_presentation
from logjet.strata import (base_presentation, check_assumption,
                           stratify, stratum_jet_presentation)


@pytest.fixture(scope="module")
def cone():
    """x1 + x2 = 1 on the cone <(1,0),(1,1),(1,2)>, basis (1,0), (1,1)."""
    return Chart.build(monoid=AffineMonoid(2, [(1, 0), (1, 1), (1, 2)]),
                       equations=["x1 + x2 - 1"])


def _stratum(chart, face):
    return next(s for s in stratify(chart)
                if s.face.generator_indices == face)


def test_stratify_cone_faces(cone):
    strata = stratify(cone)
    assert [(s.index, s.face.generator_indices) for s in strata] == [
        (0, (0, 1, 2)), (1, (0,)), (1, (2,)), (2, ())]
    assert all(s.variables == ("x1", "x2", "w") for s in strata)


def test_laurent_monomial_cleared_and_recorded(cone):
    s = _stratum(cone, (0,))
    # chi^(1,2) = x1^-1 x2^2 in basis coordinates
    assert s.equations[2].render(s.variables) == "x1^-1*x2^2"
    pres = base_presentation(s)
    assert dict(pres.generators[2]) == {(0, 2, 0): 1}


def test_open_stratum_base_system(cone):
    """The open row starts from the l = 0 stratum's base system: the
    equations and the localization of the torus chi^(3,3) = x2^3."""
    s = stratify(cone)[0]
    assert [g.render(s.variables) for g in s.equations] == [
        "x1 + x2 - 1", "x2^3*w - 1"]
    for m in (0, 1):
        stratum = stratum_jet_presentation(s, m)
        open_part = open_part_jet_presentation(cone, m)
        assert open_part.variables == stratum.variables
        # plus the Jacobian minors (df/dx1, df/dx2) = (1, 1)
        assert open_part.generators == stratum.generators + (
            (((0,) * len(stratum.variables), 1),),) * 2


def test_stratum_jet_presentation_pinned(cone):
    pres = stratum_jet_presentation(_stratum(cone, (0,)), 1)
    assert pres.variables == ("x1", "x2", "w", "x1(1)", "x2(1)", "w(1)")
    assert [dict(g) for g in pres.generators] == [
        {(0, 0, 0, 0, 0, 0): -1, (0, 1, 0, 0, 0, 0): 1,
         (1, 0, 0, 0, 0, 0): 1},                              # x1 + x2 - 1
        {(0, 0, 0, 0, 1, 0): 1, (0, 0, 0, 1, 0, 0): 1},
        {(0, 1, 0, 0, 0, 0): 1},                              # x2
        {(0, 0, 0, 0, 1, 0): 1},
        {(0, 2, 0, 0, 0, 0): 1},                              # x2^2, cleared
        {(0, 1, 0, 0, 1, 0): 1},                              # 2 x2 x2(1)
        {(0, 0, 0, 0, 0, 0): -1, (1, 0, 1, 0, 0, 0): 1},      # x1 w - 1
        {(0, 0, 1, 1, 0, 0): 1, (1, 0, 0, 0, 0, 1): 1},
    ]
    assert pres.jet_order == 1


def test_laurent_constraints_cleared():
    """The Jacobian minors of x1^-1*x2^2 - x2 - 1 are Laurent:
    -x1^-2*x2^2 and 2*x1^-1*x2 - 1.  The open row clears them to x2^2
    and x1 - 2*x2 at every order."""
    chart = Chart.build(monoid=AffineMonoid(2, [(1, 0), (1, 1), (1, 2)]),
                        equations=["x1^-1*x2^2 - x2 - 1"])
    for m in (0, 1):
        pres = open_part_jet_presentation(chart, m)
        pad = (0,) * (3 * m + 1)            # w and the jets stay out
        assert [dict(g) for g in pres.generators[-2:]] == [
            {(0, 2) + pad: 1},
            {(0, 1) + pad: -2, (1, 0) + pad: 1},
        ]


def test_check_assumption_fail():
    """x1 = x2 in N^2 meets the origin (l = 2) in codimension 1."""
    chart = Chart.build(monoid=AffineMonoid(2, [(1, 0), (0, 1)]),
                        equations=["x1 - x2"])
    dims = {s: dimension_of(base_presentation(s)).dimension
            for s in stratify(chart)}
    report = check_assumption(chart, dims)
    assert not report.passed and report.x0_nonempty and report.dim_x == 1
    assert [(r.index, r.dim, r.codim, r.status) for r in report.rows] == [
        (0, 1, 0, "PASS"), (1, EMPTY, EMPTY, "EMPTY"), (2, 0, 1, "FAIL")]
    assert [r.index for r in report.failing] == [2]


def test_check_assumption_needs_every_face(cone):
    dims = {s: 1 for s in stratify(cone)[:-1]}
    with pytest.raises(ValueError, match="misses 1 face"):
        check_assumption(cone, dims)
