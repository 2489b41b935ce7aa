import pytest

from logjet import (EMPTY, AffineMonoid, AnalysisConfig, Chart, analyze,
                    dimension_of)
from logjet.analyzer import open_part_jet_presentation
from logjet.strata import (_minimal, base_presentation, check_assumption,
                           stratify, stratum_jet_presentation)


@pytest.fixture(scope="module")
def cone():
    """x1 + x2 = 1 on the cone <(1,0),(1,1),(1,2)>, basis (1,0), (1,1)."""
    return Chart.build(monoid=AffineMonoid(2, [(1, 0), (1, 1), (1, 2)]),
                       equations=["x1 + x2 - 1"])


def _stratum(chart, face):
    return next(s for s in stratify(chart)
                if s.face.generator_indices == face)


def _named(pres):
    """Each generator as {monomial: coefficient}, a monomial written by
    variable name ("w*x1^2", "1"), so that pins do not depend on the
    column order of the presentation."""
    def monomial(exps):
        factors = sorted(v if e == 1 else f"{v}^{e}"
                         for v, e in zip(pres.variables, exps) if e)
        return "*".join(factors) or "1"
    return [{monomial(exps): c for exps, c in g} for g in pres.generators]


def test_stratify_cone_faces(cone):
    strata = stratify(cone)
    assert [(s.index, s.face.generator_indices) for s in strata] == [
        (0, (0, 1, 2)), (1, (0,)), (1, (2,)), (2, ())]
    assert all(s.variables == ("x1", "x2", "w") for s in strata)


def test_generator_exponents_are_solved_once_per_generator(cone,
                                                          monkeypatch):
    """The exponents of p_F are sums of its generators' exponents, so the
    four faces of the cone solve for each of the three generators once.  A
    whole analysis does too: its open row takes the l = 0 stratum of the
    same stratify call."""
    solved = []
    exponents_of = Chart.exponents_of

    def counting(chart, point):
        solved.append(point)
        return exponents_of(chart, point)

    before = [s.equations for s in stratify(cone)]
    monkeypatch.setattr(Chart, "exponents_of", counting)
    assert [s.equations for s in stratify(cone)] == before
    assert solved == list(cone.monoid.generators)
    solved.clear()
    analyze(cone, AnalysisConfig(max_order=1))
    assert solved == list(cone.monoid.generators)


def test_minimal_off_face_monomials(cone):
    """In basis coordinates the generators are x1, x2 and chi^(1,2) =
    x1^-1*x2^2, which clears to x2^2, a multiple of x2: the faces that
    have both off drop it, and the kept ones stay in generator order."""
    x1, x2 = {(1, 0, 0): 1}, {(0, 1, 0): 1}
    assert [s.equations[1:-1] for s in stratify(cone)] == [
        (), (x2,), (x1, x2), (x1, x2)]


def test_equal_cleared_monomials_keep_the_first():
    """Generators 0 and 1 clear to the same x2^2 and generator 3 to x1^2,
    so the first of the pair stays; generator 2's x2 then takes it out."""
    cleared = [(0, 2), (0, 2), (0, 1), (2, 0)]
    assert _minimal([0, 1, 3], cleared) == [0, 3]
    assert _minimal([0, 1, 2, 3], cleared) == [2, 3]


def test_laurent_monomial_cleared_and_recorded(cone):
    s = _stratum(cone, (2,))
    # w * chi^(1,2) - 1 = x1^-1*x2^2*w - 1 in basis coordinates
    assert s.equations[-1] == {(-1, 2, 1): 1, (0, 0, 0): -1}
    pres = base_presentation(s)
    assert _named(pres)[-1] == {"w*x2^2": 1, "x1": -1}


def test_open_part_base_system(cone):
    """The open row starts from the l = 0 stratum's base system: the
    equations and the localization of the torus chi^(3,3) = x2^3."""
    s = stratify(cone)[0]
    assert s.equations == ({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -1},
                           {(0, 3, 1): 1, (0, 0, 0): -1})
    for m in (0, 1):
        stratum = stratum_jet_presentation(s, m)
        open_part = open_part_jet_presentation(cone, m)
        assert open_part.variables == stratum.variables
        # plus the Jacobian minors (df/dx1, df/dx2) = (1, 1)
        assert open_part.generators == stratum.generators + (
            (((0,) * len(stratum.variables), 1),),) * 2


def test_stratum_jet_presentation_pinned(cone):
    pres = stratum_jet_presentation(_stratum(cone, (0,)), 1)
    # the jets of the inversion variable w lead, highest order first
    assert pres.variables == ("w(1)", "w", "x1", "x2", "x1(1)", "x2(1)")
    assert _named(pres) == [
        {"1": -1, "x1": 1, "x2": 1},                          # x1 + x2 - 1
        {"x1(1)": 1, "x2(1)": 1},
        {"x2": 1},                              # x2; x1^-1*x2^2 dropped
        {"x2(1)": 1},
        {"1": -1, "w*x1": 1},                                 # x1 w - 1
        {"w*x1(1)": 1, "w(1)*x1": 1},
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
        assert _named(pres)[-2:] == [{"x2^2": 1}, {"x1": 1, "x2": -2}]


def test_check_assumption_fail():
    """x1 = x2 in N^2 meets the origin (l = 2) in codimension 1."""
    chart = Chart.build(monoid=AffineMonoid(2, [(1, 0), (0, 1)]),
                        equations=["x1 - x2"])
    strata = stratify(chart)
    dims = [dimension_of(base_presentation(s)).dimension for s in strata]
    report = check_assumption(strata, dims)
    assert not report.passed and report.x0_nonempty and report.dim_x == 1
    assert [(r.index, r.dim, r.codim, r.status) for r in report.rows] == [
        (0, 1, 0, "PASS"), (1, EMPTY, EMPTY, "EMPTY"), (2, 0, 1, "FAIL")]
    assert [r.index for r in report.failing] == [2]


def test_check_assumption_needs_every_face(cone):
    strata = stratify(cone)
    with pytest.raises(ValueError, match="given for 4 strata"):
        check_assumption(strata, [1] * (len(strata) - 1))
