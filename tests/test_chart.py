import pytest

from logjet.chart import Chart
from logjet.errors import MonoidError, SupportError
from logjet.monoid import AffineMonoid
from logjet.parse import parse_poly

N2 = AffineMonoid(2, [(1, 0), (0, 1)])
CONE3 = AffineMonoid(2, [(1, 0), (1, 1), (1, 2)])


def test_build_log_chart():
    chart = Chart.build(monoid=N2, equations=["x1 + x2 - 1"])
    assert chart.monoid is not None and chart.codim == 1
    assert chart.basis == ((1, 0), (0, 1))


def test_build_ordinary_chart():
    chart = Chart.build(ambient_rank=2, equations=["x1*x2"])
    assert chart.monoid is None


def test_ordinary_chart_rejects_laurent():
    with pytest.raises(SupportError):
        Chart.build(ambient_rank=2, equations=["x1^-1"])


def test_log_chart_rejects_unsupported_monomial():
    with pytest.raises(SupportError):
        Chart.build(monoid=N2, equations=["x1^-1"])


def test_support_example_through_nonstandard_basis():
    # basis x1 = (1,0), x2 = (1,1); exponent (2,-1) maps to (1,-1), which
    # is outside the cone
    chart = Chart.build(monoid=CONE3, equations=[])
    assert chart.basis == ((1, 0), (1, 1))
    f = parse_poly("x1^2*x2^-1 + 1", 2)
    vec, point = chart.support_violation(f)
    assert vec == (2, -1) and point == (1, -1)


def test_support_positive_cases():
    chart = Chart.build(monoid=N2, equations=[])
    assert chart.support_violation(parse_poly("x1 + x2 - 1", 2)) is None
    assert chart.support_violation(parse_poly("x1^-1", 2)) is not None
    # third generator of CONE3 in basis coordinates: (1,2) = -e1 + 2 e2
    chart3 = Chart.build(monoid=CONE3, equations=[])
    assert chart3.support_violation(parse_poly("x1^-1*x2^2", 2)) is None


def test_product_support_closed():
    chart = Chart.build(monoid=CONE3, equations=[])
    f = parse_poly("x1 + x2", 2)
    g = parse_poly("x1^-1*x2^2 + 1", 2)
    assert chart.support_violation(f) is None
    assert chart.support_violation(g) is None
    assert chart.support_violation(
        parse_poly("(x1 + x2)*(x1^-1*x2^2 + 1)", 2)) is None


def test_explicit_basis_validation():
    with pytest.raises(MonoidError):
        Chart.build(monoid=N2, equations=[], basis=[(1, 0), (2, 0)])
    with pytest.raises(MonoidError):
        Chart.build(monoid=N2, equations=[], basis=[(1, 0), (-1, 1)])


def test_lattice_coordinates_round_trip():
    chart = Chart.build(monoid=CONE3, equations=[])
    for point in CONE3.generators:
        exps = chart.exponents_of(point)
        assert chart.lattice_point(exps) == point


def test_zero_equation_rejected():
    with pytest.raises(SupportError):
        Chart.build(ambient_rank=2, equations=["x1 - x1"])


def test_equations_must_be_strings():
    with pytest.raises(TypeError):
        Chart.build(ambient_rank=2, equations=[parse_poly("x1 - 1", 2)])


def test_support_beyond_any_coefficient_cap():
    # (25, 0) = 25 * (1, 0): a capped coefficient search rejected this chart
    chart = Chart.build(monoid=N2, equations=["x1^25 - x2"])
    assert chart.support_violation(chart.equations[0]) is None
