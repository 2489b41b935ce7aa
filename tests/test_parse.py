import time
from fractions import Fraction

import pytest

from logjet.errors import ExpressionSyntaxError, ResourceLimitError
from logjet.jets import MAX_PRODUCT_WORK, poly_mul
from logjet.parse import MAX_NESTING, parse_poly, render

XS = ("x1", "x2")


def test_cusp():
    f = parse_poly("x1^2 - x2^3", 2)
    assert len(f) == 2
    assert render(f, XS) == "-x2^3 + x1^2"


def test_laurent_and_rational():
    f = parse_poly("x1^-1 + 3/2*x2", 2)
    assert f == {(-1, 0): 1, (0, 1): Fraction(3, 2)}
    assert all(isinstance(c, Fraction) for c in f.values())


def _refused_at(text, n, position, message):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_poly(text, n)
    assert err.value.position == position
    assert message in str(err.value)


# Jet variables are not part of the grammar: a chart equation is a
# polynomial in x_1..x_n, and jets print but never parse.


def test_log_vars():
    _refused_at("u[1,2] - u[1,1]^2", 2, 0, "unexpected character 'u'")


def test_ordinary_jet_vars():
    _refused_at("x3(2) * x1 - 2*x2(1)", 3, 2, "trailing input '('")


def test_negative_jet_exponent():
    _refused_at("u[1,1]^-1", 2, 0, "unexpected character 'u'")
    _refused_at("x3(2)^-2", 3, 2, "trailing input '('")


def test_mode_mismatch():
    # neither mode's jet variables parse inside an expression
    _refused_at("x1 + u[1,1]", 2, 5, "unexpected character 'u'")
    _refused_at("2*x1(1)", 2, 4, "trailing input '('")


def test_whitespace_and_parens():
    f = parse_poly(" ( x1 + x2 ) ^ 2 ", 2)
    g = parse_poly("x1^2 + 2*x1*x2 + x2^2", 2)
    assert f == g


def test_leading_minus():
    assert parse_poly("-x1 + x2", 2) == {(1, 0): -1, (0, 1): 1}


def test_syntax_error_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_poly("x1 + * x2", 2)
    assert err.value.position == 5


def test_trailing_garbage():
    with pytest.raises(ExpressionSyntaxError):
        parse_poly("x1 x2", 2)


def test_double_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_poly("x1^2^3", 2)


def test_out_of_range_indices():
    with pytest.raises(ExpressionSyntaxError):
        parse_poly("x5", 2)
    with pytest.raises(ExpressionSyntaxError):
        parse_poly("x0", 2)


def test_zero_denominator():
    with pytest.raises(ExpressionSyntaxError):
        parse_poly("1/0", 2)


def test_round_trip_canonical():
    texts = [
        "x1^2 - x2^3",
        "x1^-1 + 3/2*x2",
        "-x1 + 1",
        "2*x1*x2 - 1/2",
    ]
    for text in texts:
        f = parse_poly(text, 2)
        assert parse_poly(render(f, XS), 2) == f


def test_render_of_a_laurent_map():
    # degrevlex on the exponent tuples, negative exponents included
    f = parse_poly("x1^-2*x2 + x2^3*x1^-1 - 1 + x1", 2)
    assert render(f, XS) == "x1^-1*x2^3 + x1 - 1 + x1^-2*x2"


def test_round_trip_of_random_laurent_maps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def laurent_maps(draw):
        n = draw(st.integers(1, 3))
        coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                           st.integers(1, 4))
        exponents = st.tuples(*[st.integers(-3, 3)] * n)
        return n, draw(st.dictionaries(exponents, coeffs, max_size=5))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(laurent_maps())
    def round_trip(case):
        n, f = case
        names = tuple(f"x{i}" for i in range(1, n + 1))
        assert parse_poly(render(f, names), n) == f

    round_trip()


def test_a_large_power_parses():
    """(x1 + x2 + x3 + 1)^20 has binomial(23, 3) = 1771 terms; its costliest
    product, f^4 times f^16, takes 35 * 969 coefficient products."""
    assert len(parse_poly("(x1 + x2 + x3 + 1)^20", 3)) == 1771
    assert 35 * 969 <= MAX_PRODUCT_WORK


def test_expansion_past_the_work_limit_is_refused():
    """^80 squares f^16, of binomial(19, 3) = 969 terms: 969^2 coefficient
    products, refused before the product starts."""
    with pytest.raises(ResourceLimitError) as err:
        parse_poly("(x1 + x2 + x3 + 1)^80", 3)
    assert str(err.value) == (
        "a product of 969 by 969 terms takes 938961 coefficient word "
        f"products, over the limit of {MAX_PRODUCT_WORK}")


def test_a_costly_product_of_few_terms_is_refused_quickly():
    """(x1 + x2)^2000 never holds more than 2001 terms, but its products
    multiply coefficients of hundreds of digits: bounding the terms let it
    run for seconds, bounding the work refuses it at once."""
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        parse_poly("(x1 + x2)^2000", 2)
    assert time.perf_counter() - start < 1


def test_a_product_of_huge_coefficients_is_refused_quickly():
    """(3*x1)^4000000 holds one term at every step, but squaring by
    squaring its coefficient grows to about 52000 64-bit words: the work
    counts words, so the first squaring past the limit is refused before
    it starts."""
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        parse_poly("(3*x1)^4000000 - x2", 2)
    assert time.perf_counter() - start < 0.5
    assert str(err.value).startswith("a product of 1 by 1 terms takes ")


def test_coefficient_work_counts_64_bit_words():
    """A 63-bit coefficient takes one word and 2^70 two, so a product of n
    terms 2^70 x_1^k by 2^70 takes 4n word products: n = MAX_PRODUCT_WORK
    / 4 is allowed, one more is refused."""
    one_word = {(k,): 2 ** 62 for k in range(MAX_PRODUCT_WORK)}
    assert len(poly_mul(one_word, {(0,): 1})) == MAX_PRODUCT_WORK
    n = MAX_PRODUCT_WORK // 4
    big = {(0,): 2 ** 70}
    assert len(poly_mul({(k,): 2 ** 70 for k in range(n)}, big)) == n
    with pytest.raises(ResourceLimitError, match=f"takes {4 * (n + 1)} "):
        poly_mul({(k,): 2 ** 70 for k in range(n + 1)}, big)


def _nested(depth):
    return "(" * depth + "x1" + ")" * depth


def test_nesting_is_bounded_by_a_syntax_error():
    assert MAX_NESTING == 100
    assert parse_poly(_nested(MAX_NESTING), 1) == {(1,): 1}
    for depth in (MAX_NESTING + 1, 250, 100_000):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_poly(_nested(depth), 1)
        assert err.value.position == MAX_NESTING
        assert "nested deeper than 100" in str(err.value)


def test_nesting_does_not_depend_on_the_callers_stack():
    def at_depth(frames, text):
        if frames:
            return at_depth(frames - 1, text)
        try:
            return parse_poly(text, 1)
        except ExpressionSyntaxError as exc:
            return exc.position

    for frames in (0, 300):
        assert at_depth(frames, _nested(MAX_NESTING)) == {(1,): 1}
        assert at_depth(frames, _nested(250)) == MAX_NESTING
