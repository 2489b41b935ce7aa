"""Random Laurent polynomials: the jet_ideal chains against power-series
substitution, in both modes and from order 0."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from logjet.jets import LOG, ORDINARY  # noqa: E402

from jet_oracle import expand_by_substitution, jet_chain  # noqa: E402


@st.composite
def base_polys(draw):
    """(f, m): a Laurent polynomial in 1-3 base variables, as an {exponent
    tuple: Fraction} map, and a jet order."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    exponents = st.tuples(*[st.integers(-2, 3)] * n).filter(
        lambda e: sum(map(abs, e)) <= 4)
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                       st.integers(1, 2))
    return draw(st.dictionaries(exponents, coeffs, min_size=1,
                                max_size=4)), m


@pytest.mark.parametrize("mode", [ORDINARY, LOG])
@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(base_polys())
def test_derivative_chain_matches_substitution(mode, case):
    f, m = case
    assert jet_chain(f, m, mode) == expand_by_substitution(f, m, mode)
