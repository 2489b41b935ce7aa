"""Random inputs for the dimension engine against independent oracles: the
2^n subset scan for krull_dim, and sympy for groebner_basis."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from logjet.dimension import (IdealPresentation, groebner_basis,  # noqa: E402
                              krull_dim)

from test_dimension import leads_only, scan_krull_dim  # noqa: E402


@st.composite
def support_hypergraphs(draw):
    """Variables plus leading monomials with random nonempty supports."""
    nvars = draw(st.integers(1, 12))
    monomial = st.lists(st.integers(0, 2), min_size=nvars,
                        max_size=nvars).filter(any).map(tuple)
    leads = draw(st.lists(monomial, max_size=10))
    return [f"v{k}" for k in range(nvars)], leads


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(support_hypergraphs())
def test_search_matches_the_subset_scan(hypergraph):
    gb = leads_only(*hypergraph)
    res = krull_dim(gb)
    ref = scan_krull_dim(gb)
    assert (res.dimension, res.certificate) == (ref.dimension,
                                                ref.certificate)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def small_ideals(draw):
    """Up to 3 generators in up to 3 variables, degree <= 3, |coeff| <= 3."""
    nvars = draw(st.integers(1, 3))
    exponent = st.lists(st.integers(0, 3), min_size=nvars,
                        max_size=nvars).filter(lambda e: sum(e) <= 3)
    term = st.tuples(exponent.map(tuple),
                     st.integers(-3, 3).filter(bool))
    generator = st.lists(term, min_size=1, max_size=3).map(dict)
    gens = draw(st.lists(generator, min_size=1, max_size=3))
    return nvars, gens


def monic_basis(gb):
    return sorted(tuple(sorted(g)) for g in gb.basis)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(small_ideals())
# degrevlex puts x2^2 above x1 (lex does not) and x2^2*x3 above x1*x3^2
# (deglex does not)
@hypothesis.example(ideal=(2, [{(1, 0): 1, (0, 2): -1}]))
@hypothesis.example(ideal=(3, [{(0, 2, 1): -1, (1, 0, 2): 1},
                               {(1, 1, 0): 2, (0, 0, 1): 1}]))
def test_groebner_basis_matches_sympy(sympy, ideal):
    nvars, gens = ideal
    names = [f"x{k + 1}" for k in range(nvars)]
    pres = IdealPresentation.from_terms(
        names, [{e: Fraction(c) for e, c in g.items()} for g in gens])
    mine = monic_basis(groebner_basis(pres))
    symbols = sympy.symbols(names)
    polys = [sympy.Poly.from_dict(g, *symbols, domain="QQ").as_expr()
             for g in gens]
    ref = sympy.groebner(polys, *symbols, order="grevlex", domain="QQ")
    theirs = sorted(
        tuple(sorted((m, Fraction(str(c))) for m, c in p.terms()))
        for p in (sympy.Poly(q, *symbols, domain="QQ") for q in ref.exprs)
        if not p.is_zero)
    assert mine == theirs
