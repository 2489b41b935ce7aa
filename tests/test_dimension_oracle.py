"""Random inputs for the dimension engine against independent oracles: the
2^n subset scan for krull_dim, a linear scan for the lead index, reduction
over Fraction for _normal_form, and sympy for groebner_basis and its
leads."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from logjet.dimension import (IdealPresentation,  # noqa: E402
                              _LeadIndex, _mono_divides, _Reductor,
                              groebner_basis, krull_dim)
from logjet.jets import degrevlex  # noqa: E402

from test_dimension import (fraction_normal_form,  # noqa: E402
                            integer_normal_form, leads_only, scan_krull_dim)


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


@st.composite
def lead_sequences(draw):
    """Leads in 1-12 variables with exponents 0-5, the elements retired
    among them, and query monomials: random ones with exponents 0-7, the
    leads themselves, and one above every column's top."""
    nvars = draw(st.integers(1, 12))

    def monomials(top):
        return st.lists(st.integers(0, top), min_size=nvars,
                        max_size=nvars).map(tuple)

    leads = draw(st.lists(monomials(5), min_size=1, max_size=12))
    retired = draw(st.sets(st.integers(0, len(leads) - 1)))
    queries = draw(st.lists(monomials(7), max_size=6))
    return leads, retired, queries + leads + [(6,) * nvars]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(lead_sequences())
def test_lead_index_matches_a_linear_scan(case):
    """The reductor is the first usable divisor in element order, for the
    alive elements and for the alive elements but one (interreduction);
    multiples are the alive elements whose leads a monomial divides."""
    leads, retired, queries = case
    index = _LeadIndex(len(leads[0]))
    reductors = [_Reductor({lead: 1}) for lead in leads]
    for t, red in enumerate(reductors):
        index.append(red, alive=t not in retired)
    for mono in queries:
        for skip in (None, *range(len(leads))):
            usable = index.alive & ~(0 if skip is None else 1 << skip)
            first = next((red for t, red in enumerate(reductors)
                          if t not in retired and t != skip
                          and _mono_divides(red.lead, mono)), None)
            assert index.reductor(mono, usable) is first
        assert index.multiples(mono) == sum(
            1 << t for t, lead in enumerate(leads)
            if t not in retired and _mono_divides(mono, lead))


def polynomials(nvars, max_degree, bound, max_terms):
    """Integer term dicts: exponents of total degree <= max_degree,
    nonzero coefficients in [-bound, bound]."""
    exponent = st.lists(st.integers(0, max_degree), min_size=nvars,
                        max_size=nvars).map(tuple).filter(
                            lambda e: sum(e) <= max_degree)
    coeff = st.integers(-bound, bound).filter(bool)
    return st.dictionaries(exponent, coeff, min_size=1, max_size=max_terms)


@st.composite
def reductions(draw):
    """A polynomial and up to 3 reductors whose coefficients, leading
    ones included, range over [-7, 7]."""
    nvars = draw(st.integers(1, 3))
    p = draw(polynomials(nvars, 4, 7, 6))
    reductors = draw(st.lists(polynomials(nvars, 2, 7, 3), min_size=1,
                              max_size=3))
    return p, reductors


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(reductions())
def test_pseudo_reduction_matches_fraction_reduction(reduction):
    p, reductors = reduction
    assert integer_normal_form(p, reductors) == \
        fraction_normal_form(p, reductors)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def small_ideals(draw, max_vars=3, max_degree=3, bound=3):
    """Up to 3 generators of up to 3 terms in up to max_vars variables,
    degree <= max_degree, nonzero coefficients in [-bound, bound]."""
    nvars = draw(st.integers(1, max_vars))
    gens = draw(st.lists(polynomials(nvars, max_degree, bound, 3),
                         min_size=1, max_size=3))
    return nvars, gens


def monic_basis(gb):
    return sorted(tuple(sorted(g)) for g in gb.basis)


def presentation(nvars, gens):
    return IdealPresentation.from_terms(
        [f"x{k + 1}" for k in range(nvars)],
        [{e: Fraction(c) for e, c in g.items()} for g in gens])


def sympy_basis(sympy, ideal):
    """sympy's reduced grevlex basis over QQ, as nonzero Polys."""
    nvars, gens = ideal
    symbols = sympy.symbols([f"x{k + 1}" for k in range(nvars)])
    polys = [sympy.Poly.from_dict(g, *symbols, domain="QQ").as_expr()
             for g in gens]
    ref = sympy.groebner(polys, *symbols, order="grevlex", domain="QQ")
    return [p for p in (sympy.Poly(q, *symbols, domain="QQ")
                        for q in ref.exprs) if not p.is_zero]


def assert_matches_sympy(sympy, ideal):
    mine = monic_basis(groebner_basis(presentation(*ideal)))
    theirs = sorted(
        tuple(sorted((m, Fraction(str(c))) for m, c in p.terms()))
        for p in sympy_basis(sympy, ideal))
    assert mine == theirs


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(small_ideals())
# degrevlex puts x2^2 above x1 (lex does not) and x2^2*x3 above x1*x3^2
# (deglex does not)
@hypothesis.example(ideal=(2, [{(1, 0): 1, (0, 2): -1}]))
@hypothesis.example(ideal=(3, [{(0, 2, 1): -1, (1, 0, 2): 1},
                               {(1, 1, 0): 2, (0, 0, 1): 1}]))
def test_groebner_basis_matches_sympy(sympy, ideal):
    assert_matches_sympy(sympy, ideal)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(small_ideals(max_vars=4, max_degree=2, bound=7))
@hypothesis.example(ideal=(4, [{(1, 1, 0, 0): 7, (0, 0, 1, 0): -5},
                               {(0, 1, 1, 0): -6, (0, 0, 0, 1): 4},
                               {(1, 0, 0, 1): 3, (0, 0, 0, 0): 2}]))
def test_groebner_basis_matches_sympy_four_variables(sympy, ideal):
    """Leading coefficients in [-7, 7], so reductions scale often."""
    assert_matches_sympy(sympy, ideal)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(small_ideals())
def test_redundant_generators_leave_the_basis_unchanged(ideal):
    """Reversed generators plus a duplicate of the first and x1 times it:
    generators whose leads an earlier lead divides must not stay in the
    basis."""
    nvars, gens = ideal
    first = gens[0]
    shifted = {(e[0] + 1,) + e[1:]: c for e, c in first.items()}
    padded = gens[::-1] + [first, shifted]
    assert groebner_basis(presentation(nvars, padded)).basis == \
        groebner_basis(presentation(nvars, gens)).basis


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(small_ideals(max_vars=4, max_degree=2, bound=7))
@hypothesis.example(ideal=(2, [{(1, 1): 1, (0, 0): -1}, {(1, 0): 1}]))
def test_leads_are_those_of_the_reduced_basis_and_of_sympy(sympy, ideal):
    """leading_monomials() and is_unit_ideal, read before the reduced basis
    is built, are its leads in its order, and sympy's; the example is the
    unit ideal."""
    nvars = ideal[0]
    gb = groebner_basis(presentation(*ideal))
    leads, unit = gb.leading_monomials(), gb.is_unit_ideal
    assert leads == tuple(max((m for m, _c in g), key=degrevlex)
                          for g in gb.basis)
    assert unit == (leads == ((0,) * nvars,))
    theirs = [p.monoms(order="grevlex")[0] for p in sympy_basis(sympy, ideal)]
    assert sorted(leads) == sorted(theirs)
    assert unit == (theirs == [(0,) * nvars])
