import itertools
import random
from fractions import Fraction

import pytest

from logjet.dimension import (EMPTY, Budgets, DimResult, GroebnerResult,
                              IdealPresentation, dimension_of,
                              fp_count_points, fp_dimension_estimate,
                              groebner_basis, groebner_dimension, krull_dim)
from logjet.errors import (PrimeTooSmallError, ResourceLimitError,
                           TooManyVariablesError, UnlocalizedLaurentError)
from logjet.poly import JetPoly, RingDescriptor
from logjet.strata import jet_presentation


def pres(variables, gens, **kw):
    return IdealPresentation.from_terms(variables, gens, **kw)


def F(x):
    return Fraction(x)


# -- Groebner basics -----------------------------------------------------------


def test_single_generator():
    p = pres(["x"], [{(2,): F(1)}])
    gb = groebner_basis(p)
    assert gb.basis == ((((2,), F(1)),),)
    assert krull_dim(gb).dimension == 0


def test_unit_ideal():
    p = pres(["x", "y"], [{(1, 1): F(1), (0, 0): F(-1)}, {(1, 0): F(1)}])
    gb = groebner_basis(p)
    assert gb.is_unit_ideal
    assert krull_dim(gb).dimension == EMPTY


def test_zero_ideal():
    p = pres(["x", "y", "z"], [])
    gb = groebner_basis(p)
    assert gb.basis == ()
    res = krull_dim(gb)
    assert res.dimension == 3
    assert res.certificate == ("x", "y", "z")


def test_fat_point_jet():
    # J_1 of V(s^2): generators s^2, s*s' after normalization
    p = pres(["a0", "a1"], [{(2, 0): F(1)}, {(1, 1): F(2)}])
    gb = groebner_basis(p)
    res = krull_dim(gb)
    assert res.dimension == 1
    assert res.certificate == ("a1",)


def test_reduced_basis_is_reduced_and_monic():
    # x^2+y^2-1, x*y-1 in grevlex
    p = pres(["x", "y"],
             [{(2, 0): F(1), (0, 2): F(1), (0, 0): F(-1)},
              {(1, 1): F(1), (0, 0): F(-1)}])
    gb = groebner_basis(p)
    leads = gb.leading_monomials()
    assert len(set(leads)) == len(leads)
    for g in gb.basis:
        lead = max((m for m, _c in g), key=lambda m: (sum(m), tuple(-e for e in reversed(m))))
        coeff = dict(g)[lead]
        assert coeff == 1
        # no term of any element is divisible by another leading monomial
        for other in leads:
            if other == lead:
                continue
            for m, _c in g:
                assert not all(a <= b for a, b in zip(other, m))


def test_groebner_deterministic():
    gens = [{(2, 0, 0): F(1), (0, 1, 1): F(-1)},
            {(1, 1, 0): F(1), (0, 0, 2): Fraction(-3, 2)},
            {(0, 3, 0): F(1), (1, 0, 1): F(5)}]
    a = groebner_basis(pres(["x", "y", "z"], gens))
    b = groebner_basis(pres(["x", "y", "z"], gens))
    assert a.basis == b.basis


def test_a1_jet_ideal_dimension():
    # x1x2 - x3^2 and its first jet equation: dim 4
    g1 = {(1, 1, 0, 0, 0, 0): F(1), (0, 0, 2, 0, 0, 0): F(-1)}
    g2 = {(1, 0, 0, 0, 1, 0): F(1), (0, 1, 0, 1, 0, 0): F(1),
          (0, 0, 1, 0, 0, 1): F(-2)}
    p = pres(["x1", "x2", "x3", "y1", "y2", "y3"], [g1, g2])
    assert groebner_dimension(p).dimension == 4


def test_principal_ideal_codimension_one():
    rng = random.Random(5)
    for _ in range(8):
        k = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(2, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(k))
            terms[mono] = terms.get(mono, F(0)) + F(rng.randint(-3, 3))
        terms = {m: c for m, c in terms.items() if c}
        if not terms or all(sum(m) == 0 for m in terms):
            continue
        p = pres([f"v{i}" for i in range(k)], [terms])
        assert groebner_dimension(p).dimension == k - 1


def test_dimension_monotone_under_new_generators():
    rng = random.Random(9)
    for _ in range(6):
        k = rng.randint(2, 4)
        gens = []
        last = k
        for _step in range(3):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(k))
                terms[mono] = terms.get(mono, F(0)) + F(rng.randint(-2, 2))
            terms = {m: c for m, c in terms.items() if c}
            if not terms:
                continue
            gens.append(terms)
            res = groebner_dimension(pres([f"v{i}" for i in range(k)],
                                          list(gens)))
            d = res.dimension
            value = -1 if d == EMPTY else d
            assert value <= last
            last = value


def test_variable_budget():
    names = [f"v{i}" for i in range(20)]
    with pytest.raises(ResourceLimitError):
        groebner_basis(pres(names, [{tuple([1] + [0] * 19): F(1)}]))


def test_pair_budget():
    gens = [{(2, 0, 0): F(1), (0, 1, 1): F(-1)},
            {(1, 1, 0): F(1), (0, 0, 2): F(-1)},
            {(0, 3, 0): F(1), (1, 0, 1): F(1)}]
    with pytest.raises(ResourceLimitError):
        groebner_basis(pres(["x", "y", "z"], gens), Budgets(max_pairs=1))


def test_laurent_refused_without_localization():
    with pytest.raises(UnlocalizedLaurentError):
        pres(["x"], [{(-1,): F(1)}])


def test_laurent_cleared_with_localization():
    ring = RingDescriptor(2)
    system = [JetPoly.monomial(ring, (-1, 0)) + 1,
              JetPoly.monomial(ring, (1, 1)) - 1]
    p = jet_presentation(("x", "w"), system, 0, "x^-1 + 1 with w*x = 1",
                         localized=True)
    # cleared generator is 1 + x; with w*x = 1 the zero set is x = -1, w = -1
    assert dict(p.generators[0]) == {(0, 0): 1, (1, 0): 1}
    assert groebner_dimension(p).dimension == 0


def test_generators_stored_primitive():
    # -3/2 x + 3 y  ->  x - 2 y: no denominators, content 1, positive lead
    p = pres(["x", "y"], [{(1, 0): Fraction(-3, 2), (0, 1): F(3)},
                          {(0, 0): F(0)}])
    assert p.generators == ((((0, 1), -2), ((1, 0), 1)),)
    assert all(type(c) is int for g in p.generators for _m, c in g)


# -- the independent-set search ------------------------------------------------


def scan_krull_dim(gb):
    """Reference: every variable subset, largest first, in combination
    order; the first one holding no leading support is the certificate."""
    if gb.is_unit_ideal:
        return DimResult(EMPTY, "groebner", certificate=())
    lead_masks = [sum(1 << k for k, e in enumerate(lm) if e)
                  for lm in gb.leading_monomials()]
    nvars = len(gb.variables)
    for size in range(nvars, -1, -1):
        for combo in itertools.combinations(range(nvars), size):
            mask = sum(1 << k for k in combo)
            if all(lm & ~mask for lm in lead_masks):
                names = tuple(gb.variables[k] for k in combo)
                return DimResult(size, "groebner", certificate=names)


def leads_only(variables, leading_monomials):
    """A GroebnerResult whose elements are just the given monomials."""
    return GroebnerResult(tuple(variables),
                          tuple(((m, F(1)),) for m in leading_monomials), 0)


def test_search_certificate_is_the_first_largest_set():
    # supports {a,b}, {b,c}, {c,d}: the largest independent sets are
    # {a,c}, {a,d} and {b,d}, and {a,c} comes first in combination order
    gb = leads_only("abcd", [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
    res = krull_dim(gb)
    assert (res.dimension, res.certificate) == (2, ("a", "c"))
    assert res == scan_krull_dim(gb)


def test_search_at_the_variable_cap():
    # 18 linear leading terms: dimension 0, the old scan's worst case
    names = [f"v{i}" for i in range(18)]
    gens = [{tuple(int(j == i) for j in range(18)): F(1),
             tuple([0] * 18): F(-i)} for i in range(18)]
    gb = groebner_basis(pres(names, gens))
    assert len(gb.basis) == 18
    assert krull_dim(gb) == DimResult(0, "groebner", certificate=())


# -- F_p counting -----------------------------------------------------------------


def test_fp_count_curve():
    # the cuspidal cubic is parametrized by t -> (t^3, t^2): exactly p points
    p = pres(["x", "y"], [{(2, 0): F(1), (0, 3): F(-1)}])
    assert fp_count_points(p, 101) == 101
    res = fp_dimension_estimate(p, primes=(101, 103, 107))
    assert res.dimension == 1
    assert res.certificate == {101: 101, 103: 103, 107: 107}
    assert not res.unreliable


def test_fp_count_full_space():
    p = pres(["x", "y"], [])
    assert fp_count_points(p, 101) == 101 ** 2
    assert fp_dimension_estimate(p, primes=(101,)).dimension == 2


def test_fp_count_empty():
    p = pres(["x"], [{(0,): F(1)}])
    assert fp_count_points(p, 101) == 0
    assert fp_dimension_estimate(p, primes=(101, 103, 107)).dimension == EMPTY


def test_fp_linear_closed_form():
    # one linear equation in 3 variables: p^2 points
    p = pres(["x", "y", "z"],
             [{(1, 0, 0): F(1), (0, 1, 0): F(2), (0, 0, 1): F(3),
               (0, 0, 0): F(-1)}])
    assert fp_count_points(p, 101) == 101 ** 2


def test_fp_prime_too_small():
    p = pres(["x"], [{(1,): F(1)}], jet_order=5)
    with pytest.raises(PrimeTooSmallError):
        fp_dimension_estimate(p, primes=(5,))


def test_fp_bad_reduction_refused():
    # (101x + y, y) = (x, y) is a point, but mod 101 it reduces to (y), a line
    p = pres(["x", "y"], [{(1, 0): F(101), (0, 1): F(1)}, {(0, 1): F(1)}])
    assert groebner_dimension(p).dimension == 0
    with pytest.raises(PrimeTooSmallError, match="generator 0"):
        fp_count_points(p, 101)
    with pytest.raises(PrimeTooSmallError):
        fp_dimension_estimate(p, primes=(101,))
    assert fp_dimension_estimate(p, primes=(103,)).dimension == 0


@pytest.mark.parametrize("coeff", [Fraction(1, 101), F(101)])
def test_fp_prime_judged_on_the_primitive_generator(coeff):
    # x/101 and 101x both generate (x): the prime 101 is as good as any
    p = pres(["x"], [{(1,): coeff}])
    res = fp_dimension_estimate(p, primes=(101,))
    assert res == DimResult(0, "fp_count", certificate={101: 1})


def test_fp_too_many_variables():
    names = [f"v{i}" for i in range(9)]
    p = pres(names, [{tuple([1] + [0] * 8): F(1)}])
    with pytest.raises(TooManyVariablesError):
        fp_dimension_estimate(p, primes=(101,))


def test_fp_matches_groebner_on_quadric():
    g1 = {(1, 1, 0, 0, 0, 0): F(1), (0, 0, 2, 0, 0, 0): F(-1)}
    g2 = {(1, 0, 0, 0, 1, 0): F(1), (0, 1, 0, 1, 0, 0): F(1),
          (0, 0, 1, 0, 0, 1): F(-2)}
    p = pres(["x1", "x2", "x3", "y1", "y2", "y3"], [g1, g2], jet_order=1)
    exact = groebner_dimension(p).dimension
    fp = fp_dimension_estimate(p, primes=(101, 103, 107))
    assert exact == 4 and fp.dimension == 4


def test_dimension_of_both_records_agreement():
    p = pres(["x", "y"], [{(2, 0): F(1), (0, 3): F(-1)}])
    res = dimension_of(p, method="both")
    assert res.dimension == 1
    assert res.certificate["fp_agrees"] is True
