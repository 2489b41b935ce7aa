import hashlib
import heapq
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from logjet import dimension
from logjet.analyzer import ordinary_jet_presentation
from logjet.chartfile import load_chart
from logjet.dimension import (EMPTY, Budgets, DimResult, GroebnerResult,
                              IdealPresentation, _heap_key, _lead,
                              _mono_div, _mono_divides, _mono_mul,
                              _LeadIndex, _normal_form, _normalize,
                              _Reductor, dimension_of, fp_count_points,
                              fp_dimension_estimate, groebner_basis,
                              krull_dim)
from logjet.errors import (PrimeTooSmallError, ResourceLimitError,
                           TooManyVariablesError, UnlocalizedLaurentError)
from logjet.strata import StratumPresentation, stratum_jet_presentation

BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"


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
    assert dimension_of(p).dimension == 4


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
        assert dimension_of(p).dimension == k - 1


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
            res = dimension_of(pres([f"v{i}" for i in range(k)],
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


def test_work_bound_is_read_at_call_time(monkeypatch):
    """a2's J_2 takes 22068 term operations and J_3 far more: under a
    bound of 100000 the first decides and the second is refused, with a
    message that names no pair, variable or degree budget."""
    monkeypatch.setattr(dimension, "MAX_GROEBNER_WORK", 100_000)
    a2, _options = load_chart(BENCH_CHARTS / "a2.json")
    assert dimension_of(ordinary_jet_presentation(a2, 2)).dimension == 6
    with pytest.raises(ResourceLimitError) as err:
        groebner_basis(ordinary_jet_presentation(a2, 3))
    text = str(err.value)
    assert text == ("Groebner work bound 100000 term operations exceeded "
                    "(J_3 of chart equations)")
    assert not any(word in text for word in ("pair", "variables", "degree"))


def test_lead_columns_are_charged_before_they_grow():
    """A lead adds one column entry per exponent step past the columns'
    ends, each a unit of work, and a lead over the bound adds none."""
    index = _LeadIndex(2)
    index.append(_Reductor({(1000, 0): 1, (0, 1): -1}))
    assert index.work == 1000 and len(index.cols[0]) == 1001
    with pytest.raises(ResourceLimitError, match="Groebner work bound"):
        index.append(_Reductor({(10 ** 9, 0): 1, (0, 1): -1}))
    assert len(index.cols[0]) == 1001 and len(index.elements) == 1


def test_laurent_refused_without_localization():
    with pytest.raises(UnlocalizedLaurentError):
        pres(["x"], [{(-1,): F(1)}])


def test_laurent_cleared_with_localization():
    system = ({(-1, 0): 1, (0, 0): 1}, {(1, 1): 1, (0, 0): -1})
    face = SimpleNamespace(generator_indices=())   # read for the provenance
    p = stratum_jet_presentation(
        StratumPresentation(face, 1, ("x", "w"), system), 0)
    # cleared generator is 1 + x; with w*x = 1 the zero set is x = -1, w = -1
    assert {tuple(sorted(zip(p.variables, exps))): c
            for exps, c in p.generators[0]} == {
        (("w", 0), ("x", 0)): 1, (("w", 0), ("x", 1)): 1}
    assert dimension_of(p).dimension == 0


def test_generators_stored_primitive():
    # -3/2 x + 3 y  ->  x - 2 y: no denominators, content 1, positive lead
    p = pres(["x", "y"], [{(1, 0): Fraction(-3, 2), (0, 1): F(3)},
                          {(0, 0): F(0)}])
    assert p.generators == ((((0, 1), -2), ((1, 0), 1)),)
    assert all(type(c) is int for g in p.generators for _m, c in g)


# -- integer pseudo-reduction -------------------------------------------------


def fraction_normal_form(p, reductors):
    """Reference: the reduction over Fraction against monic reductors that
    the engine used before integer pseudo-reduction.

    p and each reductor are integer term dicts; the first reductor whose
    leading monomial divides the current leading term reduces it, as in
    _normal_form.  Returns the primitive integer form of the remainder.
    """
    monic = []
    for terms in reductors:
        lead = _lead(terms)
        lc = Fraction(terms[lead])
        monic.append((lead, [(m, Fraction(c) / lc)
                             for m, c in terms.items() if m != lead]))
    val = {m: Fraction(c) for m, c in p.items()}
    heap = [(_heap_key(m), m) for m in val]
    heapq.heapify(heap)
    result = {}
    while heap:
        _hk, lm = heapq.heappop(heap)
        cf = val.pop(lm, None)
        if cf is None or cf == 0:
            continue  # stale entry or cancelled term
        hit = next(((lead, tail) for lead, tail in monic
                    if _mono_divides(lead, lm)), None)
        if hit is None:
            result[lm] = cf
            continue
        shift = _mono_div(lm, hit[0])
        for bm, bc in hit[1]:
            mm = _mono_mul(bm, shift)
            if mm not in val:
                heapq.heappush(heap, (_heap_key(mm), mm))
            val[mm] = val.get(mm, 0) - cf * bc
    denom = math.lcm(*(c.denominator for c in result.values()))
    return _normalize({m: int(c * denom) for m, c in result.items()})


def integer_normal_form(p, reductors):
    """_normal_form modulo the given term dicts, all alive, in order."""
    index = _LeadIndex(len(next(iter(reductors[0]))))
    for terms in reductors:
        index.append(_Reductor(terms))
    return _normal_form(p, index, index.alive)


def test_pseudo_reduction_scales_the_result_too():
    # x + y mod 2y - 1 is x + 1/2, primitive 2x + 1; leaving the term x
    # already in the result unscaled would give x + 1
    p = {(1, 0): 1, (0, 1): 1}
    red = {(0, 1): 2, (0, 0): -1}
    assert integer_normal_form(p, [red]) == {(1, 0): 2, (0, 0): 1}
    assert fraction_normal_form(p, [red]) == {(1, 0): 2, (0, 0): 1}


def test_pseudo_reduction_cancels_by_the_gcd():
    # 6x^2 mod 4x - 2: 6x^2 -> 3x -> 3/2, primitive 1
    assert integer_normal_form({(2,): 6}, [{(1,): 4, (0,): -2}]) == \
        {(0,): 1}
    # a negative leading coefficient: x*y + 1 mod -3x + y
    p, red = {(1, 1): 1, (0, 0): 1}, {(1, 0): -3, (0, 1): 1}
    assert integer_normal_form(p, [red]) == fraction_normal_form(p, [red])
    assert integer_normal_form(p, [red]) == {(0, 2): 1, (0, 0): 3}


def test_reductor_finds_a_lead_that_is_not_its_first_key():
    # 2y - 1 written constant first: the reductor must still reduce by y
    red = _Reductor({(0, 0): -1, (0, 1): 2})
    assert (red.lead, red.lc) == ((0, 1), 2)
    assert integer_normal_form({(1, 0): 1, (0, 1): 1},
                               [{(0, 0): -1, (0, 1): 2}]) == \
        {(1, 0): 2, (0, 0): 1}


def test_normal_form_of_zero_and_of_a_multiple():
    red = {(1, 1): 3, (0, 0): 5}
    assert integer_normal_form({}, [red]) == {}
    assert integer_normal_form({(1, 1): 6, (0, 0): 10}, [red]) == {}


def test_cusp_third_jets_large_coefficients():
    """Regression pin: the reduced basis of J_3 of x1^2 - x2^3, whose
    monic coefficients reach 2032 and 1/20655."""
    chart, _opts = load_chart(BENCH_CHARTS / "cusp.json")
    gb = groebner_basis(ordinary_jet_presentation(chart, 3))
    coeffs = [c for g in gb.basis for _m, c in g]
    assert (gb.pairs_processed, len(gb.basis)) == (176, 45)
    assert max(abs(c.numerator) for c in coeffs) == 2032
    assert max(c.denominator for c in coeffs) == 20655
    assert hashlib.sha256(repr(gb.basis).encode()).hexdigest() == (
        "7406100b90960e743cc77f1fffacd877006d1dfd43259c20591cfa05580e5009")
    assert krull_dim(gb).dimension == 4


# -- the independent-set search ------------------------------------------------


def scan_krull_dim(gb):
    """Reference: every variable subset, largest first, in combination
    order; the first one holding no leading support is the certificate."""
    if gb.is_unit_ideal:
        return DimResult(EMPTY, certificate=())
    lead_masks = [sum(1 << k for k, e in enumerate(lm) if e)
                  for lm in gb.leading_monomials()]
    nvars = len(gb.variables)
    for size in range(nvars, -1, -1):
        for combo in itertools.combinations(range(nvars), size):
            mask = sum(1 << k for k in combo)
            if all(lm & ~mask for lm in lead_masks):
                names = tuple(gb.variables[k] for k in combo)
                return DimResult(size, certificate=names)


def leads_only(variables, leading_monomials):
    """A GroebnerResult whose leads are just the given monomials."""
    return GroebnerResult(tuple(variables), tuple(leading_monomials), 0)


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
    assert krull_dim(gb) == DimResult(0, certificate=())


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
    assert dimension_of(p).dimension == 0
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
    assert res == DimResult(0, certificate={101: 1})


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
    exact = dimension_of(p).dimension
    fp = fp_dimension_estimate(p, primes=(101, 103, 107))
    assert exact == 4 and fp.dimension == 4


def test_fp_tie_goes_to_the_first_prime():
    """(s^4+4s^2+3, s^2 z+z) = V(s^2+1) u V(s^2+3, z) in (s, y, z): a plane
    pair and a line pair.  -1 is a square mod 101 only and -3 mod 103 only,
    so the three primes read 2, 1 and EMPTY; the tie goes to 101, whatever
    the hash seed."""
    p = pres(["s", "y", "z"],
             [{(4, 0, 0): F(1), (2, 0, 0): F(4), (0, 0, 0): F(3)},
              {(2, 0, 1): F(1), (0, 0, 1): F(1)}])
    assert dimension_of(p).dimension == 2
    res = fp_dimension_estimate(p)
    assert res.certificate == {101: 20402, 103: 206, 107: 0}
    assert res.dimension == 2 and res.unreliable is True
