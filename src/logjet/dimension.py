"""Exact Krull dimension of polynomial ideals, plus an F_p witness recheck.

The main path is Buchberger's algorithm (degrevlex, product and chain
criteria, normal selection) on primitive integer polynomials, reducing by
integer pseudo-division (no rational arithmetic).  Reductors are found
through a bitset index of the leading monomials (_LeadIndex): the leads
dividing a monomial are one AND of per-variable columns, and the lowest set
bit is the first alive divisor in element order.  A dimension needs only
the minimal leading monomials, the leads of the alive elements when the
pair loop ends, so the run stops there; the reduced basis is built on
each read of GroebnerResult.basis.  Then comes the standard combinatorial
dimension count: dim V(I) is the number of variables minus a minimum
hitting set of the minimal leading-term supports.  A pruned
depth-first search over the variables finds it (at most 2^(nvars+1) nodes,
bounded by the Groebner variable cap).

Runaway inputs raise ResourceLimitError, never wrong answers.  Besides the
Budgets caps on the variables and the S-pairs, every run counts its term
operations and is refused past MAX_GROEBNER_WORK: the tail terms each
S-polynomial is built from, the tail terms each reduction step subtracts,
the pending and result terms each pseudo-division rescale multiplies, and
the entries each new lead adds to the index columns.  A term operation
counts 1 whatever the size of its coefficients; coefficient growth is not
counted.

dimension_of is the one dimension entry point, and it is exact.  Exact
F_p point counts (recursive enumeration with closed forms for linear
systems and univariate factors) and their estimate round(log_p count) only
recheck a REDUCIBLE witness; they never answer a dimension query.
"""

import heapq
import math
from fractions import Fraction
from math import gcd
from operator import add as _add, le as _le, sub as _sub
from typing import NamedTuple

from .errors import (PrimeTooSmallError, ResourceLimitError,
                     TooManyVariablesError, UnlocalizedLaurentError)
from .jets import degrevlex

DEFAULT_PRIMES = (101, 103, 107)

EMPTY = "EMPTY"

# Term operations one groebner_basis run may take (see the module
# docstring); read at call time.  The largest run of any corpus or test
# presentation, the cusp's J_4, takes 741,875, under a fifth of it; a2's
# J_3, whose remainders swell to thousands of terms, goes over it.
MAX_GROEBNER_WORK = 4_000_000
# Search nodes one F_p point count may visit; read at call time.
MAX_FP_NODES = 500_000


class Budgets(NamedTuple):
    """Computation limits; exceeding any of them raises ResourceLimit.

    max_pairs bounds the S-pairs and max_groebner_vars the variables of one
    groebner_basis run, fp_max_vars the variables of the F_p recount.  The
    term work of a run and the search nodes of an F_p count have one bound
    each for every run, MAX_GROEBNER_WORK and MAX_FP_NODES, not fields here.
    """

    max_pairs: int = 50_000
    max_groebner_vars: int = 18
    fp_max_vars: int = 8


class IdealPresentation(NamedTuple):
    """Variables plus generating polynomials with nonnegative exponents.

    generators: tuple of primitive integer polynomials, each a sorted tuple
    ((exponents, int), ...) with content 1 and a positive degrevlex leading
    coefficient.  This is the form the Groebner engine and the F_p counter
    consume; build it with from_terms.
    """

    variables: tuple
    generators: tuple
    provenance: str = ""
    jet_order: int = 0

    @classmethod
    def from_terms(cls, variables, raw_generators, provenance="",
                   jet_order=0):
        """Build a presentation from raw generators.

        Each raw generator is a mapping exponent-tuple -> coefficient (an
        int or a Fraction).  It is stored in its primitive integer form (no
        denominators, content 1, positive leading coefficient); zero
        generators are dropped.  Laurent input must be cleared by the
        caller (strata.stratum_jet_presentation does it against the
        inverted locus): a negative exponent raises UnlocalizedLaurentError.
        """
        variables = tuple(variables)
        gens = []
        for gi, raw in enumerate(raw_generators):
            terms = {e: c for e, c in raw.items() if c != 0}
            if not terms:
                continue
            if any(min(e, default=0) < 0 for e in terms):
                raise UnlocalizedLaurentError(
                    f"generator {gi} of {provenance or 'presentation'} "
                    "has negative exponents and no inversion is present")
            denom = math.lcm(*(c.denominator for c in terms.values()))
            ints = {e: c.numerator * (denom // c.denominator)
                    for e, c in terms.items()}
            content = gcd(*ints.values())
            if ints[_lead(ints)] < 0:
                content = -content
            gens.append(tuple(sorted((e, c // content)
                                     for e, c in ints.items())))
        return cls(variables, tuple(gens), provenance, jet_order)


# -- internal integer polynomials --------------------------------------------
#
# A polynomial is a dict exponent-tuple -> int, content-free with positive
# leading coefficient, ordered by jets.degrevlex.  Every polynomial
# _normal_form returns is lead-first: it moves terms to its result in
# descending order, so _normalize reads the sign from the first term.  Only
# from_terms (once per generator) and _Reductor (once per basis element)
# search for a lead.


def _support_mask(mono):
    mask = 0
    for k, e in enumerate(mono):
        if e:
            mask |= 1 << k
    return mask


def _lead(terms):
    return max(terms, key=degrevlex)


def _normalize(terms):
    """Strip integer content and force a positive leading coefficient on a
    lead-first polynomial."""
    if not terms:
        return terms
    g = gcd(*terms.values())
    sign = -1 if next(iter(terms.values())) < 0 else 1
    if g == 1 and sign == 1:
        return terms
    g *= sign
    return {m: c // g for m, c in terms.items()}


def _mono_mul(a, b):
    return tuple(map(_add, a, b))


def _mono_divides(a, b):
    return all(map(_le, a, b))


def _mono_div(a, b):
    return tuple(map(_sub, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


class _Reductor:
    """One basis element as reduction data: its leading monomial, leading
    coefficient lc and the other terms (the tail), all with int
    coefficients.  The lead is found by one search over the terms, so any
    term dict will do."""

    __slots__ = ("lead", "lc", "degree", "tail")

    def __init__(self, terms):
        lead = _lead(terms)
        self.lead = lead
        self.lc = terms[lead]
        self.degree = sum(lead)
        self.tail = [(m, c) for m, c in terms.items() if m != lead]


class _LeadIndex:
    """Reductors in element order, with their leads as bitset columns.

    Bit t of cols[k][e] is set when the lead of elements[t] has exponent
    <= e in variable k.  cols[k] ends at the largest exponent any lead has
    in variable k, so its last entry holds every element, and a larger
    exponent constrains nothing.  alive is the bitset of the elements that
    may reduce.

    work is the term operations of the run the index belongs to, named
    provenance in its refusal: append charges the entries a column gains,
    before it extends the column.  A refused run drops its index.
    """

    __slots__ = ("elements", "cols", "alive", "work", "provenance")

    def __init__(self, nvars, provenance=""):
        self.elements = []
        self.cols = [[0] for _ in range(nvars)]
        self.alive = 0
        self.work = 0
        self.provenance = provenance

    def charge(self, units):
        """Add units to the run's work; a run over MAX_GROEBNER_WORK is
        refused."""
        self.work += units
        if self.work > MAX_GROEBNER_WORK:
            raise ResourceLimitError(
                f"Groebner work bound {MAX_GROEBNER_WORK} term operations "
                f"exceeded ({self.provenance})")

    def append(self, red, alive=True):
        bit = 1 << len(self.elements)
        for col, e in zip(self.cols, red.lead):
            if e >= len(col):
                self.charge(e + 1 - len(col))
                col.extend([col[-1]] * (e + 1 - len(col)))
            for x in range(e, len(col)):
                col[x] |= bit
        self.elements.append(red)
        if alive:
            self.alive |= bit

    def reductor(self, mono, usable):
        """The first element in the bitset usable whose lead divides mono,
        or None: the lowest set bit of usable AND one column entry per
        variable."""
        for col, e in zip(self.cols, mono):
            if e < len(col):
                usable &= col[e]
        if not usable:
            return None
        return self.elements[(usable & -usable).bit_length() - 1]

    def multiples(self, mono):
        """Bitset of the alive elements whose lead mono divides: those with
        no exponent below mono's, the complement of cols[k][e - 1]."""
        found = self.alive
        for col, e in zip(self.cols, mono):
            if e:
                found &= ~col[min(e - 1, len(col) - 1)]
        return found


def _heap_key(mono):
    # min-heap entry whose order reverses degrevlex (max first)
    return (-sum(mono), tuple(reversed(mono)))


def _normal_form(p, index, usable, charged=True):
    """Full normal form of the integer polynomial p modulo the elements of
    the index in the bitset usable; each term is reduced by the first
    usable element whose lead divides it.  When charged, each step's term
    operations go to the index's work.

    Integer pseudo-reduction: to cancel a term c*lm against a reductor with
    leading coefficient L, g = gcd(c, L), the pending terms and the terms
    already moved to the result are multiplied by L/g, and (c/g) times the
    shifted reductor tail is subtracted.  That is the rational normal form
    times a nonzero integer, so the primitive result with positive leading
    coefficient equals the primitive form of the rational normal form.  The
    pending polynomial is a coefficient dict plus a lazy max-heap of its
    monomials.
    """
    val = dict(p)
    heap = [(_heap_key(m), m) for m in val]
    heapq.heapify(heap)
    result = {}
    while heap:
        _hk, lm = heapq.heappop(heap)
        cf = val.pop(lm, None)
        if cf is None:
            continue  # stale entry
        hit = index.reductor(lm, usable)
        if hit is None:
            result[lm] = cf
            continue
        g = gcd(cf, hit.lc)
        scale = hit.lc // g
        if scale != 1:
            if charged:
                index.charge(len(val) + len(result))
            val = {m: c * scale for m, c in val.items()}
            result = {m: c * scale for m, c in result.items()}
        cf //= g
        if charged:
            index.charge(len(hit.tail))
        shift = _mono_div(lm, hit.lead)
        # tail monomials are strictly below lm, hence never already final
        for bm, bc in hit.tail:
            mm = _mono_mul(bm, shift)
            old = val.get(mm)
            if old is None:
                val[mm] = -cf * bc
                heapq.heappush(heap, (_heap_key(mm), mm))
            else:
                s = old - cf * bc
                if s == 0:
                    del val[mm]
                else:
                    val[mm] = s
    return _normalize(result)


def _alive(index):
    """Positions of the index's alive elements, ascending in degrevlex
    order of their leads."""
    return sorted((t for t in range(len(index.elements))
                   if index.alive >> t & 1),
                  key=lambda t: degrevlex(index.elements[t].lead))


def _reduced_basis(index):
    """Each alive element reduced by the others and made monic over
    Fraction; the reduced basis is unique, so any reductor order gives the
    same one.  It is read after the run, so it charges no work."""
    monic = []
    for t in _alive(index):
        e = index.elements[t]
        terms = _normal_form({e.lead: e.lc, **dict(e.tail)}, index,
                             index.alive & ~(1 << t), charged=False)
        lc = terms[e.lead]
        monic.append(tuple(sorted(
            (m, Fraction(c, lc)) for m, c in terms.items())))
    return tuple(monic)


class GroebnerResult(NamedTuple):
    """A finished Buchberger run: its minimal leading monomials, and the
    reduced basis with monic Fraction coefficients, built on each read.

    leads are the leading monomials of the reduced basis in its ascending
    degrevlex order, which are the minimal generators of the lead ideal;
    a dimension needs only them.  basis inter-reduces the alive elements
    of index, the run's _LeadIndex; nothing keeps it, so read it once.
    work is the run's count of term operations (see MAX_GROEBNER_WORK).
    """

    variables: tuple
    leads: tuple                # minimal leading monomials, ascending
    pairs_processed: int
    work: int = 0
    provenance: str = ""
    index: object = None        # the run's _LeadIndex

    @property
    def basis(self):
        """tuple of term-tuples ((mono, Fraction), ...), ascending by lead"""
        return _reduced_basis(self.index)

    def leading_monomials(self):
        return self.leads

    @property
    def is_unit_ideal(self):
        """The zero monomial is a lead (then it is the only one)."""
        return any(not any(m) for m in self.leads)


def check_variables(nvars, provenance, budgets):
    """The ResourceLimitError of groebner_basis for nvars variables over
    the Groebner bound, raised for a presentation named provenance."""
    if nvars > budgets.max_groebner_vars:
        raise ResourceLimitError(
            f"{nvars} variables exceeds the Groebner bound "
            f"{budgets.max_groebner_vars} ({provenance})")


def groebner_basis(pres, budgets=None):
    """Degrevlex Groebner basis of the presentation's ideal, as a
    GroebnerResult: the minimal leads now, the reduced basis on each read.

    Buchberger with the Gebauer-Moeller pair update (product and chain
    criteria applied eagerly) and normal selection (smallest lcm first).
    Every generator and every nonzero remainder becomes an element of one
    list, which the pairs index.  The alive elements are exactly the
    minimal leading monomials: a new element is born dead when an alive
    lead divides its lead (a generator is not reduced on entry, so this
    can happen), and otherwise it retires the alive elements whose leads
    its own lead divides.  The run ends with the pair loop: the alive leads
    are the leads of the reduced basis, and the result builds that basis,
    each alive element reduced by the others, only when it is read.

    A _LeadIndex holds the elements; its columns and alive bitset answer
    every divisibility query against the leads (reductor, born dead,
    retired).  Reduction takes the lowest set bit of the usable divisors,
    which is the first alive divisor in element order, so the remainders,
    and with them the pairs and the basis, do not depend on the index.
    The index also counts the run's term work; past MAX_GROEBNER_WORK the
    run raises ResourceLimitError, as it does past either Budgets cap.
    """
    budgets = budgets or Budgets()
    nvars = len(pres.variables)
    check_variables(nvars, pres.provenance, budgets)
    index = _LeadIndex(nvars, pres.provenance)
    elements = index.elements  # _Reductor per generator and remainder
    pairs = {}            # (i, j) -> lcm monomial, i < j
    heap = []             # (lcm key, i, j) with lazy deletion

    def add_element(new):
        """Gebauer-Moeller update of the pair set for one new element."""
        t = len(elements)
        lmt = new.lead
        lcms = [_mono_lcm(e.lead, lmt) for e in elements]
        # scan candidates by increasing lcm degree, then index: a linear
        # extension of divisibility, so a kept candidate whose lcm divides a
        # later one (equality included) eliminates it.  Coprime candidates
        # are kept only as pruners and never become pairs.
        kept = []
        for deg, g in sorted((sum(lcm), g) for g, lcm in enumerate(lcms)):
            lcm_g = lcms[g]
            if any(_mono_divides(lcm2, lcm_g) for lcm2, _g2, _d2 in kept):
                continue
            kept.append((lcm_g, g, deg))
        # chain criterion on old pairs: drop (i, j) when the new leading
        # monomial divides lcm(i, j) and neither new pair shares that lcm
        for (i, j) in list(pairs):
            lcm_ij = pairs[(i, j)]
            if (_mono_divides(lmt, lcm_ij) and lcms[i] != lcm_ij
                    and lcms[j] != lcm_ij):
                del pairs[(i, j)]
        alive = index.reductor(lmt, index.alive) is None
        if alive:
            # anything a retired element reduces, the new one does
            index.alive &= ~index.multiples(lmt)
        index.append(new, alive)
        for lcm_g, g, deg in kept:
            if deg == elements[g].degree + new.degree:
                continue  # coprime leads
            pairs[(g, t)] = lcm_g
            heapq.heappush(heap, (degrevlex(lcm_g), g, t))

    for gen in pres.generators:
        add_element(_Reductor(dict(gen)))

    pairs_processed = 0
    while pairs:
        _lcm_key, i, j = heapq.heappop(heap)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue  # stale heap entry
        pairs_processed += 1
        if pairs_processed > budgets.max_pairs:
            raise ResourceLimitError(
                f"S-pair budget {budgets.max_pairs} exceeded "
                f"({pres.provenance})")
        # S-polynomial ai*(lcm/lmi)*fi - aj*(lcm/lmj)*fj, d = gcd(ci, cj);
        # the leading terms cancel, so only the tails contribute
        ei, ej = elements[i], elements[j]
        index.charge(len(ei.tail) + len(ej.tail))
        d = gcd(ei.lc, ej.lc)
        ai, aj = ej.lc // d, ei.lc // d
        si, sj = _mono_div(lcm, ei.lead), _mono_div(lcm, ej.lead)
        spoly = {_mono_mul(m, si): c * ai for m, c in ei.tail}
        for m, c in ej.tail:
            mm = _mono_mul(m, sj)
            s = spoly.get(mm, 0) - c * aj
            if s == 0:
                spoly.pop(mm, None)
            else:
                spoly[mm] = s
        if not spoly:
            continue
        # strip the content; _normal_form's final _normalize fixes the sign
        content = gcd(*spoly.values())
        if content != 1:
            spoly = {m: c // content for m, c in spoly.items()}
        reduced = _normal_form(spoly, index, index.alive)
        if not reduced:
            continue
        add_element(_Reductor(reduced))

    leads = tuple(elements[t].lead for t in _alive(index))
    return GroebnerResult(pres.variables, leads, pairs_processed,
                          index.work, pres.provenance, index)


class DimResult(NamedTuple):
    """Dimension answer with its certificate.

    dimension is an int or the string EMPTY.  krull_dim results are exact,
    with the independent variable set as certificate.  F_p estimates carry
    the per-prime point counts, only recheck a REDUCIBLE witness, and are
    unreliable=True when the per-prime estimates disagree.
    """

    dimension: object
    certificate: object = None
    unreliable: bool = False


def krull_dim(gb):
    """Dimension from the minimal leading monomials of a Groebner basis:
    the largest independent variable set.  It reads gb.leading_monomials()
    and gb.is_unit_ideal, never gb.basis, so nothing is inter-reduced.

    A set S is independent when no leading monomial has support inside S;
    dim V(I) is the largest size of such a set (n minus a minimum hitting
    set of the minimal leading supports; Kredel & Weispfenning, JSC 1988).
    A depth-first search walks the variables in declared order, trying
    "include" before "exclude"; a variable is included only if no minimal
    support containing it falls inside the chosen set, and a branch that
    cannot beat the best size so far is pruned.  The search is at most
    nvars deep and visits at most 2^(nvars+1) nodes, and its certificate,
    the first largest set found, is the lexicographically first one.
    """
    nvars = len(gb.variables)
    if gb.is_unit_ideal:
        return DimResult(EMPTY, certificate=())
    masks = set(map(_support_mask, gb.leading_monomials()))
    minimal = [m for m in masks
               if not any(s != m and not s & ~m for s in masks)]
    blocking = [[s for s in minimal if s >> k & 1] for k in range(nvars)]
    best = [0, 0]  # size and mask of the best independent set so far

    def search(k, size, chosen):
        if size > best[0]:
            best[:] = size, chosen
        if size + nvars - k <= best[0]:
            return
        grown = chosen | 1 << k
        if all(s & ~grown for s in blocking[k]):
            search(k + 1, size + 1, grown)
        search(k + 1, size, chosen)

    search(0, 0, 0)
    size, chosen = best
    names = tuple(v for k, v in enumerate(gb.variables) if chosen >> k & 1)
    return DimResult(size, certificate=names)


def dimension_of(pres, budgets=None):
    """Exact dim V(I) from the minimal leads of its Groebner basis; a
    tripped budget raises ResourceLimitError.  F_p counts only recheck a
    REDUCIBLE witness."""
    return krull_dim(groebner_basis(pres, budgets))


# -- F_p point counting --------------------------------------------------------


def _fp_reduce(pres, p):
    """Generators modulo p.

    PrimeTooSmall when p does not exceed the jet order (the derivation's
    factorials) or divides a coefficient of a primitive generator: such a
    prime can change the variety (101*x + y at p = 101), so it is refused.
    """
    if p <= pres.jet_order:
        raise PrimeTooSmallError(
            f"prime {p} does not exceed the jet order {pres.jet_order}")
    polys = []
    for gi, gen in enumerate(pres.generators):
        if any(c % p == 0 for _m, c in gen):
            raise PrimeTooSmallError(
                f"prime {p} divides a coefficient of generator {gi}")
        polys.append({m: c % p for m, c in gen})
    return polys


def _substitute(poly, var, value, p):
    out = {}
    for mono, c in poly.items():
        e = mono[var]
        if e:
            c = (c * pow(value, e, p)) % p
            if c == 0:
                continue
            mono = mono[:var] + (0,) + mono[var + 1:]
        s = (out.get(mono, 0) + c) % p
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def _linear_count(polys, unassigned, p):
    """Count solutions when every generator has total degree <= 1.

    Returns p**(#unassigned - rank) or 0 when inconsistent.  Variables not
    appearing anywhere stay free.
    """
    cols = sorted(unassigned)
    col_of = {v: k for k, v in enumerate(cols)}
    rows = []
    for poly in polys:
        row = [0] * len(cols) + [0]
        for mono, c in poly.items():
            support = [k for k, e in enumerate(mono) if e]
            if not support:
                row[-1] = (row[-1] + c) % p
            else:
                row[col_of[support[0]]] = (row[col_of[support[0]]] + c) % p
        rows.append(row)
    # Gaussian elimination mod p
    rank_count = 0
    ncols = len(cols)
    for c in range(ncols):
        pivot = None
        for r in range(rank_count, len(rows)):
            if rows[r][c] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank_count], rows[pivot] = rows[pivot], rows[rank_count]
        inv = pow(rows[rank_count][c], p - 2, p)
        rows[rank_count] = [(x * inv) % p for x in rows[rank_count]]
        for r in range(len(rows)):
            if r != rank_count and rows[r][c] % p != 0:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p
                           for x, y in zip(rows[r], rows[rank_count])]
        rank_count += 1
    for row in rows:
        if all(x % p == 0 for x in row[:-1]) and row[-1] % p != 0:
            return 0
    return p ** (len(unassigned) - rank_count)


def _univariate_roots(poly, var, p):
    roots = []
    coeffs = {}
    for mono, c in poly.items():
        coeffs[mono[var]] = (coeffs.get(mono[var], 0) + c) % p
    for x in range(p):
        total = 0
        for e, c in coeffs.items():
            total = (total + c * pow(x, e, p)) % p
        if total == 0:
            roots.append(x)
    return roots


class _FpCounter:
    def __init__(self, p):
        self.p = p
        self.nodes = 0

    def count(self, polys, unassigned):
        self.nodes += 1
        if self.nodes > MAX_FP_NODES:
            raise ResourceLimitError(
                f"F_p node bound {MAX_FP_NODES} exceeded")
        p = self.p
        live = []
        for poly in polys:
            if not poly:
                continue
            if all(all(e == 0 for e in mono) for mono in poly):
                return 0  # nonzero constant
            live.append(poly)
        if not live:
            return p ** len(unassigned)
        if all(all(sum(mono) <= 1 for mono in poly) for poly in live):
            return _linear_count(live, unassigned, p)
        supports = [{k for mono in poly for k, e in enumerate(mono) if e}
                    for poly in live]
        # univariate generator: branch on its roots only
        for poly, support in zip(live, supports):
            if len(support) == 1:
                var = support.pop()
                total = 0
                for root in _univariate_roots(poly, var, p):
                    nxt = [_substitute(q, var, root, p) for q in live]
                    total += self.count(nxt, unassigned - {var})
                return total
        # branch on a variable from the generator with smallest support
        target = min(supports, key=lambda s: (len(s), sorted(s)))
        var = min(target)
        total = 0
        for value in range(p):
            nxt = [_substitute(q, var, value, p) for q in live]
            total += self.count(nxt, unassigned - {var})
        return total


def fp_count_points(pres, p):
    """Exact number of F_p points of V(I), within MAX_FP_NODES nodes."""
    return _FpCounter(p).count(_fp_reduce(pres, p),
                               set(range(len(pres.variables))))


def fp_dimension_estimate(pres, primes=None, budgets=None):
    """Majority-of-primes dimension estimate from exact point counts.

    The estimate is the value most primes give; a tie goes to the value
    of the earliest tied prime in primes (the smallest, for
    DEFAULT_PRIMES).  It is unreliable when the primes disagree.  Each
    prime must exceed the presentation's jet order (factorials in
    characteristic zero) and must not divide any coefficient of a
    generator; see _fp_reduce.
    """
    budgets = budgets or Budgets()
    primes = tuple(primes or DEFAULT_PRIMES)
    nvars = len(pres.variables)
    if nvars > budgets.fp_max_vars:
        raise TooManyVariablesError(
            f"{nvars} variables exceeds the F_p brute-force bound "
            f"{budgets.fp_max_vars}")
    table = {p: fp_count_points(pres, p) for p in primes}
    values = [EMPTY if count == 0 else round(math.log(count, p))
              for p, count in table.items()]
    return DimResult(max(values, key=values.count), certificate=table,
                     unreliable=len(set(values)) > 1)
