"""Exact Krull dimension of polynomial ideals, plus an F_p counting check.

The main path is Buchberger's algorithm (degrevlex, product and chain
criteria, normal selection) over exact rationals, followed by the standard
combinatorial dimension count: dim V(I) is the number of variables minus a
minimum hitting set of the minimal leading-term supports.  A pruned
depth-first search over the variables finds it (at most 2^(nvars+1) nodes,
bounded by the Groebner variable cap).  Budgets on the S-pair count and the
total degree turn runaway inputs into ResourceLimit errors, never wrong
answers.

The independent fast path counts points of V(I) over small prime fields
exactly (recursive enumeration with closed forms for linear systems and
univariate factors) and estimates the dimension as round(log_p count).
F_p results never override the Groebner answer.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add as _add, le as _le, sub as _sub

from .errors import (PrimeTooSmallError, ResourceLimitError,
                     TooManyVariablesError, UnlocalizedLaurentError)

try:  # fast exact rationals for the reduction inner loop
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    _mpq = Fraction

DEFAULT_PRIMES = (101, 103, 107)

EMPTY = "EMPTY"


@dataclass(frozen=True)
class Budgets:
    """Computation limits; exceeding any of them raises ResourceLimit."""

    max_pairs: int = 50_000
    max_degree: int = 40
    max_groebner_vars: int = 18
    fp_max_vars: int = 8
    fp_node_budget: int = 500_000

    @classmethod
    def from_env_string(cls, text, base=None):
        base = base or cls()
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(
                f"budget override must be 'pairs,degree', got {text!r}")
        return cls(max_pairs=int(parts[0]), max_degree=int(parts[1]),
                   max_groebner_vars=base.max_groebner_vars,
                   fp_max_vars=base.fp_max_vars,
                   fp_node_budget=base.fp_node_budget)


@dataclass(frozen=True)
class IdealPresentation:
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
        caller (strata.jet_presentation does it against the inverted
        locus): a negative exponent raises UnlocalizedLaurentError.
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
            terms = _normalize({e: c.numerator * (denom // c.denominator)
                                for e, c in terms.items()})
            gens.append(tuple(sorted(terms.items())))
        return cls(variables, tuple(gens), provenance, jet_order)


# -- internal integer polynomials --------------------------------------------
#
# A polynomial is a dict exponent-tuple -> int, content-free with positive
# leading coefficient.  Degrevlex order key: (total degree, reversed negated
# exponents), so bigger key = bigger monomial.  Keys are memoized: the same
# exponent tuples recur constantly during a Groebner run.

_key_cache = {}


def _key(mono):
    k = _key_cache.get(mono)
    if k is None:
        k = (sum(mono), tuple(-e for e in reversed(mono)))
        _key_cache[mono] = k
        if len(_key_cache) > 400_000:
            _key_cache.clear()
    return k


_mask_cache = {}


def _support_mask(mono):
    mask = _mask_cache.get(mono)
    if mask is None:
        mask = 0
        for k, e in enumerate(mono):
            if e:
                mask |= 1 << k
        _mask_cache[mono] = mask
        if len(_mask_cache) > 400_000:
            _mask_cache.clear()
    return mask


def _lead(terms):
    return max(terms, key=_key)


def _normalize(terms):
    """Strip integer content and force a positive leading coefficient."""
    if not terms:
        return terms
    g = 0
    for c in terms.values():
        g = gcd(g, abs(c))
        if g == 1:
            break
    lm = _lead(terms)
    sign = -1 if terms[lm] < 0 else 1
    if g == 1 and sign == 1:
        return terms
    return {m: sign * (c // g) for m, c in terms.items()}


def _mono_mul(a, b):
    return tuple(map(_add, a, b))


def _mono_divides(a, b):
    return all(map(_le, a, b))


def _mono_div(a, b):
    return tuple(map(_sub, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


def _sub_scaled(target, cf, mono, source, cg):
    """target := cg*target - cf*(mono * source), in place on a fresh dict."""
    out = {}
    for m, c in target.items():
        out[m] = c * cg
    for m, c in source.items():
        mm = _mono_mul(m, mono)
        s = out.get(mm, 0) - cf * c
        if s == 0:
            out.pop(mm, None)
        else:
            out[mm] = s
    return out


class _Reductor:
    """Monic reduction data for one basis element."""

    __slots__ = ("lead", "degree", "mask", "tail", "alive")

    def __init__(self, terms):
        lead = _lead(terms)
        lc = _mpq(terms[lead])
        self.lead = lead
        self.degree = sum(lead)
        self.mask = _support_mask(lead)
        self.tail = [(m, _mpq(c) / lc) for m, c in terms.items()
                     if m != lead]
        self.alive = True


def _heap_key(mono):
    # min-heap entry whose order reverses degrevlex (max first)
    return (-sum(mono), tuple(reversed(mono)))


def _normal_form(p, reductors, shift_cache=None):
    """Full normal form of p modulo the reductor list.

    Works over exact rationals against monic reductors (no global
    rescaling).  The current polynomial is a coefficient dict plus a lazy
    max-heap of its monomials, so each step costs O(tail * log) rather
    than O(size).  Shifted reductor tails are memoized across calls via
    shift_cache.  The result is converted back to a primitive integer
    polynomial.
    """
    if shift_cache is None:
        shift_cache = {}
    val = {m: _mpq(c) for m, c in p.items()}
    heap = [(_heap_key(m), m) for m in val]
    heapq.heapify(heap)
    result = {}
    while heap:
        _hk, lm = heapq.heappop(heap)
        cf = val.pop(lm, None)
        if cf is None or cf == 0:
            continue  # stale entry
        deg = sum(lm)
        mask = _support_mask(lm)
        hit = None
        for red in reductors:
            if (not red.alive or red.degree > deg
                    or (red.mask & ~mask) != 0):
                continue
            if _mono_divides(red.lead, lm):
                hit = red
                break
        if hit is None:
            result[lm] = cf
            continue
        ck = (id(hit), lm)
        shifted = shift_cache.get(ck)
        if shifted is None:
            shift = _mono_div(lm, hit.lead)
            shifted = [(_mono_mul(bm, shift), bc) for bm, bc in hit.tail]
            if len(shift_cache) < 300_000:
                shift_cache[ck] = shifted
        # tail monomials are strictly below lm, hence never already final
        for mm, bc in shifted:
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
    if not result:
        return {}
    denom = 1
    for c in result.values():
        d = int(c.denominator)
        denom = denom * d // gcd(denom, d)
    return _normalize({m: int(c * denom) for m, c in result.items()})


@dataclass
class GroebnerResult:
    """Reduced Groebner basis with monic Fraction coefficients."""

    variables: tuple
    basis: tuple          # tuple of term-tuples ((mono, Fraction), ...)
    pairs_processed: int
    provenance: str = ""

    def leading_monomials(self):
        return tuple(max((m for m, _c in g), key=_key) for g in self.basis)

    @property
    def is_unit_ideal(self):
        return any(len(g) == 1 and sum(g[0][0]) == 0 for g in self.basis)


def groebner_basis(pres, budgets=None):
    """Reduced degrevlex Groebner basis of the presentation's ideal.

    Buchberger with the Gebauer-Moeller pair update (product and chain
    criteria applied eagerly) and normal selection (smallest lcm first).
    """
    budgets = budgets or Budgets()
    nvars = len(pres.variables)
    if nvars > budgets.max_groebner_vars:
        raise ResourceLimitError(
            f"{nvars} variables exceeds the Groebner bound "
            f"{budgets.max_groebner_vars} ({pres.provenance})")
    basis = []            # list of (lead, terms)
    reductors = []        # parallel _Reductor list; redundant ones retired
    pairs = {}            # (i, j) -> lcm monomial, i < j
    heap = []             # (lcm key, i, j) with lazy deletion

    def coprime(a, b):
        return all(x == 0 or y == 0 for x, y in zip(a, b))

    def add_element(terms):
        """Gebauer-Moeller update of the pair set for one new element."""
        t = len(basis)
        lmt = _lead(terms)
        cand = {g: _mono_lcm(basis[g][0], lmt) for g in range(t)}
        # scan candidates by increasing lcm; a kept candidate whose lcm
        # divides a later one (equality included) eliminates it.  Coprime
        # candidates are kept only as pruners and never become pairs.
        kept = []
        for g in sorted(cand, key=lambda g: (_key(cand[g]), g)):
            lcm_g = cand[g]
            if any(_mono_divides(lcm2, lcm_g) for lcm2, _g2 in kept):
                continue
            kept.append((lcm_g, g))
        # chain criterion on old pairs: drop (i, j) when the new leading
        # monomial divides lcm(i, j) and neither new pair shares that lcm
        for (i, j) in list(pairs):
            lcm_ij = pairs[(i, j)]
            if (_mono_divides(lmt, lcm_ij)
                    and _mono_lcm(basis[i][0], lmt) != lcm_ij
                    and _mono_lcm(basis[j][0], lmt) != lcm_ij):
                del pairs[(i, j)]
        basis.append((lmt, terms))
        new_red = _Reductor(terms)
        for red in reductors:
            if red.alive and _mono_divides(lmt, red.lead):
                red.alive = False  # anything it reduces, the new one does
        reductors.append(new_red)
        for lcm_g, g in kept:
            if coprime(basis[g][0], lmt):
                continue
            pairs[(g, t)] = lcm_g
            heapq.heappush(heap, (_key(lcm_g), g, t))

    for gen in pres.generators:
        add_element(dict(gen))

    shift_cache = {}
    pairs_processed = 0
    while pairs:
        key, i, j = heapq.heappop(heap)
        if (i, j) not in pairs:
            continue  # stale heap entry
        del pairs[(i, j)]
        pairs_processed += 1
        if pairs_processed > budgets.max_pairs:
            raise ResourceLimitError(
                f"S-pair budget {budgets.max_pairs} exceeded "
                f"({pres.provenance})")
        lmi, fi = basis[i]
        lmj, fj = basis[j]
        lcm = _mono_lcm(lmi, lmj)
        ci, cj = fi[lmi], fj[lmj]
        d = gcd(ci, cj)
        spoly = _sub_scaled(
            {_mono_mul(m, _mono_div(lcm, lmi)): c * (cj // d)
             for m, c in fi.items()},
            ci // d, _mono_div(lcm, lmj), fj, 1)
        spoly = _normalize({m: c for m, c in spoly.items() if c != 0})
        if not spoly:
            continue
        reduced = _normal_form(spoly, reductors, shift_cache)
        if not reduced:
            continue
        lm = _lead(reduced)
        if sum(lm) > budgets.max_degree:
            raise ResourceLimitError(
                f"degree budget {budgets.max_degree} exceeded with leading "
                f"degree {sum(lm)} ({pres.provenance})")
        add_element(reduced)

    reduced_basis = _interreduce([terms for _lm, terms in basis])
    monic = []
    for terms in reduced_basis:
        lc = Fraction(terms[_lead(terms)])
        monic.append(tuple(sorted(
            (m, Fraction(c) / lc) for m, c in terms.items())))
    monic.sort(key=lambda g: _key(max((m for m, _c in g), key=_key)))
    return GroebnerResult(pres.variables, tuple(monic), pairs_processed,
                          pres.provenance)


def _interreduce(polys):
    """Turn a Groebner generating set into the reduced basis."""
    polys = [p for p in polys if p]
    # drop elements whose leading monomial is divisible by another's
    polys.sort(key=lambda p: _key(_lead(p)))
    kept = []
    for p in polys:
        lm = _lead(p)
        if any(_mono_divides(_lead(q), lm) for q in kept):
            continue
        kept.append(p)
    # fully reduce each against the others
    reds = [_Reductor(q) for q in kept]
    out = []
    for idx, p in enumerate(kept):
        reds[idx].alive = False
        r = _normal_form(p, reds)
        reds[idx].alive = True
        if r:
            out.append(r)
    return out


@dataclass(frozen=True)
class DimResult:
    """Dimension answer with its method and certificate.

    dimension is an int or the string EMPTY.  Groebner results are exact;
    fp results carry unreliable=True when the per-prime estimates disagree
    and never override a Groebner answer.
    """

    dimension: object
    method: str
    certificate: object = None
    unreliable: bool = False

    @property
    def is_empty(self):
        return self.dimension == EMPTY


def krull_dim(gb):
    """Dimension from a reduced basis: largest independent variable set.

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
        return DimResult(EMPTY, "groebner", certificate=())
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
    return DimResult(size, "groebner", certificate=names)


def groebner_dimension(pres, budgets=None):
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
    def __init__(self, p, budget):
        self.p = p
        self.budget = budget
        self.nodes = 0

    def count(self, polys, unassigned):
        self.nodes += 1
        if self.nodes > self.budget:
            raise ResourceLimitError(
                f"F_p node budget {self.budget} exceeded")
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
        # univariate generator: branch on its roots only
        for poly in live:
            support = set()
            for mono in poly:
                for k, e in enumerate(mono):
                    if e:
                        support.add(k)
            if len(support) == 1:
                var = support.pop()
                total = 0
                for root in _univariate_roots(poly, var, p):
                    nxt = [_substitute(q, var, root, p) for q in live]
                    total += self.count(nxt, unassigned - {var})
                return total
        # branch on a variable from the generator with smallest support
        def support_of(poly):
            s = set()
            for mono in poly:
                for k, e in enumerate(mono):
                    if e:
                        s.add(k)
            return s

        target = min(live, key=lambda q: (len(support_of(q)),
                                          sorted(support_of(q))))
        var = min(support_of(target))
        total = 0
        for value in range(p):
            nxt = [_substitute(q, var, value, p) for q in live]
            total += self.count(nxt, unassigned - {var})
        return total


def fp_count_points(pres, p, budgets=None):
    """Exact number of F_p points of V(I)."""
    budgets = budgets or Budgets()
    polys = _fp_reduce(pres, p)
    unassigned = frozenset(range(len(pres.variables)))
    counter = _FpCounter(p, budgets.fp_node_budget)
    return counter.count(polys, set(unassigned))


def fp_dimension_estimate(pres, primes=None, budgets=None):
    """Majority-of-primes dimension estimate from exact point counts.

    Each prime must exceed the presentation's jet order (factorials in
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
    estimates = {}
    table = {}
    for p in primes:
        count = fp_count_points(pres, p, budgets)
        table[p] = count
        est = EMPTY if count == 0 else round(math.log(count, p))
        estimates[p] = est
    values = list(estimates.values())
    majority = max(set(values), key=values.count)
    unreliable = values.count(majority) <= len(values) // 2 or \
        len(set(values)) > 1
    return DimResult(majority, "fp_count", certificate=table,
                     unreliable=unreliable)


def dimension_of(pres, method="groebner", budgets=None):
    """Dimension by the requested method; 'both' cross-checks fp vs exact.

    Only 'groebner' is exact.  'fp' and 'both' count points over
    DEFAULT_PRIMES; they serve `logjet dim --method`, never the analyzer.
    """
    if method == "groebner":
        return groebner_dimension(pres, budgets)
    if method == "fp":
        return fp_dimension_estimate(pres, budgets=budgets)
    if method == "both":
        exact = groebner_dimension(pres, budgets)
        check = fp_dimension_estimate(pres, budgets=budgets)
        agreement = (exact.dimension == check.dimension
                     and not check.unreliable)
        return DimResult(exact.dimension, "groebner",
                         certificate={"independent_set": exact.certificate,
                                      "fp_counts": check.certificate,
                                      "fp_agrees": agreement},
                         unreliable=False)
    raise ValueError(f"unknown method {method!r}")
