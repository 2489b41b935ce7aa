"""Sparse Laurent polynomials in base and jet variables, over exact rationals.

A ring is described by (n, m, mode): n base variables x_1..x_n, jet order m,
and a mode choosing the jet-variable family.  In ordinary mode the jet
variables are x_i^(j) (written ``x1(2)``), in log mode they are u_{i,j}
(written ``u[1,2]``), for 1 <= i <= n and 1 <= j <= m.  Base exponents may be
negative (Laurent); jet exponents are always nonnegative.

Coefficients are fractions.Fraction throughout.  The factorial denominators
coming from truncated power series must cancel exactly, so nothing here ever
touches a float.

Canonical term order is degrevlex over the combined exponent vector
(base variables first, then jet variables sorted by (i, j)).
"""

from fractions import Fraction

from .errors import ExponentError, RingMismatchError

ORDINARY = "ordinary"
LOG = "log"


class RingDescriptor:
    """Immutable (n, m, mode) triple naming a jet polynomial ring."""

    __slots__ = ("n", "m", "mode")

    def __init__(self, n, m=0, mode=ORDINARY):
        if n < 1:
            raise ValueError("need at least one base variable")
        if m < 0:
            raise ValueError("jet order must be nonnegative")
        if mode not in (ORDINARY, LOG):
            raise ValueError(f"unknown mode {mode!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, *args):
        raise AttributeError("RingDescriptor is immutable")

    def __eq__(self, other):
        return (isinstance(other, RingDescriptor)
                and (self.n, self.m, self.mode) == (other.n, other.m, other.mode))

    def __hash__(self):
        return hash((self.n, self.m, self.mode))

    def __repr__(self):
        return f"RingDescriptor(n={self.n}, m={self.m}, mode={self.mode!r})"

    def jet_positions(self):
        """All jet-variable indices (i, j), ordered by (i, j)."""
        return [(i, j) for i in range(1, self.n + 1)
                for j in range(1, self.m + 1)]


class JetMonomial:
    """Exponent data of one monomial: base vector plus sparse jet map."""

    __slots__ = ("base", "jets")

    def __init__(self, base, jets=()):
        object.__setattr__(self, "base", tuple(base))
        merged = {}
        for k, e in jets:
            merged[k] = merged.get(k, 0) + e
        cleaned = tuple(sorted((k, e) for k, e in merged.items() if e != 0))
        for (_i, _j), e in cleaned:
            if e < 0:
                raise ExponentError(f"negative exponent {e} on jet variable")
        object.__setattr__(self, "jets", cleaned)

    def __setattr__(self, *args):
        raise AttributeError("JetMonomial is immutable")

    def __eq__(self, other):
        return (isinstance(other, JetMonomial)
                and self.base == other.base and self.jets == other.jets)

    def __hash__(self):
        return hash((self.base, self.jets))

    def __repr__(self):
        return f"JetMonomial({self.base}, {self.jets})"

    def mul(self, other):
        base = tuple(a + b for a, b in zip(self.base, other.base))
        jets = dict(self.jets)
        for k, e in other.jets:
            jets[k] = jets.get(k, 0) + e
        return JetMonomial(base, jets.items())

    def exponent_vector(self, ring):
        """Full exponent vector (base then jets in (i, j) order)."""
        jm = dict(self.jets)
        return tuple(self.base) + tuple(jm.get(k, 0)
                                        for k in ring.jet_positions())

    def order_key(self, ring):
        """Degrevlex sort key; larger key = larger monomial."""
        vec = self.exponent_vector(ring)
        return (sum(vec), tuple(-e for e in reversed(vec)))


def _coerce_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


class JetPoly:
    """Sparse polynomial: map from JetMonomial to nonzero Fraction."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring, terms=None):
        object.__setattr__(self, "ring", ring)
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, c in items:
                c = _coerce_coeff(c)
                if c == 0:
                    continue
                self._check_mono(ring, mono)
                acc = clean.get(mono)
                c = c if acc is None else acc + c
                if c == 0:
                    clean.pop(mono, None)
                else:
                    clean[mono] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("JetPoly is immutable")

    @staticmethod
    def _check_mono(ring, mono):
        if len(mono.base) != ring.n:
            raise RingMismatchError(
                f"monomial has {len(mono.base)} base exponents, ring has {ring.n}")
        for (i, j), _e in mono.jets:
            if not (1 <= i <= ring.n and 1 <= j <= ring.m):
                raise RingMismatchError(
                    f"jet variable ({i},{j}) outside ring bounds "
                    f"(n={ring.n}, m={ring.m})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {JetMonomial((0,) * ring.n): _coerce_coeff(c)})

    @classmethod
    def one(cls, ring):
        return cls.constant(ring, 1)

    @classmethod
    def base_var(cls, ring, i, power=1):
        if not (1 <= i <= ring.n):
            raise RingMismatchError(f"base variable x{i} outside ring (n={ring.n})")
        base = [0] * ring.n
        base[i - 1] = power
        return cls(ring, {JetMonomial(base): Fraction(1)})

    @classmethod
    def jet_var(cls, ring, i, j, power=1):
        if power < 0:
            raise ExponentError(f"negative exponent {power} on jet variable")
        mono = JetMonomial((0,) * ring.n, (((i, j), power),))
        cls._check_mono(ring, mono)
        return cls(ring, {mono: Fraction(1)})

    @classmethod
    def monomial(cls, ring, base, jets=(), coeff=1):
        return cls(ring, {JetMonomial(base, jets): _coerce_coeff(coeff)})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self):
        return not self._terms

    def terms(self):
        """Terms as (monomial, coefficient), descending degrevlex."""
        return sorted(self._terms.items(),
                      key=lambda mc: mc[0].order_key(self.ring), reverse=True)

    def term_map(self):
        return dict(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (isinstance(other, JetPoly) and self.ring == other.ring
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _need_same_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = JetPoly.constant(self.ring, other)
        self._need_same_ring(other)
        res = dict(self._terms)
        for mono, c in other._terms.items():
            s = res.get(mono, Fraction(0)) + c
            if s == 0:
                res.pop(mono, None)
            else:
                res[mono] = s
        return JetPoly(self.ring, res)

    __radd__ = __add__

    def __neg__(self):
        return JetPoly(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = JetPoly.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce_coeff(other)
            if c == 0:
                return JetPoly.zero(self.ring)
            return JetPoly(self.ring,
                           {m: cc * c for m, cc in self._terms.items()})
        self._need_same_ring(other)
        res = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.mul(m2)
                s = res.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    res.pop(m, None)
                else:
                    res[m] = s
        return JetPoly(self.ring, res)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = JetPoly.one(self.ring)
        square = self
        while k:
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    # -- rendering ---------------------------------------------------------

    def render(self, names=None):
        """Canonical string form; parseable by parse.parse_poly when the
        default variable names are used."""
        if not self._terms:
            return "0"
        parts = []
        for idx, (mono, coeff) in enumerate(self.terms()):
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            factors = []
            for i, a in enumerate(mono.base, start=1):
                if a == 0:
                    continue
                base_name = names[i - 1] if names else f"x{i}"
                factors.append(base_name + (f"^{a}" if a != 1 else ""))
            for (i, j), e in mono.jets:
                if self.ring.mode == LOG:
                    name = f"u[{i},{j}]"
                else:
                    base_name = names[i - 1] if names else f"x{i}"
                    name = f"{base_name}({j})"
                factors.append(name + (f"^{e}" if e != 1 else ""))
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if idx == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"<JetPoly {self.render()}>"

    # -- structure helpers used by other modules ---------------------------

    def with_ring(self, ring):
        """Reinterpret in a compatible ring (same n; bounds rechecked)."""
        if ring == self.ring:
            return self
        if ring.n != self.ring.n:
            raise RingMismatchError("base variable count differs")
        return JetPoly(ring, self._terms)

    def base_exponent_vectors(self):
        return sorted({mono.base for mono in self._terms})

