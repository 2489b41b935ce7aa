"""Fine saturated affine monoids: exact membership, units, faces, basis.

A monoid P is given by finitely many generators in Z^n whose group span is
all of Z^n (so P^gp = Z^n after normalization, which is the caller's job).
Construction proves that P is saturated and generated by those vectors, so
P = cone ∩ Z^n and membership is decided exactly by the facet inequalities
(Bruns & Ichim, "Normaliz: algorithms for affine monoids and rational
cones", J. Algebra 2010; Cox-Little-Schenck, Toric Varieties, ch. 1).  The
proof checks one generator step at each point of the half-open
parallelepipeds of one star of simplicial cones, which covers the cone.

Faces of the rational cone spanned by the generators correspond to torus
orbits of Spec k[P]; stratum_index of a face is n minus the rank of its
generator set.

Every walk is charged to the monoid's work, k^3 units per k x k determinant
and n per pairing, against one bound, MAX_MONOID_WORK, read at call time.
The walks of a closed-form size are charged before they start, so an
oversized input is refused at once: the span check (g n^2 + n^3 for g
generators), the facet forms (C(g, n-1) (n (n-1)^3 + 2gn)), the star
(C(|F|, n-1) n^3 for each facet F it meets) and its parallelepiped points
(n^2 + |steps| |forms| n each).  select_gp_basis (n^3 per subset) and the
face lattice (|forms| |face| n + |face| n^2 per face) are charged as they go.
"""

import itertools
from functools import cached_property
from math import comb
from operator import sub
from typing import NamedTuple

from . import intlinalg
from .errors import MonoidError, NoUnimodularSubsetError, ResourceLimitError

# Work units of one monoid, all walks; read at call time.  No corpus or test
# monoid takes a quarter (the most, 320,070, is <(1, 0), (1, 1), (1, 20000)>),
# and the rank-6 orthant with its 15 sums e_i + e_j, 22.5 M, still builds.
MAX_MONOID_WORK = 30_000_000


def _pairing(u, v):
    return sum(a * b for a, b in zip(u, v))


class Face(NamedTuple):
    """A face of the cone, recorded by the generator indices lying on it."""

    generator_indices: tuple
    supporting_forms: tuple
    stratum_index: int


class AffineMonoid:
    """Fine saturated submonoid of Z^n spanned by explicit generators.

    The constructor proves that the generators span Z^n as a group and
    that P, their N-span, is cone ∩ Z^n, or raises MonoidError naming a
    cone point outside P.  So membership() is exact.  self.work counts the
    units of the module docstring; past MAX_MONOID_WORK a walk raises
    ResourceLimitError.

    The star around v, the first non-unit generator, covers the cone: the
    cones of S = {v} ∪ T, T an independent (n-1)-subset of the generators on
    a facet F with <u_F, v> > 0 (less the most v it holds, a cone point lies
    on such an F, and in some cone(T) by Carathéodory inside F).  So a cone
    lattice point is q = sum n_i s_i + p, n_i in N, s_i in some S and p one
    of the |det S| points of the half-open parallelepiped of S, which the
    adjugate of S folds in from the cosets of its lattice.

    The height h, the sum of the facet forms, is a nonnegative integer on
    the cone, 0 on its lineality space and at least 1 on every non-unit
    generator.  Each p needs a certificate: if h(p) = 0, p is in the unit
    lattice; else p - g is in the cone for a non-unit generator g, and in
    the unit lattice if h(p - g) = 0.  P = cone ∩ Z^n gives it.  It puts q
    in P by induction on h(q): the unit generators span the unit lattice as
    a monoid (their cone is the lineality space), and q - g is a cone point
    of smaller height.  With no facet the span check proves P = Z^n.
    """

    def __init__(self, ambient_rank, generators):
        if ambient_rank < 1:
            raise MonoidError("ambient rank must be at least 1")
        n, self.ambient_rank, self.work = ambient_rank, ambient_rank, 0
        gens = tuple(generators)
        if not gens:
            raise MonoidError("monoid needs at least one generator")
        self._charge(len(gens) * n ** 2 + n ** 3, "span check")
        self.generators = gens = tuple(tuple(map(int, g)) for g in gens)
        for g in gens:
            if len(g) != n:
                raise MonoidError(
                    f"generator {g} has length {len(g)}, expected {n}")
            if not any(g):
                raise MonoidError("zero vector is not allowed as a generator")

        basis = intlinalg.lattice_row_basis([list(g) for g in gens])
        if len(basis) != n or intlinalg.det(basis) not in (1, -1):
            raise MonoidError(
                "generators do not span Z^n as a group "
                f"(rank-{n} unimodular lattice expected)")
        self._prove_saturation()

    # -- membership ---------------------------------------------------------

    @cached_property
    def facet_forms(self):
        """Primitive integer covectors of the cone's facets.

        Each form vanishes on n-1 independent generators and is nonnegative
        on all of them.  Empty for a cone with full lineality (P a group).
        """
        n, gens = self.ambient_rank, self.generators
        self._charge(comb(len(gens), n - 1)
                     * (n * (n - 1) ** 3 + 2 * len(gens) * n), "facet forms")
        forms = set()
        for subset in itertools.combinations(gens, n - 1):
            u = intlinalg.kernel_vector(subset, n)
            if u is None:
                continue
            for sign in (1, -1):
                if all(sign * _pairing(u, g) >= 0 for g in gens):
                    forms.add(tuple(sign * x for x in u))
        return tuple(sorted(forms))

    def membership(self, v):
        """Is the lattice point v in P?  Exact: P = cone ∩ Z^n."""
        if len(v) != self.ambient_rank:
            raise MonoidError(f"vector {v} has wrong length")
        return all(_pairing(u, v) >= 0 for u in self.facet_forms)

    # -- structure ----------------------------------------------------------

    def units(self):
        """Basis of the unit sublattice {g in P : -g in P}.

        It is spanned by the generators on which every facet form vanishes,
        the generators in the cone's lineality space.
        """
        basis = intlinalg.lattice_row_basis(
            [list(g) for g in self.generators
             if not any(_pairing(u, g) for u in self.facet_forms)])
        return tuple(tuple(row) for row in basis)

    def faces(self):
        """Complete face lattice, walked by intersecting faces with facets.

        Starts from the whole cone; the minimal face is included.  Faces
        are deduplicated by generator subset and sorted by
        (stratum_index, generator_indices).  The lattice is computed once
        per monoid, on the first call, and memoized on it.
        """
        return self._face_lattice

    @cached_property
    def _face_lattice(self):
        n, gens, forms = self.ambient_rank, self.generators, self.facet_forms
        seen = {}
        todo = [tuple(range(len(gens)))]
        while todo:
            idxs = todo.pop()
            if idxs in seen:
                continue
            self._charge(len(forms) * len(idxs) * n + len(idxs) * n ** 2,
                         "face lattice")
            support = tuple(u for u in forms
                            if all(_pairing(u, gens[gi]) == 0 for gi in idxs))
            face_rank = intlinalg.rank([list(gens[gi]) for gi in idxs])
            seen[idxs] = Face(idxs, support, n - face_rank)
            todo.extend(
                tuple(gi for gi in idxs if _pairing(u, gens[gi]) == 0)
                for u in forms)
        return tuple(sorted(seen.values(),
                            key=lambda f: (f.stratum_index,
                                           f.generator_indices)))

    def select_gp_basis(self):
        """First generator subset (lexicographic by index) with det +-1."""
        n = self.ambient_rank
        for subset in itertools.combinations(self.generators, n):
            self._charge(n ** 3, "basis search")
            if intlinalg.det(subset) in (1, -1):
                return subset
        raise NoUnimodularSubsetError(
            "no generator subset is a Z-basis of Z^n; "
            "choose different generators or supply an explicit basis")

    # -- work bound and saturation proof ------------------------------------

    def _charge(self, units, walk):
        """Add units to self.work; past MAX_MONOID_WORK raise, naming walk."""
        self.work += units
        if self.work > MAX_MONOID_WORK:
            raise ResourceLimitError(
                f"monoid work bound {MAX_MONOID_WORK} exceeded in the {walk}"
                f" (rank {self.ambient_rank}, {self.work} units)")

    def _prove_saturation(self):
        n, forms = self.ambient_rank, self.facet_forms
        # the height h and the non-unit generators; no facet, no step
        h = [sum(column) for column in zip(*forms)]
        steps = [g for g in self.generators if _pairing(h, g)]
        facets = [[g for g in self.generators if not _pairing(u, g)]
                  for u in forms if _pairing(u, steps[0]) > 0]
        self._charge(sum(comb(len(f), n - 1) for f in facets) * n ** 3,
                     "saturation star")
        star = {}       # simplex of the star around steps[0] -> |det|
        for on_facet in facets:
            for rest in itertools.combinations(on_facet, n - 1):
                if d := abs(intlinalg.det((steps[0],) + rest)):
                    star[(steps[0],) + rest] = d
        per_point = n ** 2 + len(steps) * len(forms) * n
        self._charge(sum(star.values()) * per_point, "parallelepiped points")
        units = self.units()

        def certified(p):       # the certificate of the class docstring
            if not _pairing(h, p):
                return intlinalg.lattice_contains(units, p)
            return any(self.membership(q) and (
                _pairing(h, q) or intlinalg.lattice_contains(units, q))
                for q in (tuple(map(sub, p, g)) for g in steps))

        for simplex in star:
            for point in _parallelepiped_points(simplex):
                if not certified(point):
                    raise MonoidError(
                        f"cone point {point} is not an N-combination of the "
                        "generators; the monoid is not saturated or not "
                        "fully generated")

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"AffineMonoid(rank={self.ambient_rank}, generators=[{gens}])"


def _parallelepiped_points(simplex):
    """Lattice points of {sum lam_i s_i : 0 <= lam_i < 1}.

    The echelon basis of the simplex's lattice has pivots d_i; the vectors
    with 0 <= a_i < d_i represent each of its |det S| cosets once.  A
    representative r has simplex coordinates lam = r adj / d, where
    (d, adj) = (det S, adj S).  Its fractional parts fold r into the
    parallelepiped, in integers: ((r adj) mod d) S / d, since Python's
    x % d has the sign of d, so (x % d) / d is the fractional part of x / d.
    """
    rows = [list(s) for s in simplex]
    d, adj = intlinalg.adjugate(rows)
    pivots = [next(x for x in row if x)
              for row in intlinalg.lattice_row_basis(rows)]
    for rep in itertools.product(*(range(p) for p in pivots)):
        lam = [sum(r * a for r, a in zip(rep, col)) % d
               for col in zip(*adj)]
        yield tuple(sum(c * s for c, s in zip(lam, col)) // d
                    for col in zip(*rows))
