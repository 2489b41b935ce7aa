"""Charts: a monoid (or plain affine space) plus defining equations.

A log chart presents X as a closed subscheme of Spec k[P] cut out by
equations with support in P, written as Laurent polynomials in the basis
monomials x_i.  An ordinary chart (monoid None) is a closed subscheme of
A^n with the trivial log structure; its equations must be honest
polynomials.  Each equation is held as parse_poly reads it, an {exponent
tuple over x_1..x_n: Fraction} map, the format strata, jets and the
analyzer work on.
"""

from typing import NamedTuple

from . import intlinalg
from .errors import MonoidError, SupportError
from .parse import parse_poly


class Chart(NamedTuple):
    """Unit of analysis: ambient rank, equations, optional monoid and basis.

    A Chart is not hashable: its equations are dicts.
    """

    ambient_rank: int
    equations: tuple
    monoid: object = None
    basis: tuple = None

    @property
    def variables(self):
        """The chart coordinates x_1..x_n, one per exponent column of the
        equations."""
        return tuple(f"x{i}" for i in range(1, self.ambient_rank + 1))

    @property
    def codim(self):
        """Claimed codimension: the number of defining equations."""
        return len(self.equations)

    @classmethod
    def build(cls, *, ambient_rank=None, equations=(), monoid=None,
              basis=None):
        """Validate and construct a chart.

        equations are strings, parsed into exponent maps over the chart's
        ambient rank.  For a monoid chart the basis defaults to
        select_gp_basis; explicit basis vectors must lie in the monoid and
        form a Z-basis.  Every equation's support is checked.
        """
        if monoid is not None:
            ambient_rank = monoid.ambient_rank
        if ambient_rank is None:
            raise MonoidError("ambient rank required for an ordinary chart")
        polys = []
        for idx, eq in enumerate(equations):
            if not isinstance(eq, str):
                raise TypeError(f"equation {idx}: expected str")
            eq = parse_poly(eq, ambient_rank)
            if not eq:
                raise SupportError(f"equation {idx} is identically zero")
            polys.append(eq)

        if monoid is None:
            for idx, eq in enumerate(polys):
                for vec in sorted(eq):
                    if any(a < 0 for a in vec):
                        raise SupportError(
                            f"equation {idx}: exponent {vec} is negative; "
                            "ordinary charts live in affine space")
            chart = cls(ambient_rank, tuple(polys), None, None)
        else:
            if basis is None:
                basis = monoid.select_gp_basis()
            basis = tuple(tuple(int(x) for x in b) for b in basis)
            if len(basis) != ambient_rank:
                raise MonoidError(
                    f"basis needs {ambient_rank} vectors, got {len(basis)}")
            if intlinalg.det([list(b) for b in basis]) not in (1, -1):
                raise MonoidError("basis is not unimodular")
            for b in basis:
                if not monoid.membership(b):
                    raise MonoidError(f"basis vector {b} is not in the monoid")
            chart = cls(ambient_rank, tuple(polys), monoid, basis)
            for idx, eq in enumerate(polys):
                bad = chart.support_violation(eq)
                if bad is not None:
                    vec, point = bad
                    raise SupportError(
                        f"equation {idx}: exponent {vec} maps to lattice "
                        f"point {point} outside the monoid")
        return chart

    # -- coordinates ---------------------------------------------------------

    def lattice_point(self, exponents):
        """Lattice point sum a_i e_i of a basis-coordinate exponent vector."""
        if self.basis is None:
            raise MonoidError("ordinary charts have no monoid coordinates")
        n = self.ambient_rank
        return tuple(sum(a * b[k] for a, b in zip(exponents, self.basis))
                     for k in range(n))

    def exponents_of(self, point):
        """Basis-coordinate exponents of a lattice point (exact, integer)."""
        if self.basis is None:
            raise MonoidError("ordinary charts have no monoid coordinates")
        cols = [list(b) for b in self.basis]
        return tuple(intlinalg.solve_unimodular(cols, list(point)))

    def support_violation(self, poly):
        """First (exponent vector, lattice point) outside the monoid, if
        any, of an exponent map, its exponents taken in sorted order."""
        for vec in sorted(poly):
            point = self.lattice_point(vec)
            if not self.monoid.membership(point):
                return vec, point
        return None
