"""Exact integer linear algebra helpers (small dense matrices).

Everything here works on plain Python ints or Fractions, never floats.
Matrices are lists of rows.
"""

from fractions import Fraction
from math import gcd


def det(rows):
    """Determinant of a square integer matrix, by fraction-free Bareiss."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _reduce(rows, ncols):
    """Reduced row echelon form over Q: (rows of Fractions, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def rank(rows):
    """Rank of an integer matrix (exact Gaussian elimination over Q)."""
    if not rows:
        return 0
    return len(_reduce(rows, len(rows[0]))[1])


def lattice_row_basis(rows):
    """Echelon basis (over Z) of the lattice spanned by the given rows.

    Returns rows with strictly increasing pivot columns and positive pivots,
    suitable for fast membership tests via lattice_contains.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            piv = mat[r][c]
            reduced = True
            for i in range(r + 1, len(mat)):
                if mat[i][c] != 0:
                    q = mat[i][c] // piv
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        reduced = False
            if reduced:
                break
        if r < len(mat) and mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            r += 1
            if r == len(mat):
                break
    return [row for row in mat[:r]]


def lattice_contains(basis, v):
    """Is v in the lattice spanned by an echelon basis from lattice_row_basis?"""
    rem = list(v)
    for row in basis:
        c = next(i for i, x in enumerate(row) if x != 0)
        if rem[c] % row[c] != 0:
            return False
        q = rem[c] // row[c]
        if q != 0:
            rem = [x - q * y for x, y in zip(rem, row)]
    return all(x == 0 for x in rem)


def kernel_vector(rows, ncols):
    """Primitive integer vector spanning the right kernel, if 1-dimensional.

    rows may be empty (ncols must then be 1 for a unique kernel direction).
    Returns None when the kernel dimension is not exactly 1.
    """
    a, pivots = _reduce(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * ncols
    vec[fc] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -a[i][fc]
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return [x // g for x in ints]


def solve_rational(columns, v):
    """Solve E a = v over Q, where E has the given integer columns.

    E must be square and nonsingular, so the solution is unique; returns a
    list of Fractions.  Raises ValueError otherwise.
    """
    n = len(columns)
    if len(v) != n or any(len(c) != n for c in columns):
        raise ValueError("dimension mismatch")
    a, pivots = _reduce([[columns[j][i] for j in range(n)] + [v[i]]
                         for i in range(n)], n + 1)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n] for row in a]


def solve_unimodular(columns, v):
    """Solve E a = v for integer a, where E has the given integer columns.

    E must be square with determinant +-1, so the solution is integral and
    unique. Raises ValueError otherwise.
    """
    out = solve_rational(columns, v)
    if any(x.denominator != 1 for x in out):
        raise ValueError("system has no integer solution")
    return [int(x) for x in out]
