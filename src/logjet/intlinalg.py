"""Exact integer linear algebra helpers (small dense matrices).

Plain Python ints only, never Fractions or floats: Bareiss determinants,
adjugates and integer echelon bases.  Matrices are lists of rows.
"""

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


def adjugate(rows):
    """(det M, adj M) of a square integer matrix M, so M adj M = det M I.

    Entry (i, j) of adj M is the cofactor (-1)^(i+j) times the Bareiss
    determinant of M without row j and column i.
    """
    n = len(rows)
    adj = [[(-1) ** (i + j) * det([r[:i] + r[i + 1:]
                                   for k, r in enumerate(rows) if k != j])
            for j in range(n)] for i in range(n)]
    return det(rows), adj


def rank(rows):
    """Rank of an integer matrix: the size of its lattice echelon basis."""
    return len(lattice_row_basis(rows))


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
    """Primitive integer vector spanning the right kernel of n - 1 rows.

    rows must be ncols - 1 vectors of length ncols (none when ncols is 1).
    The kernel is spanned by the signed maximal minors, (-1)^k times the
    determinant of rows without column k, divided by their gcd.  Returns
    None when every minor vanishes, that is, when the rows are dependent
    and the kernel has dimension above 1.
    """
    if len(rows) != ncols - 1:
        raise ValueError(f"kernel_vector needs {ncols - 1} rows, "
                         f"got {len(rows)}")
    minors = [(-1) ** k * det([r[:k] + r[k + 1:] for r in rows])
              for k in range(ncols)]
    g = gcd(*minors)
    if g == 0:
        return None
    return [x // g for x in minors]


def solve_unimodular(columns, v):
    """Solve E a = v for integer a, where E has the given integer columns.

    E must be square with determinant +-1, so that a = det E adj(E) v is
    integral and unique.  Raises ValueError otherwise.
    """
    n = len(columns)
    if len(v) != n:
        raise ValueError("dimension mismatch")
    # the rows of C = E^T are the columns, and adj(E) v = v adj(C)
    d, adj = adjugate(columns)
    if d not in (1, -1):
        raise ValueError(f"determinant {d} is not +-1")
    return [d * sum(x * row[j] for x, row in zip(v, adj)) for j in range(n)]
