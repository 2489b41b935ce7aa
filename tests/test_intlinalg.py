import itertools
import random

import pytest

from logjet import intlinalg


def test_det_small():
    assert intlinalg.det([[1, 0], [0, 1]]) == 1
    assert intlinalg.det([[1, 0], [1, 1]]) == 1
    assert intlinalg.det([[2, 0], [0, 3]]) == 6
    assert intlinalg.det([[1, 2], [2, 4]]) == 0
    assert intlinalg.det([]) == 1


def test_det_matches_permutation_expansion():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        expected = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = 1
            for i in range(n):
                prod *= mat[i][perm[i]]
            expected += sign * prod
        assert intlinalg.det(mat) == expected


def test_rank():
    assert intlinalg.rank([[1, 0], [0, 1]]) == 2
    assert intlinalg.rank([[1, 2], [2, 4]]) == 1
    assert intlinalg.rank([[0, 0]]) == 0
    assert intlinalg.rank([]) == 0


def test_lattice_basis_and_membership():
    # (2,0),(0,3),(1,1) generate all of Z^2: (0,3)-(1,1) and friends give
    # (0,1) and then (1,0)
    basis = intlinalg.lattice_row_basis([[2, 0], [0, 3], [1, 1]])
    assert intlinalg.lattice_contains(basis, [0, 1])
    assert intlinalg.lattice_contains(basis, [1, 0])
    # index-2 sublattice: parity of the coordinate sum is invariant
    basis2 = intlinalg.lattice_row_basis([[1, 1], [1, -1]])
    assert intlinalg.lattice_contains(basis2, [2, 0])
    assert not intlinalg.lattice_contains(basis2, [1, 0])


def test_lattice_membership_exhaustive():
    gens = [[2, 1], [1, 2]]
    basis = intlinalg.lattice_row_basis(gens)
    members = set()
    for a in range(-6, 7):
        for b in range(-6, 7):
            v = (2 * a + b, a + 2 * b)
            if max(abs(v[0]), abs(v[1])) <= 6:
                members.add(v)
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert intlinalg.lattice_contains(basis, [x, y]) == \
                ((x, y) in members)


def test_kernel_vector():
    u = intlinalg.kernel_vector([[1, 0]], 2)
    assert u is not None and u[0] == 0 and abs(u[1]) == 1
    u = intlinalg.kernel_vector([[1, 1]], 2)
    assert u is not None and u[0] + u[1] == 0
    # two dependent rows in three columns: a 2-dimensional kernel
    assert intlinalg.kernel_vector([[1, 2, 3], [2, 4, 6]], 3) is None
    # the minors (2, -4, 2) are divided by their gcd
    u = intlinalg.kernel_vector([[1, 1, 1], [1, 2, 3]], 3)
    assert u in ([1, -2, 1], [-1, 2, -1])
    # empty row set in rank 1: the kernel is all of Z
    assert intlinalg.kernel_vector([], 1) == [1]
    with pytest.raises(ValueError, match="needs 1 rows"):
        intlinalg.kernel_vector([[1, 0], [0, 1]], 2)


def test_solve_unimodular():
    cols = [[1, 0], [1, 1]]
    assert intlinalg.solve_unimodular(cols, [3, 2]) == [1, 2]
    cols = [[2, 1], [1, 1]]  # det 1
    assert intlinalg.solve_unimodular(cols, [2, 1]) == [1, 0]
    # (1, 0) = 1/2 (1, 1) + 1/2 (1, -1) has no integer solution
    with pytest.raises(ValueError, match="determinant -2"):
        intlinalg.solve_unimodular([[1, 1], [1, -1]], [1, 0])
    with pytest.raises(ValueError, match="determinant 0"):
        intlinalg.solve_unimodular([[1, 2], [2, 4]], [1, 0])


def test_adjugate():
    assert intlinalg.adjugate([]) == (1, [])
    assert intlinalg.adjugate([[-3]]) == (-3, [[1]])
    assert intlinalg.adjugate([[1, 2], [3, 4]]) == (-2, [[4, -2], [-3, 1]])
    # a singular matrix has a nonzero adjugate of rank 1
    assert intlinalg.adjugate([[1, 2], [2, 4]]) == (0, [[4, -2], [-2, 1]])
    mat = [[2, 0, 1], [1, 3, 0], [0, 1, 1]]
    d, adj = intlinalg.adjugate(mat)
    assert d == 7
    for i in range(3):
        for j in range(3):
            assert sum(mat[i][k] * adj[k][j] for k in range(3)) == \
                d * (i == j)
            assert sum(adj[i][k] * mat[k][j] for k in range(3)) == \
                d * (i == j)
