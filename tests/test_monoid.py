import itertools
import json
import time
from pathlib import Path

import pytest

from logjet import intlinalg
from logjet import monoid as monoid_module
from logjet.chartfile import load_chart
from logjet.errors import (MonoidError, NoUnimodularSubsetError,
                           ResourceLimitError)
from logjet.monoid import AffineMonoid

N2 = AffineMonoid(2, [(1, 0), (0, 1)])
CONE3 = AffineMonoid(2, [(1, 0), (1, 1), (1, 2)])
Z1 = AffineMonoid(1, [(1,), (-1,)])
# cone over the lattice hexagon with vertices (+-1, 0), (0, +-1), (1, -1),
# (-1, 1), plus its interior point
HEXAGON = [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1),
           (1, -1, 1), (0, 0, 1)]
BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "charts"


def reach_set(gens, window):
    """Independent oracle: the N-combinations of gens in [-window, window]^n.

    Sums are built one generator at a time inside a larger box.  By the
    Steinitz lemma (constant at most the rank n), any representation of a
    window point can be ordered so that every partial sum stays within
    n * (max|g| + window) of the segment from 0 to the point, so the box
    below loses no window point.  The box is padded by max|g| on every
    side and flattened to one byte per point; the padding starts out
    marked, so a sum that leaves the box is never taken up.
    """
    n = len(gens[0])
    reach = max(abs(x) for g in gens for x in g)
    box = window + n * (reach + window)
    side = 2 * (box + reach) + 1

    def index(v):
        return sum((x + box + reach) * side ** k for k, x in enumerate(v))

    marked = bytearray(b"\1") * side ** n
    for rest in itertools.product(range(-box, box + 1), repeat=n - 1):
        start = index((-box,) + rest)
        marked[start:start + 2 * box + 1] = bytes(2 * box + 1)
    origin = index((0,) * n)
    steps = [index(g) - origin for g in gens]
    marked[origin] = 1
    frontier = [origin]
    while frontier:
        i = frontier.pop()
        for step in steps:
            j = i + step
            if not marked[j]:
                marked[j] = 1
                frontier.append(j)
    return {v for v in itertools.product(range(-window, window + 1), repeat=n)
            if marked[index(v)]}


def brute_force_faces(gens, bound=5):
    """Independent oracle: subsets cut out by small integer covectors.

    A subset S is a face iff some covector vanishes on S, is positive on
    the other generators, and is nonnegative overall; the whole cone is
    always a face.
    """
    n = len(gens[0])
    faces = {tuple(range(len(gens)))}
    for u in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(x == 0 for x in u):
            continue
        vals = [sum(a * b for a, b in zip(u, g)) for g in gens]
        if all(v >= 0 for v in vals):
            faces.add(tuple(i for i, v in enumerate(vals) if v == 0))
    return faces


def test_constructor_rejects_bad_span():
    with pytest.raises(MonoidError):
        AffineMonoid(2, [(2, 0), (0, 1)])


def test_constructor_rejects_zero_generator():
    with pytest.raises(MonoidError):
        AffineMonoid(2, [(0, 0), (1, 0), (0, 1)])


def test_constructor_rejects_wrong_length():
    with pytest.raises(MonoidError):
        AffineMonoid(2, [(1, 0, 0)])


def test_select_gp_basis_identity():
    assert N2.select_gp_basis() == ((1, 0), (0, 1))


def test_select_gp_basis_first_unimodular_subset():
    # oracle: first 2-subset in lexicographic index order with |det| = 1
    gens = CONE3.generators
    expected = None
    for subset in itertools.combinations(range(3), 2):
        mat = [list(gens[i]) for i in subset]
        if intlinalg.det(mat) in (1, -1):
            expected = tuple(gens[i] for i in subset)
            break
    assert expected == ((1, 0), (1, 1))
    assert CONE3.select_gp_basis() == expected
    assert intlinalg.det([list(b) for b in CONE3.select_gp_basis()]) in (1, -1)


def test_no_unimodular_subset():
    # gcd(2,3)=1 so the group span is Z, but neither generator is a unit
    monoid = AffineMonoid(1, [(2,), (-3,)])
    with pytest.raises(NoUnimodularSubsetError):
        monoid.select_gp_basis()


def test_contains_basic():
    assert N2.membership((2, 3)) is True
    assert N2.membership((-1, 0)) is False
    assert N2.membership((0, 0))
    for g in N2.generators:
        assert N2.membership(g)
    with pytest.raises(MonoidError):
        N2.membership((1, 0, 0))


@pytest.mark.parametrize("monoid", [N2, CONE3, Z1],
                         ids=["N2", "CONE3", "Z1"])
def test_membership_matches_oracle_grid(monoid):
    window = 4
    reached = reach_set(monoid.generators, window)
    grid = itertools.product(range(-window, window + 1),
                             repeat=monoid.ambient_rank)
    for v in grid:
        assert monoid.membership(v) == (v in reached), v


def test_contains_outside_cone():
    assert not CONE3.membership((1, -1))
    assert not CONE3.membership((-1, 0))


def test_faces_n2():
    faces = N2.faces()
    assert len(faces) == 4
    assert sorted(f.stratum_index for f in faces) == [0, 1, 1, 2]
    assert brute_force_faces(N2.generators) == \
        {f.generator_indices for f in faces}


def test_faces_group():
    faces = Z1.faces()
    assert len(faces) == 1
    assert faces[0].stratum_index == 0
    assert faces[0].generator_indices == (0, 1)


def test_faces_cone3_interior_generator():
    faces = CONE3.faces()
    assert len(faces) == 4
    assert brute_force_faces(CONE3.generators) == \
        {f.generator_indices for f in faces}
    rays = [f for f in faces if f.stratum_index == 1]
    assert {f.generator_indices for f in rays} == {(0,), (2,)}  # (1,1) interior


def test_face_supporting_forms():
    for face in CONE3.faces():
        for u in face.supporting_forms:
            for gi in face.generator_indices:
                g = CONE3.generators[gi]
                assert sum(a * b for a, b in zip(u, g)) == 0
        outside = [gi for gi in range(3)
                   if gi not in face.generator_indices]
        for gi in outside:
            g = CONE3.generators[gi]
            assert any(sum(a * b for a, b in zip(u, g)) > 0
                       for u in face.supporting_forms)


def test_face_count_simplicial():
    n3 = AffineMonoid(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(n3.faces()) == 8


def test_face_lattice_is_computed_once():
    monoid = AffineMonoid(3, HEXAGON)
    assert monoid.faces() is monoid.faces()


def test_stratum_index_formula():
    for face in CONE3.faces():
        rows = [list(CONE3.generators[i]) for i in face.generator_indices]
        assert face.stratum_index == 2 - intlinalg.rank(rows)


def test_faces_hexagon_cone_walks_the_lattice():
    monoid = AffineMonoid(3, HEXAGON)
    assert len(monoid.facet_forms) == 6
    faces = monoid.faces()
    assert len(faces) == 14
    assert brute_force_faces(HEXAGON) == {f.generator_indices for f in faces}
    assert sorted(f.stratum_index for f in faces) == \
        [0] + [1] * 6 + [2] * 6 + [3]
    assert faces == tuple(sorted(faces, key=lambda f: (f.stratum_index,
                                                       f.generator_indices)))


def orthant(n):
    """The unit vectors of Z^n, the generators of N^n."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def test_rank_too_large():
    # no rank is too large: the rank-7 orthant builds, with its 2^7 faces
    monoid = AffineMonoid(7, orthant(7))
    assert len(monoid.faces()) == 128


def test_rank_too_large_walks_no_subset(monkeypatch):
    # the rank-8 orthant from its 8 unit vectors and 12 sums e_i + e_j:
    # facet_forms alone would walk all C(20, 7) = 77520 subsets of its
    # generators, 237,523,072 units, and is refused before the first
    calls = []
    monkeypatch.setattr(intlinalg, "kernel_vector",
                        lambda *args: calls.append(args))
    units = orthant(8)
    sums = [tuple(map(sum, zip(units[i], units[j])))
            for i, j in itertools.combinations(range(8), 2)][:12]
    with pytest.raises(ResourceLimitError,
                       match=r"^monoid work bound \d+ exceeded in the facet "
                             r"forms \(rank 8, 237523072 units\)$"):
        AffineMonoid(8, units + sums)
    assert calls == []


def test_work_bound_is_read_at_call_time(monkeypatch):
    # N^2 builds in 56 units: 16 for the span check, 2 * 10 for its two
    # facet forms, 8 for the star and 12 for its one point; select_gp_basis
    # adds 8 for its first subset, and its four faces 16 + 8 + 8 + 0
    monoid = AffineMonoid(2, orthant(2))
    assert monoid.work == 56
    assert monoid.select_gp_basis() and monoid.work == 64
    assert monoid.faces() and monoid.work == 96
    monkeypatch.setattr(monoid_module, "MAX_MONOID_WORK", 63)
    with pytest.raises(ResourceLimitError,
                       match=r"in the basis search \(rank 2, 64 units\)$"):
        AffineMonoid(2, orthant(2)).select_gp_basis()
    monkeypatch.setattr(monoid_module, "MAX_MONOID_WORK", 95)
    monoid = AffineMonoid(2, orthant(2))
    monoid.select_gp_basis()
    with pytest.raises(ResourceLimitError,
                       match=r"in the face lattice \(rank 2, 96 units\)$"):
        monoid.faces()


def test_units():
    assert N2.units() == ()
    m = AffineMonoid(2, [(1, 0), (-1, 0), (0, 1)])
    units = m.units()
    assert len(units) == 1 and units[0] in ((1, 0), (-1, 0))
    assert Z1.units() == ((1,),)


def test_units_mixed_lattice():
    m = AffineMonoid(2, [(1, 1), (-1, -1), (1, 0)])
    units = m.units()
    basis = intlinalg.lattice_row_basis([list(u) for u in units])
    assert intlinalg.lattice_contains(basis, [1, 1])
    assert not intlinalg.lattice_contains(basis, [1, 0])


def bench_chart_monoids():
    """{chart name: (rank, generators)} of the bench charts with a monoid."""
    monoids = {}
    for path in sorted(BENCH_CHARTS.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("monoid_generators") is not None:
            monoids[path.name] = doc["ambient_rank"], doc["monoid_generators"]
    return monoids


def test_saturation_check_passes_desk_charts():
    desk = [(2, N2.generators), (2, CONE3.generators), (1, Z1.generators),
            (1, [(2,), (-3,)]), (2, [(1, 0), (-1, 0), (0, 1)]),
            (3, HEXAGON)]
    bench = list(bench_chart_monoids().values())
    assert bench
    for rank, gens in desk + bench:
        monoid = AffineMonoid(rank, gens)
        assert monoid.generators == tuple(tuple(g) for g in gens)


def test_saturation_takes_one_step_per_point_and_generator(monkeypatch):
    # the star around (1, -1500) holds the parallelepiped of (1, -1500),
    # (1, 0), whose first point (1, -1499) has the one representation
    # (1, 0) + 1499 * (0, -1): a search for it would descend 1499 steps.
    # The certificate stops at (1, -1498), a cone point of positive height,
    # so each point tests each of the three non-unit generators at most
    # once.
    tested = []     # (parallelepiped point, its membership tests)
    points_of = monoid_module._parallelepiped_points
    membership = AffineMonoid.membership

    def marking(simplex):
        for point in points_of(simplex):
            tested.append((point, []))
            yield point

    def recording(self, v):
        tested[-1][1].append(v)
        return membership(self, v)

    monkeypatch.setattr(monoid_module, "_parallelepiped_points", marking)
    monkeypatch.setattr(AffineMonoid, "membership", recording)
    monoid = AffineMonoid(2, [(1, -1500), (0, -1), (1, 0)])
    assert len(tested) == 1501
    assert dict(tested)[1, -1499] == [(0, 1), (1, -1498)]
    assert max(len(tests) for _point, tests in tested) <= 3
    assert monoid.membership((1, -1499))


def test_saturation_limit_is_checked_before_enumeration(monkeypatch):
    # the star around (1, 0) is the one simplex (1, 0), (1, k), whose k
    # points cost 4 to fold and 3 * 2 * 2 to certify: 16 k units, over the
    # bound, charged before _parallelepiped_points is called
    k = monoid_module.MAX_MONOID_WORK // 16 + 1
    calls = []
    monkeypatch.setattr(monoid_module, "_parallelepiped_points",
                        lambda simplex: calls.append(simplex) or ())
    with pytest.raises(ResourceLimitError,
                       match="exceeded in the parallelepiped points"):
        AffineMonoid(2, [(1, 0), (1, 1), (1, k)])
    assert calls == []


def test_saturation_check_at_the_point_limit():
    # the star's one simplex (1, 0), (1, 20000) holds 20000 points, all
    # enumerated under the work bound; (1, 2) is the first that is not
    # generated
    with pytest.raises(MonoidError, match=r"^cone point \(1, 2\) "):
        AffineMonoid(2, [(1, 0), (1, 1), (1, 20000)])


FAN46 = [(1, 0)] + [(1, k) for k in range(1, 47)]


def test_saturation_check_near_the_point_limit():
    # the 1081 two-subsets of <(1,0),(1,1),...,(1,46)> hold 17296 points;
    # the star around (1, 0) needs only (1, 0), (1, 46), 46 of them
    total = sum(abs(intlinalg.det([list(a), list(b)]))
                for a, b in itertools.combinations(FAN46, 2))
    assert total == 17296
    monoid = AffineMonoid(2, FAN46)
    assert monoid.facet_forms == ((0, 1), (46, -1))
    for x in range(-2, 4):
        for y in range(-3, 140):
            assert monoid.membership((x, y)) == (0 <= y <= 46 * x), (x, y)


def test_saturation_check_names_the_missing_fan_ray():
    with pytest.raises(MonoidError, match=r"\(1, 23\)"):
        AffineMonoid(2, [g for g in FAN46 if g != (1, 23)])


def saturation_work(rank, gens):
    """(simplices, points) the saturation proof enumerates for a monoid."""
    work = [0, 0]

    def counting(simplex):
        work[0] += 1
        for point in parallelepiped_points(simplex):
            work[1] += 1
            yield point

    parallelepiped_points = monoid_module._parallelepiped_points
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monoid_module, "_parallelepiped_points", counting)
        AffineMonoid(rank, gens)
    return tuple(work)


# The star has one simplex for each facet off the apex whose generators are
# independent: a cone over a segment has one such facet, the conifold's
# square two.  A proof over every nonsingular n-subset would read
# (k(k+1)/2, k(k+1)(k+2)/6) for cone k, (4, 4) for the conifold and
# (1081, 17296) for FAN46.
SATURATION_WORK = {
    **{f"cone{k}_hyperplane.json": (1, k) for k in range(2, 8)},
    "cone2_bare.json": (1, 2),
    "conifold_hyperplane.json": (2, 2),
    **{f"n{k}_{kind}.json": (1, 1) for k, kind in [
        (2, "binomial"), (2, "hyperplane"), (2, "hyperplane_pairs8"),
        (3, "binomial"), (3, "hyperplane"), (3, "quadric"),
        (5, "hyperplane")]},
}


def test_saturation_work_on_the_bench_charts_is_pinned():
    assert {name: saturation_work(rank, gens) for name, (rank, gens)
            in bench_chart_monoids().items()} == SATURATION_WORK


def test_saturation_work_on_fan46_is_pinned():
    assert saturation_work(2, FAN46) == (1, 46)


# The work of each corpus monoid through load_chart (the span check, the
# facet forms, the saturation proof and select_gp_basis) and faces(): a
# change to a walk or its charge shows as a count that moved, not a time.
MONOID_WORK = {
    "cone2_bare.json": 150, "cone2_hyperplane.json": 150,
    "cone3_hyperplane.json": 220, "cone4_hyperplane.json": 306,
    "cone5_hyperplane.json": 408, "cone6_hyperplane.json": 526,
    "cone7_hyperplane.json": 660, "conifold_hyperplane.json": 882,
    "n2_binomial.json": 96, "n2_hyperplane.json": 96,
    "n2_hyperplane_pairs8.json": 96, "n3_binomial.json": 486,
    "n3_hyperplane.json": 486, "n3_quadric.json": 486,
    "n5_hyperplane.json": 6500,
}


def corpus_work(name):
    monoid = load_chart(BENCH_CHARTS / name)[0].monoid
    monoid.faces()
    return monoid.work


def test_work_on_the_bench_charts_is_pinned():
    assert {name: corpus_work(name)
            for name in bench_chart_monoids()} == MONOID_WORK


def largest_work(rank, gens):
    """The most work a monoid reached: built, its basis chosen and its
    faces walked, or as far as it got before a MonoidError."""
    reached = [0]
    charge = AffineMonoid._charge

    def recording(self, units, walk):
        reached[0] = max(reached[0], self.work + units)
        charge(self, units, walk)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AffineMonoid, "_charge", recording)
        try:
            monoid = AffineMonoid(rank, gens)
            monoid.select_gp_basis()
            monoid.faces()
        except MonoidError:
            pass
    return reached[0]


def test_work_bound_has_a_fourfold_margin():
    """The saturation check of the fan to (1, 20000), which enumerates
    20000 points before it finds (1, 2), is the most work of any monoid
    the corpus or the tests walk under the bound; the face lattice of
    N^8, which test_analyzer decides, comes next."""
    work = {name: corpus_work(name) for name in bench_chart_monoids()}
    work.update({
        "N^7": largest_work(7, orthant(7)),
        "N^8": largest_work(8, orthant(8)),
        "hexagon": largest_work(3, HEXAGON),
        "fan46": largest_work(2, FAN46),
        "fan to (1, -1500)": largest_work(2, [(1, -1500), (0, -1), (1, 0)]),
        "fan to (1, 20000)": largest_work(2, [(1, 0), (1, 1), (1, 20000)]),
    })
    largest = max(work, key=work.get)
    assert (largest, work[largest]) == ("fan to (1, 20000)", 320070)
    assert sorted(work.values())[-2] == work["N^8"] == 156672
    assert monoid_module.MAX_MONOID_WORK >= 4 * work[largest]


def test_a_huge_rank_is_refused_at_the_span_check():
    # N^1000 would take 2 * 10^9 units to check its span alone; it is
    # refused before its generators are even converted
    gens = orthant(1000)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError,
                       match=r"in the span check .* 2000000000 units"):
        AffineMonoid(1000, gens)
    assert time.perf_counter() - start < 0.1


def test_saturation_check_rejects_unsaturated():
    # <(1,2),(2,1),(1,1)> spans Z^2; the cone contains (1,0)+(0,1) scaled
    # points like (1,1) (fine) but (2,2) needs... use a genuinely
    # non-saturated monoid: <(2,0),(3,0),(0,1),(1,1)> misses (1,0) which
    # lies in the cone and the group span.
    with pytest.raises(MonoidError, match=r"\(1, 0\)"):
        AffineMonoid(2, [(2, 0), (3, 0), (0, 1), (1, 1)])


def test_saturation_check_rejects_unsaturated_mirror_image():
    # the mirror image of the monoid above misses (-1, 0); a box check in
    # the nonnegative orthant never looked there
    with pytest.raises(MonoidError, match=r"\(-1, 0\)"):
        AffineMonoid(2, [(-2, 0), (-3, 0), (0, -1), (-1, -1)])


def test_saturation_check_walks_every_pair_on_a_facet():
    # the star around (0, 0, 1) meets the one facet z = 0, which holds
    # (1, 0, 0), (1, 1, 0) and (1, 3, 0); only its simplex with (1, 0, 0),
    # (1, 3, 0) holds the missing point (1, 2, 0)
    with pytest.raises(MonoidError, match=r"\(1, 2, 0\)"):
        AffineMonoid(3, [(0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 3, 0)])


def test_saturation_check_rejects_ungenerated_cone_point():
    # spans Z^2, but (1, 2) lies in the cone and is not generated
    with pytest.raises(MonoidError, match=r"\(1, 2\)"):
        AffineMonoid(2, [(1, 0), (1, 1), (1, 3)])


def test_refinement_monoid_q():
    q = AffineMonoid(2, [(1, 0), (-1, 1)])
    assert q.membership((0, 1))   # (0,1) = (1,0) + (-1,1)
    assert q.membership((1, 0))
    assert not q.membership((0, -1))
    assert len(q.faces()) == 4
