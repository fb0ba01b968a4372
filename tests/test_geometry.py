import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charkit.errors import CapacityError
from charkit.geometry import (
    AffineSubspace,
    Ambient,
    ProjectiveLine,
    Subspace,
    _enumerate_lines,
    all_subspaces,
    avoid_lines_subspace,
    dot,
    dots,
    enumerate_lines,
    enumerate_subspaces,
    gaussian_binomial,
    hyperplane_points,
    is_compass_set,
    line_count,
    line_indices,
    line_through,
    perp,
    point_set,
    quadratic_class,
    require_prime_grid,
    sqrt_minus_one,
    vector_valuation,
    vscale,
)

FIXED = settings(derandomize=True, database=None, deadline=None)


def _short_vector_calls():
    """Calls given a vector with the wrong number of coordinates, each with
    the d of its grid: Z_3**2 unless named otherwise."""
    from charkit.bandwidth import classify_small_cbw_set, uncertainty_check
    from charkit.eigen import affine_eigenfunction_pair, self_dual_classify
    from charkit.fourier import GridFunction, forward, vanishes_on
    from charkit.varieties import (
        classify_direction_paraboloid,
        sphere_equidistribution_check,
        sphere_points,
    )
    from charkit.wavelets import masses

    amb, a5 = Ambient(3, 2), Ambient(5, 2)
    f = GridFunction(amb, "rational", range(9))
    calls = {
        "hyperplane_points": lambda: hyperplane_points(amb, (1,), 0),
        "masses": lambda: masses(f, (1,)),
        "delta": lambda: GridFunction.delta(amb, (1,)),
        "line_through": lambda: line_through(amb, (1,)),
        "vanishes_on": lambda: vanishes_on(forward(f), [(1,)]),
        "value_at": lambda: f.value_at((1, 2, 0)),
        "uncertainty_check": lambda: uncertainty_check(amb, [(1,)]),
        "classify_small_cbw_set": lambda: classify_small_cbw_set(amb, [(1,)]),
        "self_dual_classify": lambda: self_dual_classify(amb, [(1,)]),
        "indicator": lambda: GridFunction.indicator(amb, [(1,)]),
        "Subspace.span": lambda: Subspace.span(amb, [(1, 0, 1)]),
        "AffineSubspace": lambda: AffineSubspace(Subspace.span(amb, [(1, 0)]), (1,)),
        "point_set": lambda: point_set(amb, [(1, 2, 3)]),
        "dots": lambda: dots(amb, (1,)),
        "is_compass_set": lambda: is_compass_set(amb, [(0,)]),
        "affine_eigenfunction_pair": lambda: affine_eigenfunction_pair(
            Subspace.span(amb, [(1, 0)]), (1,)
        ),
        "sphere_points": lambda: sphere_points(a5, 1, (1, 2, 3)),
        "sphere_equidistribution_check": lambda: sphere_equidistribution_check(
            GridFunction.constant(a5, 1), (1,)
        ),
    }
    calls = {name: (2, call) for name, call in calls.items()}
    calls["classify_direction_paraboloid"] = (
        3, lambda: classify_direction_paraboloid(Ambient(3, 3), (1,))
    )
    return calls


@pytest.mark.parametrize("entry", sorted(_short_vector_calls()))
def test_vectors_of_the_wrong_length_are_refused(entry):
    d, call = _short_vector_calls()[entry]
    with pytest.raises(ValueError, match=rf"coordinates, not d = {d}$"):
        call()


def scalar_class_partition_oracle(ambient):
    """Brute-force partition of nonzero points into scalar-multiple classes."""
    p = ambient.p
    remaining = {x for x in ambient.points() if any(x)}
    classes = []
    while remaining:
        x = min(remaining)
        cls = {tuple(t * c % p for c in x) for t in range(1, p)}
        classes.append(frozenset(cls))
        remaining -= cls
    return classes


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient(4, 2)
    with pytest.raises(ValueError):
        Ambient(3, 0)
    with pytest.raises(CapacityError):
        Ambient(2, 31)


def test_index_bijection():
    amb = Ambient(3, 3)
    for i, pt in enumerate(amb.points()):
        assert amb.index_of(pt) == i
        assert amb.point_at(i) == pt


def test_enumerate_lines_examples():
    assert [l.rep for l in enumerate_lines(Ambient(2, 2))] == [(0, 1), (1, 0), (1, 1)]
    assert len(enumerate_lines(Ambient(3, 2))) == 4


def test_enumerate_lines_p3_d3_against_partition_oracle():
    amb = Ambient(3, 3)
    lines = enumerate_lines(amb)
    assert len(lines) == 13
    classes = scalar_class_partition_oracle(amb)
    assert len(classes) == 13
    # each class contains exactly one canonical representative
    reps = {l.rep for l in lines}
    for cls in classes:
        assert len(cls & reps) == 1


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_lines_partition_nonzero_points(p, d):
    amb = Ambient(p, d)
    seen = set()
    for line in enumerate_lines(amb):
        pts = set(line.punctured(amb))
        assert not (pts & seen)
        seen |= pts
    assert seen == {x for x in amb.points() if any(x)}
    assert len(enumerate_lines(amb)) == line_count(amb)


def test_enumeration_capacity():
    amb = Ambient(2, 21)
    assert line_count(amb) == 2 ** 21 - 1
    with pytest.raises(CapacityError):
        enumerate_lines(amb)


def cyclic_span_oracle(ambient):
    """Brute-force set of lines {a*v : a in Z_m} over the nonzero v."""
    m = ambient.modulus
    return {
        frozenset(tuple(a * c % m for c in v) for a in range(m))
        for v in ambient.points()
        if any(v)
    }


RING_AND_FIELD_GRIDS = [
    (2, 2, 1), (3, 3, 1), (5, 2, 1), (2, 1, 2), (2, 1, 3), (5, 1, 2),
    (2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2), (2, 4, 2),
]


@pytest.mark.parametrize("p,d,ell", RING_AND_FIELD_GRIDS)
def test_lines_against_cyclic_span_oracle(p, d, ell):
    amb = Ambient(p, d, ell)
    oracle = cyclic_span_oracle(amb)
    lines = enumerate_lines(amb)
    assert len(lines) == line_count(amb) == len(oracle)
    reps = [line.rep for line in lines]
    assert reps == sorted(set(reps))
    assert {frozenset(line.points(amb)) for line in lines} == oracle
    for line in lines:
        pts = line.points(amb)
        assert len(set(pts)) == len(pts) == p ** line.level(amb)
        assert line.punctured(amb) == pts[1:]
        j = ell - line.level(amb)
        lead = next(c for c in line.rep if c % p ** (j + 1))
        assert lead == p ** j
    for v in amb.points():
        if any(v):
            span = frozenset(tuple(a * c % amb.modulus for c in v) for a in range(amb.modulus))
            assert frozenset(line_through(amb, v).points(amb)) == span


@pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (2, 5)])
def test_field_lines_keep_their_representatives_and_points(p, d):
    # the Z_p**d line API from before ring lines were folded in
    amb = Ambient(p, d)
    reps = [
        (0,) * lead + (1,) + tail
        for lead in range(d - 1, -1, -1)
        for tail in itertools.product(range(p), repeat=d - 1 - lead)
    ]
    lines = enumerate_lines(amb)
    assert [line.rep for line in lines] == reps
    for line in lines:
        assert line.points(amb) == tuple(
            tuple(t * c % p for c in line.rep) for t in range(p)
        )
        assert line.level(amb) == 1
    rng = random.Random(f"{p}/{d}")
    for _ in range(50):
        v = tuple(rng.randrange(p) for _ in range(d))
        if any(v):
            first = next(c for c in v if c)
            inv = pow(first, p - 2, p)
            assert line_through(amb, v).rep == tuple(c * inv % p for c in v)


@pytest.mark.parametrize("p,d,ell", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_ring_hyperplanes_partition_grid(p, d, ell):
    amb = Ambient(p, d, ell)
    m = amb.modulus
    for s in amb.points():
        if not any(s):
            continue
        plane = hyperplane_points(amb, s, 0)
        assert len(plane) == p ** (ell * (d - 1) + vector_valuation(amb, s))
        parts = [hyperplane_points(amb, s, t) for t in range(m)]
        assert sum(map(len, parts)) == amb.size
        assert set().union(*parts) == set(amb.points())


@pytest.mark.parametrize(
    "args", [(3.0, 2), (3, 2.0), (3, 2, 1.0), (True, 2), (3, True), (3, 2, True), ("3", 2)]
)
def test_ambient_rejects_non_integer_fields(args):
    with pytest.raises(ValueError):
        Ambient(*args)


def test_subspaces_reject_ring_grids():
    amb = Ambient(2, 2, 2)
    with pytest.raises(ValueError):
        Subspace.zero(amb)
    with pytest.raises(ValueError):
        Subspace.span(amb, [(1, 0)])
    with pytest.raises(ValueError):
        next(enumerate_subspaces(amb, 1))
    with pytest.raises(ValueError):
        require_prime_grid(amb)
    require_prime_grid(Ambient(2, 2))


def test_hyperplane_examples():
    assert hyperplane_points(Ambient(3, 2), (1, 0), 1) == {(1, 0), (1, 1), (1, 2)}
    assert hyperplane_points(Ambient(2, 2), (1, 1), 0) == {(0, 0), (1, 1)}
    amb = Ambient(5, 3)
    plane = hyperplane_points(amb, (1, 2, 3), 4)
    assert len(plane) == 25
    assert plane == {x for x in amb.points() if dot(x, (1, 2, 3), 5) == 4}


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_hyperplanes_partition_grid(p, d):
    amb = Ambient(p, d)
    for s in amb.points():
        if not any(s):
            continue
        union = set()
        for t in range(p):
            part = hyperplane_points(amb, s, t)
            assert len(part) == p ** (d - 1)
            assert not (part & union)
            union |= part
        assert union == set(amb.points())


def test_hyperplane_zero_direction():
    with pytest.raises(ValueError):
        hyperplane_points(Ambient(3, 2), (0, 0), 1)


def test_perp_examples():
    a22 = Ambient(2, 2)
    V = Subspace.span(a22, [(1, 1)])
    assert perp(V) == V  # self-perpendicular line
    a32 = Ambient(3, 2)
    assert perp(Subspace.span(a32, [(1, 0)])) == Subspace.span(a32, [(0, 1)])


def test_perp_p5_d4_against_exhaustive_oracle():
    amb = Ambient(5, 4)
    V = Subspace.span(amb, [(1, 2, 0, 0), (0, 0, 1, 3)])
    W = perp(V)
    assert W.dim == 2
    oracle = {
        x for x in amb.points() if all(dot(x, b, 5) == 0 for b in V.basis)
    }
    assert set(W.points()) == oracle
    assert perp(W) == V


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_perp_involution_all_subspaces(p, d):
    amb = Ambient(p, d)
    for V in all_subspaces(amb):
        W = perp(V)
        assert V.dim + W.dim == d
        assert perp(W) == V


def test_compass_examples():
    a22 = Ambient(2, 2)
    assert is_compass_set(a22, [(0, 1), (1, 0), (1, 1)])
    a32 = Ambient(3, 2)
    assert not is_compass_set(a32, [(0, 1), (1, 0), (1, 1)])  # misses line of (1,2)
    assert is_compass_set(a32, [(0, 1), (1, 0), (1, 1), (2, 4)])
    assert not is_compass_set(a32, [])
    assert not is_compass_set(a32, [(0, 0)])


def test_compass_by_exhaustive_line_coverage():
    amb = Ambient(3, 2)
    sphere1 = {x for x in amb.points() if (x[0] ** 2 + x[1] ** 2) % 3 == 1}
    candidate = sphere1 | {(1, 1)}
    covered = {line_through(amb, x) for x in candidate if any(x)}
    assert is_compass_set(amb, candidate) == (len(covered) == line_count(amb))


def test_quadratic_class():
    assert quadratic_class(4, 5) == "residue"
    assert quadratic_class(0, 5) == "zero"
    assert quadratic_class(2, 7) == "residue"
    assert quadratic_class(3, 7) == "non-residue"
    # squaring-table oracle mod 7
    squares = {x * x % 7 for x in range(1, 7)}
    for a in range(1, 7):
        want = "residue" if a in squares else "non-residue"
        assert quadratic_class(a, 7) == want


def test_sqrt_minus_one():
    assert sqrt_minus_one(5) == 2
    assert sqrt_minus_one(13) == 5
    for p in (5, 13, 17):
        i = sqrt_minus_one(p)
        assert i * i % p == p - 1
        assert i <= p - i  # smaller root
    with pytest.raises(ValueError):
        sqrt_minus_one(7)
    with pytest.raises(ValueError):
        sqrt_minus_one(2)


def test_point_set_reduces_every_coordinate_mod_the_modulus():
    assert point_set(Ambient(3, 2), [(4, -1), (1, 2), (0, 3)]) == {(1, 2), (0, 0)}
    assert point_set(Ambient(2, 2, 2), [(5, -1), (1, 3)]) == {(1, 3)}
    assert point_set(Ambient(5, 1), []) == frozenset()


def test_avoid_lines_base_case():
    amb = Ambient(3, 2)
    V = avoid_lines_subspace(amb, [ProjectiveLine((1, 0))], 0)
    assert V.basis == ((0, 1),)


def test_avoid_lines_empty_avoid_first_fit():
    amb = Ambient(2, 3)
    V = avoid_lines_subspace(amb, [], 1)
    assert V == Subspace.span(amb, [(0, 0, 1), (0, 1, 0)])


def test_avoid_lines_derived_example():
    amb = Ambient(2, 3)
    S = {ProjectiveLine((1, 0, 0)), ProjectiveLine((0, 1, 0))}
    V = avoid_lines_subspace(amb, S, 1)
    assert V.dim == 2
    assert all(line_through(amb, x) not in S for x in V.nonzero_points())
    # oracle: some 2-dim subspace avoiding S exists among all of them
    witnesses = [
        W
        for W in enumerate_subspaces(amb, 2)
        if all(line_through(amb, x) not in S for x in W.nonzero_points())
    ]
    assert V in witnesses


def test_avoid_lines_boundary_exhaustive_p2_d3():
    amb = Ambient(2, 3)
    lines = enumerate_lines(amb)
    for k in range(3):
        boundary = (2 ** (3 - k) - 1) - 1  # (p**(d-k)-1)/(p-1) - 1 at p = 2
        for S in itertools.combinations(lines, boundary):
            V = avoid_lines_subspace(amb, S, k)
            assert V.dim == k + 1
            assert all(line_through(amb, x) not in set(S) for x in V.nonzero_points())


def test_avoid_lines_precondition():
    amb = Ambient(2, 2)
    with pytest.raises(ValueError):
        avoid_lines_subspace(amb, enumerate_lines(amb), 1)
    with pytest.raises(ValueError):
        avoid_lines_subspace(amb, [], 2)


@pytest.mark.parametrize("p,d,k", [(2, 3, 2), (3, 2, 1), (3, 3, 2), (5, 2, 1)])
def test_subspace_counts_match_gaussian_binomial(p, d, k):
    amb = Ambient(p, d)
    assert sum(1 for _ in enumerate_subspaces(amb, k)) == gaussian_binomial(d, k, p)


def test_subspace_identity_is_canonical():
    amb = Ambient(3, 2)
    A = Subspace.span(amb, [(1, 2)])
    B = Subspace.span(amb, [(2, 4)])  # same line, different generator
    assert A == B
    rng = random.Random(8)
    amb2 = Ambient(3, 3)
    for _ in range(20):
        vecs = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(2)]
        V = Subspace.span(amb2, vecs)
        shuffled = Subspace.span(amb2, list(reversed(vecs)) + [vecs[0]])
        assert V == shuffled


def test_affine_subspace_canonical_anchor():
    amb = Ambient(3, 2)
    V = Subspace.span(amb, [(1, 0)])
    a = AffineSubspace(V, (0, 1))
    b = AffineSubspace(V, (2, 1))  # differs by (2,0) in V
    assert a == b
    assert a.contains((1, 1)) and not a.contains((1, 2))
    assert len(set(a.points())) == 3
    # p**(d-k) distinct cosets
    cosets = {AffineSubspace(V, x) for x in amb.points()}
    assert len(cosets) == 3


def test_subspace_membership_and_points():
    amb = Ambient(5, 3)
    V = Subspace.span(amb, [(1, 2, 0), (0, 0, 1)])
    assert V.dim == 2
    pts = V.points()
    assert len(set(pts)) == 25
    assert all(V.contains(x) for x in pts)
    assert not V.contains((0, 1, 0))


def test_one_ambient_for_every_modulus():
    assert Ambient(3, 2, 1) == Ambient(3, 2)
    assert hash(Ambient(3, 2, 1)) == hash(Ambient(3, 2))
    ring = Ambient(2, 2, 2)
    assert ring.modulus == 4 and ring.size == 16 and len(ring.points()) == 16
    assert ring.point_at(ring.index_of((3, 1))) == (3, 1)
    assert Ambient(3, 2, 2).points()[-1] == (8, 8)
    with pytest.raises(CapacityError):
        Ambient(2, 12, 2)  # 4**12 points, though 2**12 would fit


# --- the index helpers against the point-by-point derivations they replace

HELPER_GRIDS = [
    Ambient(2, 10), Ambient(3, 4), Ambient(7, 3), Ambient(13, 2),
    Ambient(2, 3, 2), Ambient(3, 2, 2), Ambient(2, 2, 3),
]
HELPER_IDS = [f"Z_{a.modulus}^{a.d}" for a in HELPER_GRIDS]


@pytest.mark.parametrize("amb", HELPER_GRIDS, ids=HELPER_IDS)
def test_line_indices_walk_each_line_from_the_origin(amb):
    table = line_indices(amb)
    assert list(table) == list(enumerate_lines(amb))
    m = amb.modulus
    for line, indices in table.items():
        assert indices == tuple(
            amb.index_of(vscale(t, line.rep, m)) for t in range(m // math.gcd(m, *line.rep))
        )
        assert indices[0] == 0
    assert line_indices(amb) is table


def test_line_indices_refuse_too_many_lines_before_building():
    amb = Ambient(2, 21)
    before = (_enumerate_lines.cache_info().currsize, line_indices.cache_info().currsize)
    with pytest.raises(CapacityError):
        line_indices(amb)
    assert (_enumerate_lines.cache_info().currsize, line_indices.cache_info().currsize) == before


@st.composite
def grid_and_vector(draw):
    amb = draw(st.sampled_from(HELPER_GRIDS))
    m = amb.modulus
    v = draw(st.tuples(*[st.integers(-m, 2 * m - 1)] * amb.d))
    return amb, v


@settings(FIXED, max_examples=60)
@given(grid_and_vector())
def test_dots_label_every_point_by_its_dot_product(case):
    amb, v = case
    assert dots(amb, v) == [dot(x, v, amb.modulus) for x in amb.points()]


@pytest.mark.parametrize("amb", HELPER_GRIDS, ids=HELPER_IDS)
def test_dots_of_the_zero_vector_label_every_point_zero(amb):
    zero = amb.origin()
    assert dots(amb, zero) == [dot(x, zero, amb.modulus) for x in amb.points()] == [0] * amb.size
