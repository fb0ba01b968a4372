import itertools
from fractions import Fraction

import pytest

from charkit.corpus import random_point, random_rational_function, random_subspace, rng_for
from charkit.eigen import (
    affine_eigenfunction_pair,
    eigen_expand,
    eigen_residuals,
    eigenfunction_pair,
    enumerate_lagrangian,
    self_dual_classify,
)
from charkit.fourier import GridFunction, forward
from charkit.geometry import Ambient, Subspace, all_subspaces, hyperplane_points, perp


def test_self_dual_empty():
    res = self_dual_classify(Ambient(3, 2), [])
    assert res.kind == "empty" and res.eigenvalue == 0


def test_self_dual_isotropic_line_p2():
    amb = Ambient(2, 2)
    res = self_dual_classify(amb, [(0, 0), (1, 1)])
    assert res.kind == "lagrangian"
    assert res.eigenvalue == Fraction(1, 2)
    assert res.subspace == Subspace.span(amb, [(1, 1)])


def test_self_dual_exhaustive_2_2():
    amb = Ambient(2, 2)
    pts = amb.points()
    hits = []
    for r in range(5):
        for E in itertools.combinations(pts, r):
            res = self_dual_classify(amb, E)
            if res.kind != "not_self_dual":
                hits.append((frozenset(E), res.kind))
    assert hits == [
        (frozenset(), "empty"),
        (frozenset({(0, 0), (1, 1)}), "lagrangian"),
    ]


@pytest.mark.parametrize("p,d", [(3, 2), (2, 3)])
def test_self_dual_exhaustive_only_empty(p, d):
    amb = Ambient(p, d)
    pts = amb.points()
    for r in range(len(pts) + 1):
        for E in itertools.combinations(pts, r):
            res = self_dual_classify(amb, E)
            assert (res.kind == "empty") == (r == 0)
            if r:
                assert res.kind == "not_self_dual"


def test_lagrangian_enumeration():
    assert [L.basis for L in enumerate_lagrangian(Ambient(2, 2))] == [((1, 1),)]
    assert enumerate_lagrangian(Ambient(3, 2)) == []
    assert [L.basis for L in enumerate_lagrangian(Ambient(5, 2))] == [
        ((1, 2),),
        ((1, 3),),
    ]
    assert enumerate_lagrangian(Ambient(3, 3)) == []  # odd dimension


def test_plain_pair_p3_line():
    amb = Ambient(3, 2)
    V = Subspace.span(amb, [(1, 0)])
    pair = eigenfunction_pair(V)
    assert pair.exact and not pair.degenerate
    # coefficient p**(d/2-k) = 1 here, so plus is 1_V + 1_{V perp}
    expected = GridFunction.indicator(amb, V.points()) + GridFunction.indicator(
        amb, perp(V).points()
    )
    assert pair.plus == expected
    assert eigen_residuals(pair) == (0.0, 0.0)


def test_plain_pair_point_subspace_p2():
    amb = Ambient(2, 2)
    pair = eigenfunction_pair(Subspace.zero(amb))
    # plus = 2*delta_0 + 1
    assert pair.plus == GridFunction(amb, "rational", [3, 1, 1, 1])
    F = forward(pair.plus)
    assert F == pair.plus.scale(Fraction(1, 2))
    assert eigen_residuals(pair) == (0.0, 0.0)


def test_lagrangian_pair_degenerates():
    amb = Ambient(2, 2)
    pair = eigenfunction_pair(Subspace.span(amb, [(1, 1)]))
    assert pair.degenerate and pair.minus.is_zero()
    assert eigen_residuals(pair) == (0.0, 0.0)


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3)])
def test_pairs_for_every_subspace(p, d):
    amb = Ambient(p, d)
    tol = 1e-9
    for V in all_subspaces(amb):
        pair = eigenfunction_pair(V)
        pr, mr = eigen_residuals(pair)
        assert pr < tol and mr < tol
        assert pair.exact == (d % 2 == 0)


def test_affine_pair_reduces_to_plain_at_origin():
    amb = Ambient(3, 2)
    V = Subspace.span(amb, [(0, 1)])
    assert affine_eigenfunction_pair(V, (0, 0)).transform_kind == "plain"
    pair = affine_eigenfunction_pair(V, (1, 0))
    assert pair.transform_kind == "conjugate"
    assert eigen_residuals(pair) == (0.0, 0.0)


def test_affine_pair_p2_off_lagrangian():
    amb = Ambient(2, 2)
    V = Subspace.span(amb, [(1, 1)])
    pair = affine_eigenfunction_pair(V, (1, 0))
    assert not pair.degenerate
    assert eigen_residuals(pair) == (0.0, 0.0)


def test_affine_pairs_random():
    for i in range(20):
        rng = rng_for(600, f"affine/{i}")
        amb = Ambient(*[(2, 2), (3, 2), (2, 3)][i % 3])
        V = random_subspace(amb, rng, min_dim=1)
        x = random_point(amb, rng)
        pair = affine_eigenfunction_pair(V, x)
        pr, mr = eigen_residuals(pair)
        assert pr < 1e-9 and mr < 1e-9


def test_plus_minus_orthogonal():
    # <f+, f-> = c**2 |V| - |V perp| = 0 for every non-degenerate pair
    for p, d in [(2, 2), (3, 2)]:
        amb = Ambient(p, d)
        for V in all_subspaces(amb):
            pair = eigenfunction_pair(V)
            inner = sum(
                (a * b for a, b in zip(pair.plus.values, pair.minus.values)),
                Fraction(0),
            )
            assert inner == 0


def test_unitary_norm_ratio():
    rng = rng_for(601, "unitary")
    for p, d in [(2, 2), (3, 2), (2, 3)]:
        amb = Ambient(p, d)
        for V in all_subspaces(amb):
            g = eigenfunction_pair(V).plus.to_complex()
            F = forward(g)
            lhs = sum(abs(v) ** 2 for v in F.values) ** 0.5
            rhs = p ** (-d / 2) * sum(abs(v) ** 2 for v in g.values) ** 0.5
            assert abs(lhs - rhs) < 1e-9


def test_full_space_pair_is_independent():
    # V = full space leaves V perp = {0}; plus and minus stay independent
    amb = Ambient(3, 2)
    pair = eigenfunction_pair(Subspace.full(amb))
    assert not pair.degenerate
    a, b = pair.plus.values, pair.minus.values
    # not proportional: cross-ratio differs at origin vs elsewhere
    assert a[0] * b[1] != a[1] * b[0]


def test_eigen_expand_constant_single_term():
    amb = Ambient(3, 2)
    c = GridFunction.constant(amb, Fraction(5, 7))
    exp = eigen_expand(c)
    assert len(exp.terms) == 1
    assert exp.terms[0].pair.subspace == Subspace.full(amb)
    assert exp.evaluate() == c


def test_eigen_expand_hyperplane():
    amb = Ambient(3, 2)
    h = GridFunction.indicator(amb, hyperplane_points(amb, (1, 0), 1))
    exp = eigen_expand(h)
    assert len(exp.terms) == 1  # one pair carries both the + and - pieces
    assert exp.evaluate() == h


def test_eigen_expand_random_exact():
    for i in range(10):
        rng = rng_for(602, f"expand/{i}")
        amb = Ambient(3, 2)
        f = random_rational_function(amb, rng)
        exp = eigen_expand(f)
        assert exp.evaluate() == f


def test_a_rational_beyond_the_float_range_has_no_complex_value():
    amb = Ambient(3, 1)
    with pytest.raises(ValueError, match="complex values must be finite"):
        GridFunction(amb, "complex", [Fraction(10**400), 0, 0])
    with pytest.raises(ValueError, match="complex values must be finite"):
        eigen_expand(GridFunction(Ambient(3, 3), "rational", [10**400] + [0] * 26))


def test_eigen_expand_odd_dimension_close():
    rng = rng_for(603, "expand3")
    amb = Ambient(2, 3)
    f = random_rational_function(amb, rng)
    exp = eigen_expand(f)
    assert exp.evaluate().isclose(f.to_complex())
