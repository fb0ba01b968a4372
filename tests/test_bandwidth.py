import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charkit import fourier
from charkit.bandwidth import (
    bandwidth,
    classify_small_cbw_set,
    constancy_from_compass,
    equidistribution_check,
    inverse_phi,
    support_profile,
    uncertainty_check,
    vanishing_certificate,
)
from charkit.corpus import (
    random_rational_function,
    random_subspace,
    rng_for,
    staircase_function,
    staircase_set,
)
from charkit.fourier import GridFunction, forward, inverse
from charkit.geometry import (
    Ambient,
    ProjectiveLine,
    Subspace,
    enumerate_lines,
    hyperplane_points,
    perp,
    vadd,
    vscale,
)
from charkit.scalars import Cyclotomic


def test_constant_has_zero_bandwidth():
    rep = bandwidth(GridFunction.constant(Ambient(3, 2), Fraction(7, 2)))
    assert rep.cbw == 0 and rep.bw == 0 and rep.bwd == 0 and rep.lines == ()


def test_staircase_bandwidth_report():
    rep = bandwidth(staircase_function(3))
    assert rep.cbw == 3
    assert [l.rep for l in rep.lines] == [(0, 1), (1, 0), (1, 1)]
    assert rep.bw == Fraction(3, 4)
    assert abs(rep.bwd - math.log(7, 3)) < 1e-12
    assert not rep.approximate


def test_wavelet_has_bandwidth_one():
    amb = Ambient(3, 2)
    f = GridFunction.indicator(amb, hyperplane_points(amb, (1, 2), 1))
    rep = bandwidth(f)
    assert rep.cbw == 1 and rep.lines[0].rep == (1, 2)


def test_cbw_zero_iff_constant():
    rng = rng_for(300, "cbw0")
    for i in range(40):
        amb = Ambient((2, 3, 5)[i % 3], 2)
        f = random_rational_function(amb, rng)
        assert (bandwidth(f).cbw == 0) == f.is_constant()


def test_complex_input_marked_approximate():
    amb = Ambient(3, 2)
    f = GridFunction(amb, "complex", [complex(i, 0) for i in range(9)])
    assert bandwidth(f).approximate


def test_vanishing_principle_lines_all_or_none():
    rng = rng_for(301, "vanish")
    cases = [(p, d) for p in (2, 3, 5, 7) for d in (2, 3)] + [(7, 3)]
    for i in range(30):
        amb = Ambient(*cases[i % len(cases)])
        f = random_rational_function(amb, rng)
        F = forward(f)
        for line in enumerate_lines(amb):
            flags = [F.value_at(x).is_zero() for x in line.punctured(amb)]
            assert all(flags) or not any(flags)


def test_certificate_for_constant_is_full_space():
    amb = Ambient(3, 2)
    W = vanishing_certificate(GridFunction.constant(amb, 1))
    assert W.dim == 2


def test_certificate_single_wavelet_p3_d3():
    amb = Ambient(3, 3)
    f = GridFunction.indicator(amb, hyperplane_points(amb, (1, 1, 2), 1))
    W = vanishing_certificate(f)
    assert W.dim == 2
    F = forward(f)
    assert all(F.value_at(x).is_zero() for x in W.nonzero_points())


def test_certificate_staircase_is_line_1_2():
    W = vanishing_certificate(staircase_function(3))
    assert W.basis == ((1, 2),)


def test_certificate_none_when_every_line_active():
    amb = Ambient(2, 2)
    # delta has a nowhere-zero spectrum
    assert vanishing_certificate(GridFunction.delta(amb, (1, 0))) is None
    with pytest.raises(ValueError):
        vanishing_certificate(GridFunction.constant(amb, 0))


def test_equidistribution_constant():
    amb = Ambient(3, 2)
    V = Subspace.span(amb, [(1, 0)])
    r = equidistribution_check(GridFunction.constant(amb, Fraction(2)), V)
    assert r.equidistributed and r.common_mass == Fraction(2) * 3


def test_equidistribution_single_coset_fails():
    amb = Ambient(3, 2)
    V = Subspace.span(amb, [(1, 0)])
    W = perp(V)
    coset = [vadd(w, (1, 0), 3) for w in W.points()]
    r = equidistribution_check(GridFunction.indicator(amb, coset), V)
    assert not r.equidistributed
    assert not r.spectrum_vanishes


def test_equidistribution_two_cosets_derived():
    amb = Ambient(3, 2)
    E = {(0, y) for y in range(3)} | {(1, y) for y in range(3)}
    f = GridFunction.indicator(amb, E)
    # against the column direction the masses are (3,3,0): not equidistributed
    r1 = equidistribution_check(f, Subspace.span(amb, [(1, 0)]))
    assert not r1.equidistributed and sorted(r1.masses) == [0, 3, 3]
    # against the row direction the masses are all 2 and |E| = 2 * 3**k
    r2 = equidistribution_check(f, Subspace.span(amb, [(0, 1)]))
    assert r2.equidistributed and r2.common_mass == 2
    assert len(E) % 3 == 0


def test_equidistribution_biconditional_random():
    for i in range(60):
        rng = rng_for(302, f"equi/{i}")
        p, d = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)][i % 5]
        amb = Ambient(p, d)
        f = random_rational_function(amb, rng)
        V = random_subspace(amb, rng)
        equidistribution_check(f, V)  # raises on any biconditional failure


def test_equidistribution_judges_complex_masses_on_the_scale_of_the_spectrum():
    """F(0) = 1, F = 1e-6 on V minus 0 and 1e6 elsewhere: F vanishes on the
    punctured V by the zero rule, and the masses agree within
    2|W|(|V| - 1) * tol * max|F| though they differ by far more than tol
    times their own size."""
    amb = Ambient(3, 2)
    V = Subspace.span(amb, [(1, 0)])
    values = [1.0 if not any(x) else 1e-6 if V.contains(x) else 1e6 for x in amb.points()]
    r = equidistribution_check(inverse(GridFunction(amb, "complex", values)), V)
    assert r.equidistributed and r.spectrum_vanishes


def test_equidistribution_reports_the_band_between_its_floating_judgments():
    """F = 1.2e-9 on V minus 0, just above the zero rule's 1e-9 * max|F|: the
    spectrum does not vanish, yet the masses differ by 9 * 1.2e-9, inside the
    bound 12e-9 that vanishing implies.  Complex input reports both; the same
    disagreement on exact input would raise."""
    amb = Ambient(3, 2)
    V = Subspace.span(amb, [(1, 0)])
    values = [1.2e-9 if any(x) and V.contains(x) else 1.0 for x in amb.points()]
    r = equidistribution_check(inverse(GridFunction(amb, "complex", values)), V)
    assert r.equidistributed and not r.spectrum_vanishes


def test_uncertainty_full_space_is_tight():
    amb = Ambient(3, 2)
    rep = uncertainty_check(amb, amb.points())
    assert rep.cbw == 0 and rep.lhs == rep.rhs == 9 and rep.holds


def test_uncertainty_staircase_example():
    rep = uncertainty_check(Ambient(3, 2), staircase_set(3))
    assert (rep.lhs, rep.rhs) == (21, 9)
    assert rep.holds and rep.dim_bound_holds


def test_uncertainty_exhaustive_z2_squared():
    amb = Ambient(2, 2)
    pts = amb.points()
    results = []
    for r in range(1, 5):
        for E in itertools.combinations(pts, r):
            results.append(uncertainty_check(amb, E).holds)
    assert len(results) == 15 and all(results)


def test_uncertainty_rejects_empty():
    with pytest.raises(ValueError):
        uncertainty_check(Ambient(2, 2), [])


def test_dichotomy_single_affine_line():
    amb = Ambient(3, 2)
    E = {(0, 1), (1, 2), (2, 0)}  # the line y = x + 1
    cls = classify_small_cbw_set(amb, E)
    assert cls.kind == "union_of_parallel_lines"
    assert cls.direction == (1, 1)


def test_dichotomy_staircase_exceeds_d():
    cls = classify_small_cbw_set(Ambient(3, 2), staircase_set(3))
    assert cls.kind == "cbw_exceeds_d" and cls.cbw == 3


def test_dichotomy_refuses_dimension_one():
    # at d = 1 a single point has cbw 1 = d and is no union of parallel lines
    for p in (2, 3):
        with pytest.raises(ValueError, match="dimension >= 2"):
            classify_small_cbw_set(Ambient(p, 1), [(0,)])


def test_dichotomy_exhaustive_z2_squared():
    amb = Ambient(2, 2)
    pts = amb.points()
    for r in range(5):
        for E in itertools.combinations(pts, r):
            classify_small_cbw_set(amb, E)  # raises on violation


def test_constancy_from_compass_examples():
    amb = Ambient(3, 2)
    assert constancy_from_compass(GridFunction.constant(amb, Fraction(1, 7)))
    assert not constancy_from_compass(GridFunction.delta(amb, (0, 0)))


def test_constancy_from_compass_random_never_violates():
    for i in range(200):
        rng = rng_for(303, f"compass/{i}")
        amb = Ambient((3, 5)[i % 2], 2)
        f = random_rational_function(amb, rng)
        constancy_from_compass(f)  # must not raise


def test_inverse_phi_all_zero_seeds():
    amb = Ambient(5, 2)
    assert inverse_phi(amb, Fraction(3), {}) == GridFunction.constant(amb, Fraction(3))


def test_inverse_phi_hyperplane():
    amb = Ambient(3, 2)
    f = inverse_phi(amb, Fraction(1, 3), {ProjectiveLine((1, 0)): Fraction(1, 3)})
    assert f == GridFunction.indicator(amb, hyperplane_points(amb, (1, 0), 0))


def test_inverse_phi_round_trip_p5():
    amb = Ambient(5, 2)
    rng = rng_for(304, "phi")
    seeds = {}
    for line in enumerate_lines(amb):
        if rng.random() < 0.6:
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            seeds[line] = Cyclotomic(5, coeffs)
    dc = Fraction(rng.randint(-3, 3), 2)
    f = inverse_phi(amb, dc, seeds)
    assert f.kind == "rational"
    F = forward(f)
    assert F.values[0].rational_part() == dc
    for line in enumerate_lines(amb):
        want = seeds.get(line, Cyclotomic.zero(5))
        assert F.value_at(line.rep) == want


def test_inverse_phi_support_contained_in_seeded_lines():
    amb = Ambient(3, 2)
    line = ProjectiveLine((1, 2))
    f = inverse_phi(amb, Fraction(0), {line: Fraction(2, 3)})
    profile = support_profile(forward(f), source_kind="rational")
    assert [l.rep for l in profile.lines] == [(1, 2)]


def test_inverse_phi_rejects_non_canonical_seed_keys():
    # The zero vector spans no line: keyed by it, a seed would overwrite the
    # average.  A non-canonical generator such as (2, 0) would put the seed
    # at F(2, 0) rather than at the line's canonical point F(1, 0).
    zero_key = {ProjectiveLine((0, 0)): Cyclotomic.zeta(3)}
    with pytest.raises(ValueError):
        inverse_phi(Ambient(3, 2), Fraction(1), zero_key)
    amb = Ambient(5, 2)
    for key in (ProjectiveLine((2, 0)), (2, 0), (6, 0), (1, 0, 0), (0,)):
        with pytest.raises(ValueError):
            inverse_phi(amb, Fraction(0), {key: Fraction(1, 5)})
    assert inverse_phi(amb, Fraction(0), {(1, 0): Fraction(1, 5)}) == inverse_phi(
        amb, Fraction(0), {ProjectiveLine((1, 0)): Fraction(1, 5)}
    )


def test_inverse_phi_rejects_an_irrational_average():
    with pytest.raises(ValueError, match="rational"):
        inverse_phi(Ambient(3, 2), Cyclotomic.zeta(3), {})


def test_inverse_phi_rejects_complex_values():
    amb = Ambient(3, 2)
    with pytest.raises(ValueError, match="rational or cyclotomic"):
        inverse_phi(amb, Fraction(0), {(1, 0): 1j})
    with pytest.raises(ValueError, match="rational or cyclotomic"):
        inverse_phi(amb, 1j, {})


def test_inverse_phi_rejects_two_seeds_for_one_line():
    with pytest.raises(ValueError, match="two seeds"):
        inverse_phi(Ambient(3, 2), Fraction(0), {(1, 0): 1, ProjectiveLine((1, 0)): 2})


PHI_GRIDS = [Ambient(2, 3), Ambient(3, 2), Ambient(5, 2), Ambient(7, 2),
             Ambient(3, 3), Ambient(5, 3), Ambient(13, 2)]
PHI_EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=12)


def _phi_input(ambient, rng, share: float):
    """An average and a rational or cyclotomic seed on about a ``share`` of
    the lines, each with mixed denominators."""
    p = ambient.p

    def fraction():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 6, 12)))

    seeds = {}
    for line in enumerate_lines(ambient):
        if rng.random() < share:
            rational = rng.random() < 0.4
            seeds[line] = fraction() if rational else Cyclotomic(p, [fraction() for _ in range(p - 1)])
    return fraction(), seeds


def _equivariant_extension(ambient, dc, seeds) -> GridFunction:
    """The reference spectrum: F(0) = dc, F(r*s) = sigma_r(seed of s) filled
    point by point with ``Cyclotomic.galois``, zero on unseeded lines."""
    p = ambient.p
    values = [Cyclotomic.zero(p)] * ambient.size
    values[0] = Cyclotomic.from_rational(p, dc)
    for line, seed in seeds.items():
        z = seed if isinstance(seed, Cyclotomic) else Cyclotomic.from_rational(p, seed)
        for r in range(1, p):
            values[ambient.index_of(vscale(r, line.rep, p))] = z.galois(r)
    return GridFunction(ambient, "cyclotomic", values)


@pytest.mark.parametrize("ambient", PHI_GRIDS, ids=lambda a: f"{a.p}-{a.d}")
@PHI_EXAMPLES
@given(st.integers(0, 2**32), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_inverse_phi_equals_the_inverse_of_the_galois_filled_spectrum(ambient, seed, share):
    dc, seeds = _phi_input(ambient, random.Random(seed), share)
    F = _equivariant_extension(ambient, dc, seeds)
    f, reference = inverse_phi(ambient, dc, seeds), inverse(F)
    assert f.kind == reference.kind == "rational"
    assert f.values == reference.values


@pytest.mark.parametrize("ambient", PHI_GRIDS, ids=lambda a: f"{a.p}-{a.d}")
@PHI_EXAMPLES
@given(st.integers(0, 2**32), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_the_spectrum_of_inverse_phi_is_the_equivariant_extension(ambient, seed, share):
    dc, seeds = _phi_input(ambient, random.Random(seed), share)
    assert forward(inverse_phi(ambient, dc, seeds)).values == (
        _equivariant_extension(ambient, dc, seeds).values
    )


def test_inverse_phi_makes_no_inverse_call(monkeypatch):
    original, calls = fourier.inverse, []

    def counted(F):
        calls.append(F)
        return original(F)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("charkit"):
            if getattr(module, "inverse", None) is original:
                monkeypatch.setattr(module, "inverse", counted)
    for ambient in PHI_GRIDS:
        inverse_phi(ambient, *_phi_input(ambient, random.Random(ambient.size), 0.7))
    assert calls == []
    fourier.inverse(GridFunction.constant(Ambient(3, 2), Fraction(1)))
    assert len(calls) == 1  # the count sees a call through the module


def test_spectrum_in_subspace_forces_coset_constancy():
    # seeds only on lines inside V: f must be constant on cosets of perp(V)
    amb = Ambient(3, 3)
    V = Subspace.span(amb, [(1, 0, 0), (0, 1, 0)])
    rng = rng_for(305, "corperp")
    seeds = {}
    for line in enumerate_lines(amb):
        if V.contains(line.rep) and rng.random() < 0.8:
            seeds[line] = Fraction(rng.randint(-4, 4), 3)
    f = inverse_phi(amb, Fraction(1, 2), seeds)
    W = perp(V)
    reps = {}
    for x in amb.points():
        key = W.reduce(x)
        reps.setdefault(key, set()).add(f.value_at(x))
    assert all(len(vals) == 1 for vals in reps.values())


def test_line_support_analysis_rejects_ring_grids():
    amb = Ambient(2, 2, 2)
    f = random_rational_function(amb, rng_for(416, "ring"))
    E = [(0, 0), (1, 2)]
    for call in (
        lambda: support_profile(forward(f), f.kind),
        lambda: bandwidth(f),
        lambda: vanishing_certificate(f),
        lambda: uncertainty_check(amb, E),
        lambda: classify_small_cbw_set(amb, E),
        lambda: inverse_phi(amb, 1, {}),
        lambda: inverse_phi(amb, 1, {ProjectiveLine((1, 0)): 1}),
    ):
        with pytest.raises(ValueError, match="Z_p\\*\\*d only"):
            call()
