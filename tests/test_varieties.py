import cmath
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charkit.bandwidth import equidistribution_check, inverse_phi, support_profile
from charkit import cli, fileio, varieties
from charkit.corpus import (
    random_complex_function,
    random_point,
    random_rational_function,
    random_subspace,
    rng_for,
)
from charkit.errors import HypothesisNotMet
from charkit.fourier import GridFunction, forward, inverse, vanishes_on
from charkit.geometry import (
    Ambient,
    ProjectiveLine,
    enumerate_lines,
    least_non_residue,
    line_through,
    quadratic_class,
    sqrt_minus_one,
    translate_set,
)
from charkit.varieties import (
    ParaboloidReport,
    check_paraboloid_theorem,
    classify_direction_paraboloid,
    is_good,
    isotropic_cone,
    paraboloid_points,
    slice_last,
    sphere_count,
    sphere_equidistribution_check,
    sphere_points,
    two_circle_analysis,
)


def seeded_good_function(ambient, rng, dc=Fraction(0)):
    """A rational function with spectrum inside the cone, via line seeds."""
    cone = isotropic_cone(ambient)
    seeds = {}
    for line in enumerate_lines(ambient):
        if line.rep in cone:
            seeds[line] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    return inverse_phi(ambient, dc, seeds)


def test_paraboloid_contains_origin_and_counts():
    amb = Ambient(3, 2)
    pts = paraboloid_points(amb)
    assert (0, 0) in pts
    assert pts == {(x, y) for (x, y) in amb.points() if y == x * x % 3}


def test_sphere_counts_p3():
    assert sphere_count(3, 2, 1) == 4
    assert sphere_count(3, 2, 2) == 4
    assert sphere_points(Ambient(3, 2), 1) == {(0, 1), (0, 2), (1, 0), (2, 0)}


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 3)])
def test_sphere_about_a_center_is_the_translated_sphere(p, d):
    amb = Ambient(p, d)
    rng = rng_for(509, f"center{p}{d}")
    for r in range(-1, p + 1):
        center = tuple(rng.randint(-p, 2 * p) for _ in range(d))
        assert sphere_points(amb, r, center) == translate_set(sphere_points(amb, r), center, p)
        assert sphere_points(amb, r, amb.origin()) == sphere_points(amb, r)


def test_sphere_counts_equal_nonzero_radii_p5():
    counts = [sphere_count(5, 2, r) for r in range(1, 5)]
    assert len(set(counts)) == 1


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 4)])
def test_nonzero_radius_spheres_equinumerous_even_d(p, d):
    counts = [sphere_count(p, d, r) for r in range(1, p)]
    assert len(set(counts)) == 1


def test_constant_is_good():
    assert is_good(GridFunction.constant(Ambient(3, 2), Fraction(3)))


def test_nonconstant_is_not_good_when_cone_trivial():
    # -1 is not a square mod 3, so the planar cone is just the origin
    amb = Ambient(3, 2)
    assert isotropic_cone(amb) == {(0, 0)}
    rng = rng_for(500, "good3")
    f = random_rational_function(amb, rng)
    assert is_good(f) == f.is_constant()


def test_isotropic_wavelet_is_good():
    amb = Ambient(5, 2)
    f = inverse_phi(amb, Fraction(0), {ProjectiveLine((1, 2)): Fraction(1, 5)})
    assert is_good(f)
    assert not is_good(GridFunction.delta(amb, (1, 0)))


def test_slice_basics():
    amb = Ambient(3, 2)
    c = GridFunction.constant(amb, Fraction(5, 2))
    s = slice_last(c, 1)
    assert s.ambient.d == 1 and s.is_constant()
    # indicator of the plane x_d = a slices to 1 at a and 0 elsewhere
    amb3 = Ambient(3, 3)
    plane = {x for x in amb3.points() if x[2] == 2}
    f = GridFunction.indicator(amb3, plane)
    assert slice_last(f, 2) == GridFunction.constant(Ambient(3, 2), Fraction(1))
    assert slice_last(f, 0) == GridFunction.constant(Ambient(3, 2), Fraction(0))
    with pytest.raises(ValueError):
        slice_last(GridFunction.constant(Ambient(3, 1), 1), 0)


def test_slices_partition_mass():
    rng = rng_for(501, "slice")
    f = random_rational_function(Ambient(3, 3), rng)
    total = sum((slice_last(f, a).total() for a in range(3)), Fraction(0))
    assert total == f.total()


def test_direction_classification_examples():
    amb = Ambient(5, 3)
    assert classify_direction_paraboloid(amb, (0, 0, 1)) == "type1"
    assert classify_direction_paraboloid(amb, (1, 0, 0)) == "type2"
    assert classify_direction_paraboloid(amb, (1, 2, 3)) == "type1"
    assert classify_direction_paraboloid(amb, (1, 1, 1)) == "covered"


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_direction_classification_partition_and_cover(p, d):
    amb = Ambient(p, d)
    para = paraboloid_points(amb)
    for line in enumerate_lines(amb):
        kind = classify_direction_paraboloid(amb, line.rep)
        meets = any(x in para for x in line.punctured(amb))
        assert (kind == "covered") == meets


def test_paraboloid_theorem_constant():
    rep = check_paraboloid_theorem(GridFunction.constant(Ambient(3, 2), 0))
    assert rep.hypothesis_met and rep.all_good


def test_paraboloid_theorem_constructed():
    amb = Ambient(5, 3)
    rng = rng_for(502, "para")
    admissible = [
        l for l in enumerate_lines(amb)
        if classify_direction_paraboloid(amb, l.rep) != "covered"
    ]
    seeds = {l: Fraction(rng.randint(-3, 3), 2) for l in admissible}
    f = inverse_phi(amb, Fraction(0), seeds)
    rep = check_paraboloid_theorem(f)
    assert rep.hypothesis_met
    assert rep.pairs_checked == 10
    assert rep.all_good and rep.violations == ()


def test_paraboloid_theorem_guard_path():
    amb = Ambient(3, 3)
    f = GridFunction.delta(amb, (1, 2, 0))  # spectrum touches everything
    rep = check_paraboloid_theorem(f)
    assert not rep.hypothesis_met


def paraboloid_vanishing_function(ambient, rng):
    """A rational function whose transform vanishes on the paraboloid: seeds
    on the lines that meet it only at the origin, as the verify suite does."""
    seeds = {
        line: Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        for line in enumerate_lines(ambient)
        if classify_direction_paraboloid(ambient, line.rep) != "covered"
    }
    return inverse_phi(ambient, Fraction(0), seeds)


def pairwise_violations(f):
    """The reference: one transform per slice difference, judged by is_good."""
    p = f.ambient.p
    return tuple(
        (a, b)
        for a in range(p)
        for b in range(a + 1, p)
        if not is_good(slice_last(f, a) - slice_last(f, b))
    )


@pytest.mark.parametrize("p,d", [(3, 3), (5, 3), (7, 2)])
def test_paraboloid_theorem_equals_the_pairwise_reference(p, d):
    amb = Ambient(p, d)
    rng = rng_for(506, f"pairs{p}{d}")
    f = paraboloid_vanishing_function(amb, rng)
    for g in (f, f.to_cyclotomic(), f.to_complex()):
        rep = check_paraboloid_theorem(g)
        assert rep.hypothesis_met
        assert rep.pairs_checked == p * (p - 1) // 2
        assert rep.violations == pairwise_violations(g) == ()
        assert rep.all_good
    for g in (random_rational_function(amb, rng), random_complex_function(amb, rng)):
        assert not vanishes_on(forward(g), paraboloid_points(amb))
        assert check_paraboloid_theorem(g) == ParaboloidReport(False, 0, (), False)


@pytest.mark.parametrize("p,d", [(3, 3), (5, 3), (7, 2)])
def test_paraboloid_pair_judgments_equal_the_pairwise_reference(p, d, monkeypatch):
    # With the hypothesis gate forced open (no line counts as covered, and
    # the functions have mass 0, so F(0) = 0), random functions have slice
    # differences that leave the cone: every judgment is compared.
    monkeypatch.setattr(varieties, "classify_direction_paraboloid", lambda ambient, v: "type1")
    amb = Ambient(p, d)
    rng = rng_for(507, f"judge{p}{d}")
    for h in (random_rational_function(amb, rng), random_complex_function(amb, rng)):
        g = h - GridFunction.constant(amb, h.total() / amb.size)
        want = pairwise_violations(g)
        assert want
        rep = check_paraboloid_theorem(g)
        assert rep.violations == want and not rep.all_good
        assert rep.pairs_checked == p * (p - 1) // 2


def test_paraboloid_theorem_transforms_each_slice_once(monkeypatch):
    calls = []

    def counting_forward(f):
        calls.append(f.ambient)
        return forward(f)

    monkeypatch.setattr(varieties, "forward", counting_forward)
    amb = Ambient(5, 3)
    rep = check_paraboloid_theorem(paraboloid_vanishing_function(amb, rng_for(508, "count")))
    assert rep.hypothesis_met and rep.all_good
    assert calls == [amb] + [Ambient(5, 2)] * 5  # the function, then its p slices


@pytest.mark.parametrize("p,want", [(3, 2), (5, 2), (7, 3), (13, 2), (23, 5)])
def test_least_non_residue(p, want):
    assert least_non_residue(p) == want
    assert quadratic_class(want, p) == "non-residue"
    assert all(quadratic_class(r, p) == "residue" for r in range(1, want))


@pytest.mark.parametrize("p", [2, 4, 1])
def test_least_non_residue_needs_an_odd_prime(p):
    with pytest.raises(ValueError):
        least_non_residue(p)


def test_two_circle_constant_branch():
    amb = Ambient(3, 2)
    res = two_circle_analysis(GridFunction.constant(amb, Fraction(7)), 1, 2)
    assert res.kind == "constant"


def test_two_circle_plus_union():
    amb = Ambient(5, 2)
    i = sqrt_minus_one(5)
    E = {(t, i * t % 5) for t in range(5)} | {(t, (i * t + 1) % 5) for t in range(5)}
    f = GridFunction.indicator(amb, E)
    F = forward(f)
    circle = sphere_points(amb, 1) | sphere_points(amb, 2)
    assert all(F.value_at(x).is_zero() for x in circle)  # hypothesis, directly
    res = two_circle_analysis(f, 1, 2)
    assert res.kind == "Lplus_union" and res.direction == (1, 2)


def test_two_circle_minus_union():
    amb = Ambient(5, 2)
    E = {(t, 3 * t % 5) for t in range(5)}
    res = two_circle_analysis(GridFunction.indicator(amb, E), 4, 3)
    assert res.kind == "Lminus_union" and res.direction == (1, 3)


def test_two_circle_non_indicator_reports_cone_support():
    amb = Ambient(5, 2)
    rng = rng_for(503, "cone")
    f = seeded_good_function(amb, rng, dc=Fraction(1, 2))
    res = two_circle_analysis(f, 1, 2)
    assert res.kind == "other" and res.support_in_cone


def test_two_circle_hypothesis_and_argument_validation():
    amb = Ambient(5, 2)
    with pytest.raises(HypothesisNotMet):
        two_circle_analysis(GridFunction.delta(amb, (1, 1)), 1, 2)
    with pytest.raises(ValueError):
        two_circle_analysis(GridFunction.constant(amb, 1), 2, 3)  # 2 is not a QR mod 5
    with pytest.raises(ValueError):
        two_circle_analysis(GridFunction.constant(Ambient(3, 3), 1), 1, 2)


def test_compass_complement_for_p_3_mod_4():
    # for p = 3 mod 4 every planar line meets both circles, which is what
    # forces constancy through the compass criterion
    for p in (3, 7):
        amb = Ambient(p, 2)
        circles = sphere_points(amb, 1) | sphere_points(amb, least_non_residue(p))
        for line in enumerate_lines(amb):
            assert any(x in circles for x in line.punctured(amb))


def test_sphere_equidistribution_constructed():
    amb = Ambient(5, 2)
    rng = rng_for(504, "sphere5")
    f = seeded_good_function(amb, rng, dc=Fraction(2, 5))
    for center in [(0, 0), (1, 2), (4, 4)]:
        rep = sphere_equidistribution_check(f, center)
        assert rep.equidistributed
        assert len(rep.masses) == 4


def test_sphere_equidistribution_p3_center_shift():
    amb = Ambient(3, 2)
    f = GridFunction.constant(amb, Fraction(5, 3))
    for center in [(0, 0), (1, 2)]:
        rep = sphere_equidistribution_check(f, center)
        assert rep.equidistributed
        # constant times the (equal) sphere sizes
        assert rep.common_mass == Fraction(5, 3) * 4


def test_sphere_equidistribution_guards():
    with pytest.raises(ValueError):
        sphere_equidistribution_check(GridFunction.constant(Ambient(3, 3), 1), (0, 0, 0))
    with pytest.raises(HypothesisNotMet):
        sphere_equidistribution_check(GridFunction.delta(Ambient(5, 2), (1, 0)), (0, 0))


def test_good_functions_active_lines_inside_cone():
    amb = Ambient(5, 2)
    rng = rng_for(505, "goodlines")
    cone = isotropic_cone(amb)
    # the cone is a union of punctured lines plus the origin
    nonzero_cone = {x for x in cone if any(x)}
    covered = set()
    for x in nonzero_cone:
        covered.update(line_through(amb, x).punctured(amb))
    assert covered == nonzero_cone
    for _ in range(10):
        f = seeded_good_function(amb, rng, dc=Fraction(rng.randint(-2, 2)))
        profile = support_profile(forward(f), source_kind="rational")
        for line in profile.lines:
            assert line.rep in cone


def test_varieties_reject_ring_grids():
    amb = Ambient(3, 2, 2)
    f = random_rational_function(amb, rng_for(417, "ring"))
    for call in (
        lambda: paraboloid_points(amb),
        lambda: sphere_points(amb, 1),
        lambda: slice_last(f, 0),
        lambda: is_good(f),
        lambda: check_paraboloid_theorem(f),
        lambda: two_circle_analysis(f, 1, 2),
        lambda: sphere_equidistribution_check(f, (0, 0)),
    ):
        with pytest.raises(ValueError, match="Z_p\\*\\*d only"):
            call()


# The hypotheses are judged by lines through support_profile.  For a rational
# source the Galois step makes that the same as the pointwise vanishing the
# paper states; the pointwise checks below are the reference.

EQUIVALENCE_GRIDS = [(3, 2), (5, 2), (7, 2), (13, 2), (3, 3), (5, 3)]


def pointwise_paraboloid(f):
    return vanishes_on(forward(f), paraboloid_points(f.ambient))


def pointwise_pair(f, r, s):
    amb = f.ambient
    return vanishes_on(forward(f), sphere_points(amb, r) | sphere_points(amb, s))


def hypothesis_met(call):
    try:
        call()
    except HypothesisNotMet:
        return False
    return True


def equivalence_inputs(amb, rng):
    """Random rational functions, and functions seeded on the lines one
    hypothesis needs (isotropic, or not covered), then with a nonzero
    average, then with one random line more."""
    lines = enumerate_lines(amb)
    isotropic = [l for l in lines if sum(c * c for c in l.rep) % amb.p == 0]
    uncovered = [l for l in lines if classify_direction_paraboloid(amb, l.rep) != "covered"]
    inputs = [random_rational_function(amb, rng) for _ in range(3)]
    for group in (isotropic, uncovered):
        seeds = {l: Fraction(rng.randint(1, 4), rng.choice((1, 2))) for l in group}
        inputs.append(inverse_phi(amb, Fraction(0), seeds))
        inputs.append(inverse_phi(amb, Fraction(1, 3), seeds))
        seeds[rng.choice(lines)] = Fraction(rng.randint(1, 4))
        inputs.append(inverse_phi(amb, Fraction(0), seeds))
    return inputs


@pytest.mark.parametrize("p,d", EQUIVALENCE_GRIDS)
def test_line_hypotheses_equal_the_pointwise_ones_for_rational_sources(p, d):
    amb = Ambient(p, d)
    rng = rng_for(512, f"equiv{p}{d}")
    verdicts = set()
    for f in equivalence_inputs(amb, rng):
        want = pointwise_paraboloid(f)
        assert check_paraboloid_theorem(f).hypothesis_met == want
        verdicts.add(("paraboloid", want))
        if d != 2:
            continue
        b = least_non_residue(p)
        want = pointwise_pair(f, 1, b)
        assert hypothesis_met(lambda: two_circle_analysis(f, 1, b)) == want
        assert hypothesis_met(lambda: sphere_equidistribution_check(f, (1, 0))) == want
        verdicts.add(("circles", want))
        a = max(r for r in range(1, p) if quadratic_class(r, p) == "residue")
        assert hypothesis_met(lambda: two_circle_analysis(f, a, b)) == pointwise_pair(f, a, b)
    # Both verdicts occur on every grid, so each side of the equivalence is exercised.
    assert {v for _, v in verdicts} == {True, False}
    assert len(verdicts) == (2 if d != 2 else 4)


def one_circle_inputs(p, r):
    """The cyclotomic and complex functions whose spectrum is the indicator of
    the circle of radius r: zero on every other circle, active on lines that
    are not isotropic, so the Galois step fails for them."""
    amb = Ambient(p, 2)
    circle = sphere_points(amb, r)
    f = inverse(GridFunction(amb, "rational", [int(x in circle) for x in amb.points()]))
    assert f.kind == "cyclotomic"
    return f, f.to_complex()


@pytest.mark.parametrize("p", [5, 7, 13])
def test_one_circle_spectra_do_not_meet_the_circle_hypotheses(p):
    b = least_non_residue(p)
    for r in range(1, p):
        for f in one_circle_inputs(p, r):
            with pytest.raises(HypothesisNotMet):
                two_circle_analysis(f, 1, b)
            for center in ((0, 0), (1, 2)):
                with pytest.raises(HypothesisNotMet):
                    sphere_equidistribution_check(f, center)


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 3), (5, 3)])
def test_paraboloid_hypothesis_fails_on_an_active_covered_line(p, d):
    """F is one point of a covered line, off the paraboloid: F vanishes on the
    paraboloid, yet the line is active, and for a cyclotomic or complex source
    that is not the hypothesis the slicing argument needs."""
    amb = Ambient(p, d)
    para = paraboloid_points(amb)
    probes = 0
    for line in enumerate_lines(amb):
        if classify_direction_paraboloid(amb, line.rep) != "covered":
            continue
        off = [m for m in line.punctured(amb) if m not in para]
        if not off:
            continue
        f = inverse(GridFunction(amb, "rational", [int(x == off[0]) for x in amb.points()]))
        for g in (f, f.to_complex()):
            assert pointwise_paraboloid(g)
            assert check_paraboloid_theorem(g) == ParaboloidReport(False, 0, (), False)
        probes += 1
    assert probes


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 3), (5, 3)])
def test_paraboloid_theorem_holds_for_points_of_uncovered_lines(p, d):
    """A single spectrum point on a line that meets the paraboloid only at the
    origin meets the line hypothesis, whatever the kind, and the slice
    differences are good."""
    amb = Ambient(p, d)
    for line in enumerate_lines(amb):
        if classify_direction_paraboloid(amb, line.rep) == "covered":
            continue
        m = line.punctured(amb)[-1]
        f = inverse(GridFunction(amb, "rational", [int(x == m) for x in amb.points()]))
        for g in (f, f.to_complex()):
            rep = check_paraboloid_theorem(g)
            assert rep.hypothesis_met and rep.all_good, (line.rep, g.kind)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_cli_variety_of_a_one_circle_spectrum_is_hypothesis_not_met(p, tmp_path, capsys):
    f, g = one_circle_inputs(p, p - 1)  # neither radius 1 nor the least non-residue
    for h in (f, g):
        path = tmp_path / f"circle_{h.kind}.json"
        fileio.save_function(h, path)
        assert cli.main(["variety", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["two_circle"] == {"kind": "hypothesis_not_met"}
        assert captured.err == ""


# Floating conclusions are judged on the scale their spectral hypothesis
# implies (``scalars.implied_bound``), so no verdict moves when f is scaled.


@pytest.mark.parametrize("p,d", [(5, 3), (7, 3), (3, 3), (5, 4)])
@pytest.mark.parametrize("B", [1e-7, 1e-8])
def test_paraboloid_slices_are_judged_on_the_scale_of_the_spectrum(p, d, B):
    """F is random on the type-2 lines, B times random on the type-1 lines and
    0 on the covered lines and at 0: off the cone every F_a - F_b is zero but
    for rounding, which exceeds tol times the largest F_a - F_b."""
    amb = Ambient(p, d)
    rng = random.Random(1)
    values = []
    for x in amb.points():
        kind = classify_direction_paraboloid(amb, x) if any(x) else "covered"
        z = 0j if kind == "covered" else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        values.append(B * z if kind == "type1" else z)
    rep = check_paraboloid_theorem(inverse(GridFunction(amb, "complex", values)))
    assert rep.hypothesis_met and rep.all_good and rep.violations == ()


def test_sphere_masses_are_judged_on_the_scale_of_the_spectrum():
    """F is 1e6 on the nonzero cone points and F(0) makes the masses cancel:
    they are rounding, about 1e-9, far inside 2N|S| * tol * max|F|."""
    amb, center = Ambient(5, 2), (1, 2)
    cone = isotropic_cone(amb)
    values = [1e6 if x in cone and any(x) else 0.0 for x in amb.points()]
    sphere = sphere_points(amb, 1, center)
    g = inverse(GridFunction(amb, "complex", values))
    values[0] = -sum(g.value_at(x) for x in sphere) / len(sphere)
    rep = sphere_equidistribution_check(inverse(GridFunction(amb, "complex", values)), center)
    assert rep.equidistributed and max(map(abs, rep.masses)) < 1e-6


def complex_input(amb, rng, allowed, k):
    """f, scaled by 10**k, whose spectrum has modulus in [0.5, 1] where
    ``allowed`` holds and at most 5e-11 elsewhere: it meets the hypothesis
    "F vanishes where not allowed" by the zero rule, with a margin."""
    values = [
        cmath.rect(rng.uniform(0.5, 1) if allowed(x) else rng.uniform(0, 5e-11),
                   rng.uniform(0, 2 * math.pi))
        for x in amb.points()
    ]
    return inverse(GridFunction(amb, "complex", values)).scale(10.0 ** k)


def isotropic(x, p):
    return sum(c * c for c in x) % p == 0


SCALED = settings(derandomize=True, database=None, deadline=None, max_examples=40)
SEEDS = st.integers(0, 2**32 - 1)
POWERS = st.integers(-8, 8)


@SCALED
@given(st.sampled_from([(3, 2), (3, 3), (5, 3)]), SEEDS, POWERS)
def test_paraboloid_theorem_holds_on_scaled_complex_inputs(grid, seed, k):
    amb = Ambient(*grid)
    f = complex_input(amb, random.Random(seed), lambda x: any(x) and (
        classify_direction_paraboloid(amb, x) != "covered"), k)
    rep = check_paraboloid_theorem(f)
    assert rep.hypothesis_met and rep.all_good


@SCALED
@given(st.sampled_from([(3, 2), (7, 2), (5, 2), (13, 2)]), SEEDS, POWERS)
def test_two_circle_analysis_holds_on_scaled_complex_inputs(grid, seed, k):
    amb = Ambient(*grid)
    p = amb.p
    f = complex_input(amb, random.Random(seed), lambda x: isotropic(x, p), k)
    res = two_circle_analysis(f, 1, least_non_residue(p))
    assert res.kind == ("constant" if p % 4 == 3 else "other")


@SCALED
@given(st.sampled_from([(3, 2), (5, 2), (3, 4)]), SEEDS, POWERS)
def test_sphere_equidistribution_holds_on_scaled_complex_inputs(grid, seed, k):
    amb = Ambient(*grid)
    rng = random.Random(seed)
    f = complex_input(amb, rng, lambda x: isotropic(x, amb.p), k)
    assert sphere_equidistribution_check(f, random_point(amb, rng)).equidistributed


@SCALED
@given(st.sampled_from([(3, 2), (2, 3), (5, 2)]), SEEDS, POWERS)
def test_equidistribution_holds_on_scaled_complex_inputs(grid, seed, k):
    amb = Ambient(*grid)
    rng = random.Random(seed)
    V = random_subspace(amb, rng)
    f = complex_input(amb, rng, lambda x: not (any(x) and V.contains(x)), k)
    r = equidistribution_check(f, V)
    assert r.equidistributed and r.spectrum_vanishes


RATIONAL = settings(derandomize=True, database=None, deadline=None, max_examples=25)


def rational_input(amb, rng, allowed):
    """A rational function seeded on a random share of the lines ``allowed``
    admits, with a random average, and on one random line more half the time."""
    lines = enumerate_lines(amb)
    seeds = {l: Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for l in lines
             if allowed(l.rep) and rng.random() < 0.7}
    if rng.random() < 0.5:
        seeds[rng.choice(lines)] = Fraction(rng.randint(1, 4))
    return inverse_phi(amb, Fraction(rng.randint(-2, 2), 3), seeds)


@RATIONAL
@given(st.sampled_from([(3, 2), (5, 2), (7, 2), (3, 3)]), SEEDS)
def test_statement_verdicts_on_rational_inputs_are_the_exact_ones(grid, seed):
    """Each verdict equals the one exact arithmetic gives, pointwise."""
    amb = Ambient(*grid)
    p = amb.p
    rng = random.Random(seed)
    f = rational_input(amb, rng, lambda v: classify_direction_paraboloid(amb, v) != "covered")
    rep = check_paraboloid_theorem(f)
    assert rep.hypothesis_met == pointwise_paraboloid(f)
    assert rep.violations == (pairwise_violations(f) if rep.hypothesis_met else ())
    V = random_subspace(amb, rng)
    r = equidistribution_check(rational_input(amb, rng, lambda v: not V.contains(v)), V)
    assert r.equidistributed == (len(set(r.masses)) == 1) == r.spectrum_vanishes
    if amb.d != 2:
        return
    b = least_non_residue(p)
    f = rational_input(amb, rng, lambda v: isotropic(v, p))
    if not pointwise_pair(f, 1, b):
        assert not hypothesis_met(lambda: two_circle_analysis(f, 1, b))
        assert not hypothesis_met(lambda: sphere_equidistribution_check(f, (1, 0)))
        return
    kind = two_circle_analysis(f, 1, b).kind
    assert (kind == "constant") == (p % 4 == 3)
    assert kind != "constant" or f.is_constant()
    rep = sphere_equidistribution_check(f, random_point(amb, rng))
    assert rep.equidistributed and len(set(rep.masses)) == 1
