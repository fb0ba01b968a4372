"""Spectra on algebraic sets: the paraboloid, spheres, and the isotropic cone.

A function is "good" when its transform is supported on the isotropic cone
sum x_i**2 = 0.  Variety membership is always decided by evaluating the
defining polynomial pointwise; no point-counting formula is trusted.

The paraboloid, two-circle and sphere hypotheses are judged on the active
lines of ``bandwidth.support_profile``, the home of the Galois step
sigma_r(F(m)) = F(r*m): for a rational source a zero at one point of a
punctured line is a zero on all of it, so the line form equals vanishing on
the variety; for other kinds it is the form the proofs use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bandwidth import support_profile
from .errors import HypothesisNotMet, TheoremViolation
from .fourier import GridFunction, forward
from .geometry import (
    Ambient,
    Point,
    grid_point,
    least_non_residue,
    quadratic_class,
    require_prime_grid,
    sqrt_minus_one,
    translate_set,
)
from .scalars import DEFAULT_TOL, implied_bound, is_zero


def paraboloid_points(ambient: Ambient) -> frozenset:
    """{x : x_d = x_1**2 + ... + x_{d-1}**2}; contains the origin."""
    require_prime_grid(ambient)
    p = ambient.p
    return frozenset(
        x for x in ambient.points() if x[-1] == sum(c * c for c in x[:-1]) % p
    )


def sphere_points(ambient: Ambient, radius: int, center: Point | None = None) -> frozenset:
    """{x : |x - center|**2 = radius}; the center defaults to the origin."""
    require_prime_grid(ambient)
    p = ambient.p
    center = ambient.origin() if center is None else grid_point(ambient, center)
    return frozenset(
        x
        for x in ambient.points()
        if (sum((a - b) ** 2 for a, b in zip(x, center)) - radius) % p == 0
    )


def isotropic_cone(ambient: Ambient) -> frozenset:
    return sphere_points(ambient, 0)


def sphere_count(p: int, d: int, r: int) -> int:
    """Exhaustive point count of the sphere of radius r."""
    return len(sphere_points(Ambient(p, d), r))


def is_good(f: GridFunction, tol: float = DEFAULT_TOL) -> bool:
    """True when the transform of f is supported inside the isotropic cone."""
    cone = isotropic_cone(f.ambient)
    return all(x in cone for x in forward(f).support(tol))


def slice_last(f: GridFunction, a: int) -> GridFunction:
    """Restriction of f to the plane x_d = a, as a function in d-1 variables."""
    ambient = f.ambient
    require_prime_grid(ambient)
    if ambient.d < 2:
        raise ValueError("slicing requires dimension >= 2")
    a %= ambient.p
    small = Ambient(ambient.p, ambient.d - 1)
    return f.take(small, [ambient.index_of(y + (a,)) for y in small.points()])


def classify_direction_paraboloid(ambient: Ambient, v: Point) -> str:
    """Whether the line of v meets the paraboloid at a nonzero point.

    "type1": last coordinate nonzero, leading sum of squares zero;
    "type2": last coordinate zero, leading sum of squares nonzero;
    "covered" otherwise (the line contains a nonzero paraboloid point).
    """
    require_prime_grid(ambient)
    p = ambient.p
    v = grid_point(ambient, v)
    if not any(v):
        raise ValueError("direction must be nonzero")
    head = sum(c * c for c in v[:-1]) % p
    last = v[-1]
    if last != 0 and head == 0:
        return "type1"
    if last == 0 and head != 0:
        return "type2"
    return "covered"


@dataclass(frozen=True)
class ParaboloidReport:
    hypothesis_met: bool
    pairs_checked: int
    violations: tuple
    all_good: bool


def check_paraboloid_theorem(f: GridFunction) -> ParaboloidReport:
    """When the transform of f vanishes on the whole paraboloid, every slice
    difference f_a - f_b must be good in one dimension less.

    The hypothesis, in line form: F(0) = 0 and no active line is "covered".
    It is verified first; when it fails the report says so and no
    conclusion is claimed.  A conclusion violation would falsify the
    slicing theorem and is listed in the report.  The transform is linear,
    so each slice is transformed once and a pair is judged on the spectrum
    difference F_a - F_b, the transform of f_a - f_b.

    (F_a - F_b)(eta) = sum over t != 0 of F(eta, t) (chi(a t) - chi(b t)),
    and for eta off the cone every (eta, t) with t != 0 lies on a covered
    line, so complex differences are judged off the cone within
    ``implied_bound`` of spread 2(p - 1); exact ones exactly.
    """
    ambient = f.ambient
    if ambient.d < 2:
        raise ValueError("the slicing statement requires dimension >= 2")
    F = forward(f)
    active = support_profile(F, f.kind).lines  # refuses ring grids
    if F.nonzero()[0] or any(  # F(0): the origin has index 0
        classify_direction_paraboloid(ambient, line.rep) == "covered" for line in active
    ):
        return ParaboloidReport(False, 0, (), False)
    p = ambient.p
    spectra = [forward(slice_last(f, a)) for a in range(p)]
    small = spectra[0].ambient
    cone = isotropic_cone(small)
    off_cone = [i for i, x in enumerate(small.points()) if x not in cone]
    bound = implied_bound(F, 2 * (p - 1))

    def good(difference) -> bool:
        nonzero = difference.nonzero(bound=bound)
        return not any(nonzero[i] for i in off_cone)

    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    violations = tuple((a, b) for a, b in pairs if not good(spectra[a] - spectra[b]))
    return ParaboloidReport(True, len(pairs), violations, not violations)


@dataclass(frozen=True)
class TwoCircleResult:
    kind: str  # "constant" | "Lplus_union" | "Lminus_union" | "other"
    direction: Point | None = None
    support_in_cone: bool | None = None


def two_circle_analysis(
    f: GridFunction, a: int, b: int, tol: float = DEFAULT_TOL
) -> TwoCircleResult:
    """Structure of a planar function whose transform vanishes on a residue
    circle (radius a) and a non-residue circle (radius b).

    A line with rep.rep = c != 0 meets the circle of every radius in the
    class of c, so the hypothesis, in line form, is that every active line
    is isotropic (rep.rep = 0 mod p).  Activity is judged by the zero rule
    of ``scalars``.

    For p = 3 mod 4 no line is isotropic, so the function must be constant:
    f(x) - f(y) = sum over m != 0 of F(m) (chi(x.m) - chi(y.m)), so complex
    values agree within ``implied_bound`` of spread 2(N - 1).
    For p = 1 mod 4 an indicator must be a union of lines parallel to one of
    the two isotropic lines {(t, it)} or {(t, -it)}; other functions have
    their spectrum inside the cone and come back as "other".
    """
    ambient = f.ambient
    p = ambient.p
    if ambient.d != 2:
        raise ValueError("the two-circle statement is planar (d = 2)")
    if quadratic_class(a, p) != "residue":
        raise ValueError(f"{a} is not a nonzero quadratic residue mod {p}")
    if quadratic_class(b, p) != "non-residue":
        raise ValueError(f"{b} is not a quadratic non-residue mod {p}")
    F = forward(f)
    _require_isotropic(F, f.kind, tol, f"circle of radius {a} or {b}")
    if p % 4 == 3:
        bound = implied_bound(F, 2 * (ambient.size - 1), tol)
        if not all(is_zero(v - f.values[0], bound) for v in f.values):
            raise TheoremViolation(
                "two-circle vanishing with p = 3 mod 4 but a non-constant function"
            )
        return TwoCircleResult(kind="constant")
    i = sqrt_minus_one(p)
    plus_dir = (1, i)
    minus_dir = (1, (p - i) % p)
    if f.is_indicator():
        members = frozenset(f.support())
        if translate_set(members, plus_dir, p) == members:
            return TwoCircleResult(kind="Lplus_union", direction=plus_dir)
        if translate_set(members, minus_dir, p) == members:
            return TwoCircleResult(kind="Lminus_union", direction=minus_dir)
        raise TheoremViolation(
            "indicator with two-circle vanishing is parallel to neither isotropic line"
        )
    return TwoCircleResult(kind="other", support_in_cone=True)


def _require_isotropic(F: GridFunction, kind: str, tol: float, meets: str) -> None:
    """The circle and sphere hypothesis in line form: every active line of F
    is isotropic, else HypothesisNotMet names the first line and what it
    meets."""
    p = F.ambient.p
    for line in support_profile(F, kind, tol).lines:
        if sum(c * c for c in line.rep) % p:
            raise HypothesisNotMet(
                f"the transform is active on the line through {line.rep}, which "
                f"is not isotropic: it meets the {meets}"
            )


@dataclass(frozen=True)
class SphereMassReport:
    center: Point
    masses: tuple
    common_mass: object
    equidistributed: bool


def sphere_equidistribution_check(f: GridFunction, center: Point) -> SphereMassReport:
    """Masses of f on the p-1 spheres of nonzero radius about the given center.

    Requires even dimension, p > 2, and a transform vanishing on a residue
    sphere and a non-residue sphere (radii 1 and the smallest non-residue
    b), in line form as in ``two_circle_analysis``: every active line is
    isotropic.  Under the hypothesis the masses must all agree.

    The mass of the sphere S_r about c is sum over m of F(m) chi(c.m)
    S_r^(m), S_r^(m) = sum over y in S_r of chi(y.m); for m on the cone
    S_r^(m) does not depend on r != 0 (even d), and off the cone
    |S_r^(m) - S_s^(m)| <= 2|S|, S the largest sphere.  So complex masses
    agree within ``implied_bound`` of spread 2 * N * |S|.
    """
    ambient = f.ambient
    p = ambient.p
    center = grid_point(ambient, center)
    if ambient.d % 2 != 0:
        raise ValueError("sphere equidistribution is stated for even dimension")
    b = least_non_residue(p)  # refuses p = 2
    F = forward(f)
    _require_isotropic(F, f.kind, DEFAULT_TOL, f"sphere of radius 1 or {b}")
    spheres = [sphere_points(ambient, r, center) for r in range(1, p)]
    masses = tuple(sum(f.value_at(x) for x in sphere) for sphere in spheres)
    bound = implied_bound(F, 2 * ambient.size * max(map(len, spheres)))
    if not all(is_zero(m - masses[0], bound) for m in masses):
        raise TheoremViolation(
            f"sphere masses about {center} differ: {[str(m) for m in masses]}"
        )
    return SphereMassReport(center, masses, masses[0], True)
