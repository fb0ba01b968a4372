"""Spectra on algebraic sets: the paraboloid, spheres, and the isotropic cone.

A function is "good" when its transform is supported on the isotropic cone
sum x_i**2 = 0.  Variety membership is always decided by evaluating the
defining polynomial pointwise; no point-counting formula is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisNotMet, TheoremViolation
from .fourier import GridFunction, forward, vanishes_on
from .geometry import (
    Ambient,
    Point,
    quadratic_class,
    require_prime_grid,
    sqrt_minus_one,
    translate_set,
    vsub,
)
from .scalars import DEFAULT_TOL, all_equal


def paraboloid_points(ambient: Ambient) -> frozenset:
    """{x : x_d = x_1**2 + ... + x_{d-1}**2}; contains the origin."""
    require_prime_grid(ambient)
    p = ambient.p
    return frozenset(
        x for x in ambient.points() if x[-1] == sum(c * c for c in x[:-1]) % p
    )


def sphere_points(ambient: Ambient, radius: int, center: Point | None = None) -> frozenset:
    require_prime_grid(ambient)
    p = ambient.p
    radius %= p
    if center is None:
        return frozenset(
            x for x in ambient.points() if sum(c * c for c in x) % p == radius
        )
    return frozenset(
        x
        for x in ambient.points()
        if sum(c * c for c in vsub(x, center, p)) % p == radius
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
    p = ambient.p
    v = tuple(c % p for c in v)
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

    The hypothesis is verified first; when it fails the report says so and
    no conclusion is claimed.  A conclusion violation would falsify the
    slicing theorem and is listed in the report.
    """
    ambient = f.ambient
    if ambient.d < 2:
        raise ValueError("the slicing statement requires dimension >= 2")
    if not vanishes_on(forward(f), paraboloid_points(ambient)):
        return ParaboloidReport(False, 0, (), False)
    violations = []
    pairs = 0
    for a in range(ambient.p):
        fa = slice_last(f, a)
        for b in range(a + 1, ambient.p):
            pairs += 1
            if not is_good(fa - slice_last(f, b)):
                violations.append((a, b))
    return ParaboloidReport(True, pairs, tuple(violations), not violations)


@dataclass(frozen=True)
class TwoCircleResult:
    kind: str  # "constant" | "Lplus_union" | "Lminus_union" | "other"
    direction: Point | None = None
    support_in_cone: bool | None = None


def two_circle_analysis(
    f: GridFunction, a: int, b: int, tol: float = DEFAULT_TOL
) -> TwoCircleResult:
    """Structure of a planar function whose transform vanishes on a residue
    circle and a non-residue circle: the vanishing and, for complex f, the
    constancy are judged by the zero rule of ``scalars``.

    For p = 3 mod 4 the function must be constant.  For p = 1 mod 4 an
    indicator must be a union of lines parallel to one of the two isotropic
    lines {(t, it)} or {(t, -it)}; other functions have their spectrum
    inside the cone and come back as "other".
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
    circle = sphere_points(ambient, a) | sphere_points(ambient, b)
    if not vanishes_on(F, circle, tol):
        raise HypothesisNotMet(
            f"the transform does not vanish on the circles of radii {a} and {b}"
        )
    if p % 4 == 3:
        if not all_equal(f.values, tol):
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
    cone = isotropic_cone(ambient)
    in_cone = all(x in cone for x in F.support(tol))
    if not in_cone:
        raise TheoremViolation("two-circle vanishing but spectrum leaves the cone")
    return TwoCircleResult(kind="other", support_in_cone=True)


@dataclass(frozen=True)
class SphereMassReport:
    center: Point
    masses: tuple
    common_mass: object
    equidistributed: bool


def sphere_equidistribution_check(f: GridFunction, center: Point) -> SphereMassReport:
    """Masses of f on the p-1 spheres of nonzero radius about the given center.

    Requires even dimension, p > 2, and a transform vanishing on a residue
    sphere and a non-residue sphere (checked with radii 1 and the smallest
    non-residue).  Under the hypothesis the masses must all agree.
    """
    ambient = f.ambient
    p = ambient.p
    if ambient.d % 2 != 0:
        raise ValueError("sphere equidistribution is stated for even dimension")
    if p == 2:
        raise ValueError("sphere equidistribution requires p > 2")
    b = next(r for r in range(2, p) if quadratic_class(r, p) == "non-residue")
    test_set = sphere_points(ambient, 1) | sphere_points(ambient, b)
    if not vanishes_on(forward(f), test_set):
        raise HypothesisNotMet(
            f"the transform does not vanish on the spheres of radii 1 and {b}"
        )
    center = tuple(c % p for c in center)
    masses = tuple(
        sum(f.value_at(x) for x in sphere_points(ambient, r, center)) for r in range(1, p)
    )
    if not all_equal(masses):
        raise TheoremViolation(
            f"sphere masses about {center} differ: {[str(m) for m in masses]}"
        )
    return SphereMassReport(center, masses, masses[0], True)
