"""Spectral-support analytics: line support, coarse bandwidth, vanishing
certificates, equidistribution, the support-size inequality, and the
structural dichotomy for sets of small bandwidth.

The coarse bandwidth cbw(f) counts the lines through the origin on which
the transform of f does not vanish identically; bw(f) rescales it into
[0, 1] and bwd(f) is the real solution of cbw = (p**bwd - 1)/(p - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import TheoremViolation
from .fourier import (
    COMPLEX,
    CYCLOTOMIC,
    RATIONAL,
    GridFunction,
    Values,
    _back_project,
    _from_lattice,
    _lattice_of,
    _set_spectrum,
    _traces,
    forward,
    vanishes_on,
)
from .geometry import (
    Ambient,
    ProjectiveLine,
    Subspace,
    avoid_lines_subspace,
    enumerate_lines,
    enumerate_subspaces,
    is_compass_set,
    line_count,
    line_through,
    perp,
    point_set,
    punctured_indices,
    require_prime_grid,
    translate_set,
)
from .scalars import DEFAULT_TOL, implied_bound, is_zero

# Granularity for comparing bandwidth dimensions (a derived float).
BWD_EPS = 1e-12


@dataclass(frozen=True)
class BandwidthReport:
    cbw: int
    bw: Fraction
    bwd: float
    lines: tuple  # the active lines, ProjectiveLine in canonical order
    approximate: bool


def support_profile(
    F: GridFunction, source_kind: str | None = None, tol: float = DEFAULT_TOL
) -> BandwidthReport:
    """Classify every line as active or vanishing on the given spectrum,
    and report the active ones.

    The whole punctured line is inspected, never a single sample: the
    hits of every line are counted at once from the grid's flat list of
    punctured indices (``geometry.punctured_indices``).  This is
    the home of the Galois step sigma_r(F(m)) = F(r*m): for rational sources
    a mixed line (some zeros, some not) contradicts the vanishing principle
    and raises TheoremViolation, and the hypotheses of ``varieties`` are
    read from the active lines.  Ring grids raise ValueError: bandwidth
    counts the lines of Z_p**d.
    """
    ambient = F.ambient
    require_prime_grid(ambient)
    approximate = F.kind == COMPLEX
    nonzero = F.nonzero(tol)
    lines, width = enumerate_lines(ambient), ambient.p - 1
    # the hits of each punctured line, p - 1 indices per line, line after line
    hits = list(map(sum, zip(*[map(nonzero.__getitem__, punctured_indices(ambient))] * width)))
    if source_kind == RATIONAL and not approximate and not {*hits} <= {0, width}:
        line = next(line for line, n in zip(lines, hits) if 0 < n < width)
        raise TheoremViolation(
            f"rational source has a mixed line through {line.rep}: "
            "zero and nonzero values on one punctured line"
        )
    active = tuple(compress(lines, hits))
    cbw = len(active)
    return BandwidthReport(
        cbw=cbw,
        bw=Fraction(cbw * (ambient.p - 1), ambient.size - 1),
        bwd=bwd_of_cbw(cbw, ambient.p),
        lines=active,
        approximate=approximate,
    )


def bwd_of_cbw(cbw: int, p: int) -> float:
    return math.log((p - 1) * cbw + 1, p)


def bandwidth(f: GridFunction, tol: float = DEFAULT_TOL) -> BandwidthReport:
    """Bandwidth report of f.  cbw = 0 exactly when f is constant."""
    require_prime_grid(f.ambient)
    return support_profile(forward(f), source_kind=f.kind, tol=tol)


def constancy_from_compass(f: GridFunction) -> bool:
    """If the zero set of the transform is a compass set, f must be constant.

    Returns True in that case (after asserting constancy), False when the
    zero set is not a compass set; no claim is made then.
    """
    if f.kind != RATIONAL:
        raise ValueError("the compass criterion applies to rational-valued functions")
    ambient = f.ambient
    zero_set = [pt for pt, nz in zip(ambient.points(), forward(f).nonzero()) if not nz]
    if not is_compass_set(ambient, zero_set):
        return False
    if not f.is_constant():
        raise TheoremViolation(
            "transform zero set is a compass set but the function is not constant"
        )
    return True


def vanishing_certificate(f: GridFunction) -> Subspace | None:
    """A punctured subspace on which the transform of f vanishes.

    Combines the guaranteed construction (avoid the cbw active lines inside
    a subspace of dimension d-k+1) with a direct exhaustive search for the
    largest vanishing subspace at d <= 3, and returns the larger of the two.
    Returns None when every line is active.
    """
    if f.is_zero():
        raise ValueError("certificate undefined for the zero function")
    ambient = f.ambient
    p, d = ambient.p, ambient.d
    F = forward(f)
    profile = support_profile(F, source_kind=f.kind)
    if profile.cbw == line_count(ambient):
        return None

    cbw = profile.cbw
    k = 1
    while cbw >= (p ** k - 1) // (p - 1):
        k += 1
    best = avoid_lines_subspace(ambient, profile.lines, d - k)
    if d <= 3:
        for dim in range(d, best.dim - 1, -1):
            found = next(
                (
                    W
                    for W in enumerate_subspaces(ambient, dim)
                    if vanishes_on(F, W.nonzero_points())
                ),
                None,
            )
            if found is not None:
                best = found if found.dim > best.dim else best
                break
    if not vanishes_on(F, best.nonzero_points()):
        raise TheoremViolation("certificate construction produced a non-vanishing subspace")
    return best


@dataclass(frozen=True)
class EquidistributionResult:
    equidistributed: bool
    common_mass: object | None
    masses: tuple
    spectrum_vanishes: bool


def equidistribution_check(f: GridFunction, V: Subspace) -> EquidistributionResult:
    """Masses of f over the cosets of W, the perpendicular of V, are all
    equal exactly when the transform of f vanishes on the punctured V.

    Both sides are computed independently.  The mass of the coset y + W is
    |W| * sum over m in V of F(m) chi(y.m), so two masses differ by
    |W| * sum over m in V minus 0 of F(m) (chi(y.m) - chi(y'.m)): complex
    masses agree within ``implied_bound`` of spread 2|W|(|V| - 1), the
    vanishing being judged by the zero rule over F.  On exact input a
    disagreement of the two sides raises TheoremViolation, since it would
    falsify the equidistribution theorem.  On complex input it raises only
    when F vanishes and the masses still differ: equal masses bound the
    values of F on V minus 0 by 2(|V| - 1) * tol * max|F| only, not by the
    zero rule, so in that band the result reports both judgments.
    """
    ambient = f.ambient
    if V.ambient != ambient:
        raise ValueError("subspace lives on a different grid")
    if V.dim == 0:
        raise ValueError("equidistribution requires a nonzero subspace")
    W = perp(V)
    buckets: dict = {}
    for pt, v in zip(ambient.points(), f.values):
        key = W.reduce(pt)
        if key in buckets:
            buckets[key] = buckets[key] + v
        else:
            buckets[key] = v
    masses = tuple(buckets[key] for key in sorted(buckets))
    F = forward(f)
    vanishes = vanishes_on(F, V.nonzero_points())
    p = ambient.p
    bound = implied_bound(F, 2 * p ** W.dim * (p ** V.dim - 1))
    equal = all(is_zero(m - masses[0], bound) for m in masses)
    if equal != vanishes and (vanishes or F.kind != COMPLEX):
        raise TheoremViolation(
            "equidistribution biconditional failed: "
            f"masses equal={equal}, punctured-subspace vanishing={vanishes}"
        )
    return EquidistributionResult(
        equidistributed=equal,
        common_mass=masses[0] if equal else None,
        masses=masses,
        spectrum_vanishes=vanishes,
    )


@dataclass(frozen=True)
class UncertaintyReport:
    size: int
    cbw: int
    lhs: int
    rhs: int
    holds: bool
    bwd: float
    formal_dim: float
    dim_bound_holds: bool


def uncertainty_check(ambient: Ambient, E) -> UncertaintyReport:
    """((p-1)*cbw(E) + 1) * |E| >= p**d, plus the dimension form
    bwd(E) + log_p|E| >= d."""
    members = point_set(ambient, E)
    if not members:
        raise ValueError("the inequality concerns nonempty sets")
    require_prime_grid(ambient)
    rep = support_profile(_set_spectrum(ambient, members), source_kind=RATIONAL)
    lhs = ((ambient.p - 1) * rep.cbw + 1) * len(members)
    rhs = ambient.size
    formal_dim = math.log(len(members), ambient.p)
    return UncertaintyReport(
        size=len(members),
        cbw=rep.cbw,
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        bwd=rep.bwd,
        formal_dim=formal_dim,
        dim_bound_holds=rep.bwd + formal_dim >= ambient.d - BWD_EPS,
    )


@dataclass(frozen=True)
class SetClassification:
    kind: str  # "union_of_parallel_lines" | "cbw_exceeds_d"
    cbw: int
    direction: tuple | None = None


def classify_small_cbw_set(ambient: Ambient, E) -> SetClassification:
    """Every set with cbw <= d is a union of parallel affine lines.

    The direction is found by translation invariance (E + u = E); failure
    for every direction while cbw <= d would falsify the dichotomy and
    raises TheoremViolation.  The statement needs d >= 2 (at d = 1 a single
    point has cbw 1 = d), so d = 1 raises ValueError.
    """
    if ambient.d < 2:
        raise ValueError("the dichotomy requires dimension >= 2")
    members = point_set(ambient, E)
    require_prime_grid(ambient)
    rep = support_profile(_set_spectrum(ambient, members), source_kind=RATIONAL)
    if rep.cbw > ambient.d:
        return SetClassification(kind="cbw_exceeds_d", cbw=rep.cbw)
    for line in enumerate_lines(ambient):
        if translate_set(members, line.rep, ambient.p) == members:
            return SetClassification(
                kind="union_of_parallel_lines", cbw=rep.cbw, direction=line.rep
            )
    raise TheoremViolation(
        f"set with cbw={rep.cbw} <= d={ambient.d} is not a union of parallel lines"
    )


def inverse_phi(ambient: Ambient, dc, seeds) -> GridFunction:
    """Rebuild the unique rational function with the given average and one
    spectrum seed per line (Cyclotomic or rational, keyed by the canonical
    ProjectiveLine; absent lines are zero).  The spectrum is the equivariant
    extension F(r*s) = sigma_r(F(s)), so f(x) = F(0) + sum over lines s of
    Tr(F(s) * zeta**(x.s)), and Tr(z * zeta**u) = p*e_(-u mod p) - sum_j e_j
    for the power-basis coordinates e of z (e_(p-1) = 0): f is the average
    plus the back-projection of rational traces, and no spectrum is built.
    A key that is not a canonical line, two keys for one line, a complex
    value or an irrational average raise ValueError.
    """
    require_prime_grid(ambient)
    p = ambient.p
    keyed = {}
    for key, seed in seeds.items():
        rep = tuple(key.rep if isinstance(key, ProjectiveLine) else key)
        line = line_through(ambient, rep)
        if line.rep != rep:
            raise ValueError(f"seed key {rep} is not a canonical line of Z_{p}**{ambient.d}")
        if line in keyed:
            raise ValueError(f"two seeds for the line through {rep}")
        keyed[line] = seed
    try:
        values = Values(ambient, CYCLOTOMIC, (dc, *keyed.values()))
    except TypeError:
        raise ValueError("the average and the seeds must be rational or cyclotomic") from None
    den, (average, *rows) = _lattice_of(values)
    if any(average[1:]):
        raise ValueError(f"the average {dc} of a rational function must be rational")
    sums = _back_project(ambient, keyed, _traces(p, rows)) if keyed else [(0,)] * ambient.size
    return _from_lattice(ambient, [(average[0] + b,) for (b,) in sums], den, RATIONAL)
