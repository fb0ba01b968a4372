"""Multi-scale analysis over Z_q**d, q = p**ell: norms, level wavelets, and
a finite wavelet decomposition, on the grid ``geometry.Ambient(p, d, ell)``
with the lines, hyperplanes and valuations of ``geometry``.

A nonzero scalar factors as p**j * unit; j is its valuation and p**(-j)
its norm.  The line generated by a vector of valuation j has p**(ell-j)
points and is called a level-(ell-j) line; lines of consecutive levels
nest, which is what drives the inclusion-exclusion decomposition.

Each part is built on its own line by the projection-slice lemma, which
holds over Z_q as over Z_p: a spectrum F on the points t*v of the line
through v (one t per point) has inverse f(x) = sum_t F(t*v) chi(t * x.v)
= c[x.v], with c the length-q inverse transform of t -> F(t*v).  So f is
constant on each hyperplane {x : x.v = s}, and one length-q lattice pass
replaces a d-axis inverse.  This module only places the lattice row of
F(t*v) at position t and permutes the rows of c along x.v; the part is
rational exactly when every c[s] is, and nothing is decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TheoremViolation
from .fourier import COMPLEX, GridFunction, Spectrum
from .fourier import _exact_transform, _from_lattice, _lattice_of
from .geometry import Ambient, Point, ProjectiveLine, dots, enumerate_lines, line_indices
from .geometry import vadd, valuation, vector_valuation, vsub


def norm(ambient: Ambient, n: int) -> Fraction:
    """p-adic size p**(-valuation); zero has norm 0."""
    v = valuation(ambient, n)
    if v >= ambient.ell:
        return Fraction(0)
    return Fraction(1, ambient.p ** v)


def unit_count(ambient: Ambient) -> int:
    """Number of invertible residues, p**ell - p**(ell-1)."""
    return ambient.modulus - ambient.modulus // ambient.p


def require_exact(f: GridFunction) -> None:
    """Reject complex values, which the multi-scale analysis does not take."""
    if f.kind == COMPLEX:
        raise ValueError(
            "the multi-scale analysis is exact: it takes rational or cyclotomic values"
        )


def _line_part(F: Spectrum, v: Point, claimed) -> GridFunction:
    """x -> c[x.v], the function whose spectrum is F on ``claimed`` (points
    t*v of the line through v; v = 0 for the origin) and 0 elsewhere.  The
    rows of c are permuted along x.v, and the part is rational exactly when
    every c[s] that x.v reaches is."""
    ambient = F.ambient
    den, rows = _lattice_of(F)
    line = [(0,) * len(rows[0])] * ambient.modulus  # row t: that of F(t*v), if claimed
    for t, i in enumerate(line_indices(ambient).get(ProjectiveLine(v), (0,))):
        if ambient.point_at(i) in claimed:
            line[t] = rows[i]
    c = _exact_transform(line, ambient, 1, +1)
    return _from_lattice(ambient, [c[s] for s in dots(ambient, v)], den)


@dataclass(frozen=True)
class LevelWaveletResult:
    is_wavelet: bool
    is_constant: bool = False
    generator: Point | None = None
    offset: Point | None = None  # None for a line through the origin
    level: int | None = None
    coeffs: tuple | None = None  # (t, value) pairs over t in Z_q, hyperplane form
    spatial_matches: bool = False


def is_level_l_wavelet(f: GridFunction, F: Spectrum) -> LevelWaveletResult:
    """Detect a top-level wavelet: a spectrum F = forward(f) supported on
    one affine line whose generator has valuation zero.

    On a line through the origin the hyperplane form f(x) = c_{x.v} is
    built from F and checked against f; a line missing the origin (the
    support's differences from one support point lie on it) yields a
    modulated function with no such form (coeffs None).  Complex input
    raises ValueError.
    """
    require_exact(f)
    ambient = f.ambient
    q, ell = ambient.modulus, ambient.ell
    supp = set(F.support())
    if not (supp - {ambient.origin()}):
        return LevelWaveletResult(True, is_constant=True, spatial_matches=True)
    unit_lines = [line for line in enumerate_lines(ambient) if line.level(ambient) == ell]
    # Through-origin lines first, then proper affine translates.
    for line in unit_lines:
        if supp.issubset(line.points(ambient)):
            part = _line_part(F, line.rep, supp)
            ok = part == f
            coeffs = None
            if ok:  # the generator is a unit vector, so x.v takes every s in Z_q
                coeffs = tuple(sorted(dict(zip(dots(ambient, line.rep), part.values)).items()))
            return LevelWaveletResult(True, generator=line.rep, level=ell,
                                      coeffs=coeffs, spatial_matches=ok)
    m0 = min(supp)
    for line in unit_lines:
        base = set(line.points(ambient))
        if all(vsub(m, m0, q) in base for m in supp):
            return LevelWaveletResult(True, generator=line.rep, level=ell,
                                      offset=min(vadd(m0, pt, q) for pt in base))
    return LevelWaveletResult(False)


@dataclass(frozen=True)
class MultiscalePart:
    level: int | None  # None for the constant part
    generator: Point | None
    function: GridFunction

    @property
    def is_constant(self) -> bool:
        return self.level is None


def multiscale_decompose(F: Spectrum) -> tuple:
    """Split the function with spectrum F into level-tagged wavelets that sum to it.

    Nonzero frequencies are claimed stratum by stratum: a line of level
    ell-j is used when it still owns an unclaimed frequency of valuation
    exactly j, and it then claims every unclaimed frequency it contains
    (inclusion-exclusion over the nesting of lines, so nothing is claimed
    twice).  The origin contributes the constant part; when exactly one
    line is used the constant folds into it, since every line through the
    origin contains the origin.  Complex input raises ValueError.
    """
    require_exact(F)
    ambient = F.ambient
    origin = ambient.origin()
    unclaimed = {x for x in F.support() if x != origin}
    lines = [(line.level(ambient), line) for line in enumerate_lines(ambient)]
    claims = []  # (level, generator, claimed point set)
    for j in range(ambient.ell):
        level = ambient.ell - j
        for line_level, line in lines:
            if line_level != level:
                continue
            mine = unclaimed.intersection(line.points(ambient))
            if any(vector_valuation(ambient, x) == j for x in mine):
                unclaimed -= mine
                claims.append((level, line.rep, mine))
    if unclaimed:
        raise TheoremViolation(f"frequencies never claimed: {sorted(unclaimed)}")
    if len(claims) == 1:
        claims[0][2].add(origin)
    elif not claims or F.nonzero()[0]:
        claims.append((None, origin, {origin}))
    return tuple(
        MultiscalePart(level, gen if level else None, _line_part(F, gen, pts))
        for level, gen, pts in claims
    )
