"""Multi-scale structure over Z_{p**ell}**d: valuations, lines and
hyperplanes at levels, level wavelets, and a finite wavelet decomposition.
The grid is the same ``geometry.Ambient`` as everywhere else, built as
``Ambient(p, d, ell)``; the exact transform with conductor p**ell is
``fourier.forward``.

A nonzero scalar factors as p**j * unit; j is its valuation and p**(-j)
its norm.  The line generated by a vector of valuation j has p**(ell-j)
points and is called a level-(ell-j) line; lines of consecutive levels
nest, which is what drives the inclusion-exclusion decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TheoremViolation
from .fourier import COMPLEX, CYCLOTOMIC, GridFunction, Spectrum, forward, inverse
from .geometry import Ambient, Point, dot, vscale
from .scalars import Cyclotomic


def valuation(ambient: Ambient, n: int) -> int:
    """The exponent j in n = p**j * unit; the zero residue gets the sentinel ell."""
    n %= ambient.modulus
    if n == 0:
        return ambient.ell
    j = 0
    while n % ambient.p == 0:
        n //= ambient.p
        j += 1
    return j


def norm(ambient: Ambient, n: int) -> Fraction:
    """p-adic size p**(-valuation); zero has norm 0."""
    v = valuation(ambient, n)
    if v >= ambient.ell:
        return Fraction(0)
    return Fraction(1, ambient.p ** v)


def vector_valuation(ambient: Ambient, v: Point) -> int:
    return min(valuation(ambient, c) for c in v)


def unit_count(ambient: Ambient) -> int:
    """Number of invertible residues, p**ell - p**(ell-1)."""
    return ambient.modulus - ambient.modulus // ambient.p


def canonical_generator(ambient: Ambient, v: Point) -> Point:
    """Scale v by a unit so its first minimal-valuation coordinate is p**j.

    Two vectors generate the same line exactly when they differ by a unit
    factor, so this is a canonical line representative.
    """
    q = ambient.modulus
    v = tuple(c % q for c in v)
    if not any(v):
        raise ValueError("the zero vector generates no line")
    j = vector_valuation(ambient, v)
    lead = next(c for c in v if valuation(ambient, c) == j)
    u = lead // ambient.p ** j
    inv = pow(u, -1, q)
    return vscale(inv, v, q)


@dataclass(frozen=True)
class LevelLine:
    """The cyclic set {a*v} generated by a nonzero vector, tagged by level."""

    ambient: Ambient
    generator: Point  # canonical
    level: int

    def points(self) -> frozenset:
        q = self.ambient.modulus
        return frozenset(vscale(a, self.generator, q) for a in range(q))


def line_mod(ambient: Ambient, v: Point) -> LevelLine:
    gen = canonical_generator(ambient, v)
    level = ambient.ell - vector_valuation(ambient, gen)
    return LevelLine(ambient, gen, level)


def enumerate_level_lines(ambient: Ambient) -> tuple:
    """All distinct lines through the origin, in lexicographic generator order."""
    seen = {}
    for v in ambient.points():
        if any(v):
            gen = canonical_generator(ambient, v)
            if gen not in seen:
                seen[gen] = line_mod(ambient, gen)
    return tuple(seen[g] for g in sorted(seen))


def hyperplane_mod(ambient: Ambient, v: Point) -> frozenset:
    """{x : x.v = 0 mod p**ell}; its size is p**(ell*(d-1) + valuation(v))."""
    q = ambient.modulus
    v = tuple(c % q for c in v)
    if not any(v):
        raise ValueError("hyperplane direction must be nonzero")
    pts = frozenset(x for x in ambient.points() if dot(x, v, q) == 0)
    expected = ambient.p ** (ambient.ell * (ambient.d - 1) + vector_valuation(ambient, v))
    if len(pts) != expected:
        raise TheoremViolation(
            f"hyperplane size {len(pts)} differs from p**(l(d-1)+v) = {expected}"
        )
    return pts


def _require_exact(f: GridFunction) -> None:
    if f.kind == COMPLEX:
        raise ValueError(
            "the multi-scale analysis is exact: it takes rational or cyclotomic values"
        )


@dataclass(frozen=True)
class LevelWaveletResult:
    is_wavelet: bool
    is_constant: bool
    generator: Point | None
    offset: Point | None  # None for a line through the origin
    level: int | None
    coeffs: tuple | None  # (t, value) pairs over t in Z_q, hyperplane form
    spatial_matches: bool


def is_level_l_wavelet(f: GridFunction) -> LevelWaveletResult:
    """Detect a top-level wavelet: a spectrum supported on one affine line
    whose generator has valuation zero.

    When the supporting line passes through the origin the spatial form
    f(x) = c_{x.v} over the parallel hyperplane family is extracted and
    cross-checked against the spectral side; a line missing the origin
    yields a modulated function with no plain hyperplane form (coeffs None).
    Complex input raises ValueError.
    """
    _require_exact(f)
    ambient = f.ambient
    q = ambient.modulus
    F = forward(f)
    supp = set(F.support())
    if not (supp - {ambient.origin()}):
        return LevelWaveletResult(
            is_wavelet=True,
            is_constant=True,
            generator=None,
            offset=None,
            level=None,
            coeffs=None,
            spatial_matches=True,
        )
    unit_lines = [
        line for line in enumerate_level_lines(ambient) if line.level == ambient.ell
    ]
    # Through-origin lines first, then proper affine translates.
    for line in unit_lines:
        if supp <= line.points():
            v = line.generator
            coeff_map = {}
            matches = True
            for x, value in zip(ambient.points(), f.values):
                t = dot(x, v, q)
                if t in coeff_map:
                    if coeff_map[t] != value:
                        matches = False
                        break
                else:
                    coeff_map[t] = value
            return LevelWaveletResult(
                is_wavelet=True,
                is_constant=False,
                generator=v,
                offset=None,
                level=ambient.ell,
                coeffs=tuple(sorted(coeff_map.items())) if matches else None,
                spatial_matches=matches,
            )
    for line in unit_lines:
        base = line.points()
        seen = set()
        for w in ambient.points():
            coset = frozenset(tuple((a + b) % q for a, b in zip(w, pt)) for pt in base)
            key = min(coset)
            if key in seen:
                continue
            seen.add(key)
            if supp <= coset:
                return LevelWaveletResult(
                    is_wavelet=True,
                    is_constant=False,
                    generator=line.generator,
                    offset=key,
                    level=ambient.ell,
                    coeffs=None,
                    spatial_matches=False,
                )
    return LevelWaveletResult(
        is_wavelet=False,
        is_constant=False,
        generator=None,
        offset=None,
        level=None,
        coeffs=None,
        spatial_matches=False,
    )


@dataclass(frozen=True)
class MultiscalePart:
    level: int | None  # None for the constant part
    generator: Point | None
    function: GridFunction

    @property
    def is_constant(self) -> bool:
        return self.level is None


def multiscale_decompose(f: GridFunction) -> tuple:
    """Split f into level-tagged wavelets summing back to f exactly.

    Nonzero frequencies are claimed stratum by stratum: a line of level
    ell-j is used when it still owns an unclaimed frequency of valuation
    exactly j, and it then claims every unclaimed frequency it contains
    (inclusion-exclusion over the nesting of lines, so nothing is claimed
    twice).  The origin contributes the constant part; when exactly one
    line is used the constant folds into it, since every line through the
    origin contains the origin.  Complex input raises ValueError.
    """
    _require_exact(f)
    ambient = f.ambient
    q = ambient.modulus
    F = forward(f)
    origin = ambient.origin()
    unclaimed = {x for x in F.support() if x != origin}
    zero = Cyclotomic.zero(ambient.p, ambient.ell)

    def restriction(points) -> GridFunction:
        vals = [
            F.values[ambient.index_of(x)] if x in points else zero
            for x in ambient.points()
        ]
        return inverse(Spectrum(ambient, CYCLOTOMIC, vals))

    lines = enumerate_level_lines(ambient)
    claims = []  # (level, generator, claimed point set)
    for j in range(ambient.ell):
        level = ambient.ell - j
        for line in lines:
            if line.level != level:
                continue
            mine = unclaimed & line.points()
            if any(vector_valuation(ambient, x) == j for x in mine):
                unclaimed -= mine
                claims.append((level, line.generator, set(mine)))
    if unclaimed:
        raise TheoremViolation(f"frequencies never claimed: {sorted(unclaimed)}")
    dc = F.values[0]
    parts = []
    if len(claims) == 1:
        level, gen, pts = claims[0]
        pts.add(origin)
        parts.append(MultiscalePart(level, gen, restriction(pts)))
        return tuple(parts)
    for level, gen, pts in claims:
        parts.append(MultiscalePart(level, gen, restriction(pts)))
    if not claims or not dc.is_zero():
        parts.append(MultiscalePart(None, None, restriction({origin})))
    return tuple(parts)
