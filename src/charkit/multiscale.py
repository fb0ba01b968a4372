"""Multi-scale analysis over Z_{p**ell}**d: norms, level wavelets, and a
finite wavelet decomposition.  The grid is the same ``geometry.Ambient`` as
everywhere else, built as ``Ambient(p, d, ell)``; its lines, hyperplanes and
valuations are those of ``geometry``, which computes modulo p**ell, and the
exact transform with conductor p**ell is ``fourier.forward``.

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
from .geometry import Ambient, Point, dot, enumerate_lines, valuation, vector_valuation
from .scalars import Cyclotomic


def norm(ambient: Ambient, n: int) -> Fraction:
    """p-adic size p**(-valuation); zero has norm 0."""
    v = valuation(ambient, n)
    if v >= ambient.ell:
        return Fraction(0)
    return Fraction(1, ambient.p ** v)


def unit_count(ambient: Ambient) -> int:
    """Number of invertible residues, p**ell - p**(ell-1)."""
    return ambient.modulus - ambient.modulus // ambient.p


def _require_exact(f: GridFunction) -> None:
    if f.kind == COMPLEX:
        raise ValueError(
            "the multi-scale analysis is exact: it takes rational or cyclotomic values"
        )


@dataclass(frozen=True)
class LevelWaveletResult:
    is_wavelet: bool
    is_constant: bool = False
    generator: Point | None = None
    offset: Point | None = None  # None for a line through the origin
    level: int | None = None
    coeffs: tuple | None = None  # (t, value) pairs over t in Z_q, hyperplane form
    spatial_matches: bool = False


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
        return LevelWaveletResult(True, is_constant=True, spatial_matches=True)
    unit_lines = [
        line for line in enumerate_lines(ambient) if line.level(ambient) == ambient.ell
    ]
    # Through-origin lines first, then proper affine translates.
    for line in unit_lines:
        if supp.issubset(line.points(ambient)):
            v = line.rep
            coeff_map = {}
            for x, value in zip(ambient.points(), f.values):
                coeff_map.setdefault(dot(x, v, q), value)
            matches = all(
                coeff_map[dot(x, v, q)] == value
                for x, value in zip(ambient.points(), f.values)
            )
            return LevelWaveletResult(
                True,
                generator=v,
                level=ambient.ell,
                coeffs=tuple(sorted(coeff_map.items())) if matches else None,
                spatial_matches=matches,
            )
    for line in unit_lines:
        base = line.points(ambient)
        seen = set()
        for w in ambient.points():
            coset = frozenset(tuple((a + b) % q for a, b in zip(w, pt)) for pt in base)
            key = min(coset)
            if key in seen:
                continue
            seen.add(key)
            if supp <= coset:
                return LevelWaveletResult(
                    True, generator=line.rep, offset=key, level=ambient.ell
                )
    return LevelWaveletResult(False)


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
        level, gen, pts = claims[0]
        return (MultiscalePart(level, gen, restriction(pts | {origin})),)
    parts = [MultiscalePart(level, gen, restriction(pts)) for level, gen, pts in claims]
    if not claims or not F.values[0].is_zero():
        parts.append(MultiscalePart(None, None, restriction({origin})))
    return tuple(parts)
