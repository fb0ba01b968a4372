"""Wavelets, the three decomposition forms, and tomography from hyperplane masses.

A wavelet in direction s is a combination sum_t c_t 1_{H_{s,t}} of the p
parallel affine hyperplanes perpendicular to s; its transform lives on the
line through s.  Conversely the masses m_{s,t}(f) = sum over H_{s,t} of f
determine the transform of f on that line, which is why a function is
recoverable from its complete mass table (the sinogram).

The mass table comes from one run of the exact-transform lattice kernel,
whose format lives in ``fourier``: the run reads the function's rows and
``_decode`` turns its cells into masses, so this module only lays out its
runs.  For a direction s let G(s) = sum_x f(x) *
X**(x.s) in K[X]/(X**p - 1); its coefficient of X**t is m_{s,t}.  With
every coordinate of every value placed at power 0, the d lattice passes
(sign +1, q = p) give G at every s at once, and skipping the reduction to
the power basis keeps all p coefficients.  That is d*N*p*p slice
additions for all p**d directions (N = p**d points), against one grid
scan of N dot products per direction for ``masses``, which is kept as the
one-direction path and the reference the tests compare the table with.
Masses are defined on Z_p**d only: ring grids (modulus p**ell, ell > 1)
are rejected by ``geometry.require_prime_grid``.

Tomography is back-projection, the adjoint of the mass table: f is its
plain decomposition over all n lines, f(x) = p**(-(d-1)) * sum_lines
m_{s,x.s} - (n - 1) * m(f) / p**d with m(f) the total mass.  Placing each
m_{s,t} at X**(-t) and position s, the same d passes leave sum_lines
m_{s,x.s} at X**0 and position x; no spectrum is built, and the function
keeps those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bandwidth import bandwidth
from .errors import SinogramError
from .fourier import COMPLEX, GridFunction, _join_kind, _kind_of_scalar
from .fourier import _decode, _encode, _from_lattice, _lattice_of, _lattice_pass, _planes
from .geometry import (
    Ambient,
    ProjectiveLine,
    dot,
    dots,
    enumerate_lines,
    line_through,
    require_prime_grid,
)
from .scalars import DEFAULT_TOL, is_zero, zero_bound

FORMS = ("plain", "reduced", "massless")


@dataclass(frozen=True)
class Wavelet:
    """Direction plus the p coefficients over its parallel hyperplane family."""

    ambient: Ambient
    direction: ProjectiveLine
    coeffs: tuple
    form: str = "plain"

    def __post_init__(self):
        require_prime_grid(self.ambient)
        if self.form not in FORMS:
            raise ValueError(f"unknown wavelet form {self.form!r}")
        if len(self.coeffs) != self.ambient.p:
            raise ValueError(f"need {self.ambient.p} coefficients")
        bound = zero_bound(self.coeffs)
        if self.form == "reduced" and not is_zero(self.coeffs[0], bound):
            raise ValueError("a reduced wavelet has c_0 = 0")
        if self.form == "massless" and not is_zero(sum(self.coeffs[1:], self.coeffs[0]), bound):
            raise ValueError("a massless wavelet has coefficient sum 0")

    @property
    def mass(self):
        return self.ambient.p ** (self.ambient.d - 1) * sum(self.coeffs)

    def evaluate(self) -> GridFunction:
        """The grid function x -> c_{x.s}."""
        kind = _join_kind(*map(_kind_of_scalar, self.coeffs))
        vals = [self.coeffs[t] for t in dots(self.ambient, self.direction.rep)]
        return GridFunction(self.ambient, kind, vals)


def masses(f: GridFunction, s) -> tuple:
    """The p hyperplane masses m_{s,t}(f) = sum of f over {x : x.s = t}."""
    ambient = f.ambient
    require_prime_grid(ambient)
    p = ambient.p
    s = tuple(c % p for c in s)
    if not any(s):
        raise ValueError("mass direction must be nonzero")
    sums = [0] * p
    for x, v in zip(ambient.points(), f.values):
        t = dot(x, s, p)
        sums[t] = sums[t] + v
    return tuple(sums)


def _mass_rows(f: GridFunction, lines) -> list:
    """The masses of f in every direction of ``lines``, from one lattice run:
    the d passes leave coordinate c of m_{s,t} at A[t*N*width + index(s)*width + c]."""
    ambient = f.ambient
    p = ambient.p
    den, rows = _lattice_of(f)
    width = len(rows[0])
    A = _planes(rows)
    A += [0] * ((p - 1) * len(A))  # every coordinate at power 0, p planes
    for _ in range(ambient.d):
        A = _lattice_pass(A, p, +1)
    plane = width * ambient.size
    cells = [
        A[t * plane + base : t * plane + base + width]
        for base in (ambient.index_of(line.rep) * width for line in lines)
        for t in range(p)
    ]
    ms = _decode(f.kind, cells, den, ambient)
    return [tuple(ms[i : i + p]) for i in range(0, len(ms), p)]


@dataclass(frozen=True)
class MassTable:
    """All hyperplane masses of a function, one row per canonical direction."""

    ambient: Ambient
    rows: tuple  # ((ProjectiveLine, (m_0, ..., m_{p-1})), ...) in canonical order

    def directions(self) -> tuple:
        return tuple(ln for ln, _ in self.rows)

    def totals(self) -> tuple:
        return tuple(sum(ms) for _, ms in self.rows)


def mass_table(f: GridFunction) -> MassTable:
    ambient = f.ambient
    require_prime_grid(ambient)
    lines = enumerate_lines(ambient)
    return MassTable(ambient, tuple(zip(lines, _mass_rows(f, lines))))


def associated_wavelet(f: GridFunction, s) -> Wavelet:
    """The unique wavelet whose transform agrees with that of f on the line
    through s; its coefficients are the normalized masses in the canonical
    direction of that line."""
    ambient = f.ambient
    line = line_through(ambient, s)
    ms = masses(f, line.rep)
    w = Fraction(1, ambient.p ** (ambient.d - 1))
    return Wavelet(ambient, line, tuple(w * m for m in ms), form="plain")


@dataclass(frozen=True)
class Decomposition:
    """A constant plus one wavelet per active line, reconstructing f exactly."""

    ambient: Ambient
    form: str
    constant: object
    parts: tuple

    @property
    def cbw(self) -> int:
        return len(self.parts)

    def evaluate(self) -> GridFunction:
        acc = GridFunction.constant(self.ambient, self.constant)
        for w in self.parts:
            acc = acc + w.evaluate()
        return acc


def decompose(
    f: GridFunction, form: str = "reduced", tol: float = DEFAULT_TOL
) -> Decomposition:
    """Split f into one wavelet per active spectral line, plus a constant.

    plain:    coefficients m_{s,t}/p**(d-1), constant (1 - cbw) * m(f)/p**d
    reduced:  coefficients (m_{s,t} - m_{s,0})/p**(d-1), c_0 = 0
    massless: coefficients (p*m_{s,t} - m(f))/p**d, constant m(f)/p**d

    The massless constant is forced by mass balance: every massless part
    sums to zero (c_0 is minus the sum of the others, also in floating
    point), so the constant alone must carry m(f).  A line is active when
    the spectrum of f is nonzero on it, by the zero rule for complex f.
    """
    if form not in FORMS:
        raise ValueError(f"unknown decomposition form {form!r}")
    profile = bandwidth(f, tol)
    ambient = f.ambient
    p, d = ambient.p, ambient.d
    total = f.total()
    cell = Fraction(1, p ** (d - 1))
    grid_inv = Fraction(1, ambient.size)
    parts = []
    plain_constant = (1 - profile.cbw) * grid_inv * total
    reduced_shift = 0
    for line, ms in zip(profile.lines, _mass_rows(f, profile.lines)):
        if form == "plain":
            coeffs = tuple(cell * m for m in ms)
        elif form == "reduced":
            coeffs = tuple(cell * (m - ms[0]) for m in ms)
            reduced_shift = reduced_shift + cell * ms[0]
        else:
            rest = [grid_inv * (p * m - total) for m in ms[1:]]
            coeffs = (-sum(rest), *rest)
        parts.append(Wavelet(ambient, line, coeffs, form=form))
    if form == "plain":
        constant = plain_constant
    elif form == "reduced":
        constant = plain_constant + reduced_shift
    else:
        constant = grid_inv * total
    return Decomposition(ambient, form, constant, tuple(parts))


def reconstruct_from_masses(table: MassTable, tol: float = DEFAULT_TOL) -> GridFunction:
    """Tomography: rebuild the unique function with the given sinogram.

    The table must contain every canonical direction and all per-direction
    totals must agree (each hyperplane family partitions the grid, so they
    all sum to the same mass, by the zero rule over the table if complex);
    violations raise SinogramError.  Exact masses give exact values,
    rational exactly when every cyclotomic coordinate above degree zero
    cancels, as in ``inverse``; complex masses give complex values.
    """
    ambient = table.ambient
    p, d, N = ambient.p, ambient.d, ambient.size
    lines = enumerate_lines(ambient)
    present = set(table.directions())
    missing = [line.rep for line in lines if line not in present]
    if missing:
        raise SinogramError(f"sinogram is missing directions: {missing}")
    kind, L, M = _encode([m for _, ms in table.rows for m in ms], ambient)
    width, M = len(M[0]), _planes(M)
    rows = len(table.rows)
    count = p * rows  # M[c*count + i*p + t]: coordinate c of L*m_{s_i,t}
    # Row totals on the lattice ints: sums[c*rows + i] is coordinate c of
    # L times the total of row i.  All rows must share the total of the first.
    sums = [sum(M[k : k + p]) for k in range(0, width * count, p)]
    total = sums[::rows]
    bound = zero_bound(M, tol)
    unequal = [k for k, s in enumerate(sums) if s != total[k // rows]]
    bad = [k % rows for k in unequal if not is_zero(sums[k] - total[k // rows], bound)]
    if bad:
        i, totals = min(bad), table.totals()
        raise SinogramError(
            f"per-direction totals disagree: direction {list(table.rows[i][0].rep)} sums "
            f"to {totals[i]}, the first direction {list(table.rows[0][0].rep)} to {totals[0]}"
        )
    plane = width * N
    A = [0] * (p * plane)
    at = [ambient.index_of(line.rep) for line, _ in table.rows]
    for c in range(width):
        for t in range(p):
            base = -t % p * plane + c * N
            for i, m in zip(at, M[c * count + t : (c + 1) * count : p]):
                A[base + i] = m
    for _ in range(d):
        A = _lattice_pass(A, p, +1)
    # Power 0 holds L * sum_lines m_{s,x.s} at A[index(x)*width + c]; the
    # total mass L * m(f) is the sum of any one row, here the first.
    n = len(lines)
    cells = list(zip(*([p * b - (n - 1) * m for b in A[c : width * N : width]]
                       for c, m in enumerate(total))))
    if kind == COMPLEX:
        return GridFunction(ambient, COMPLEX, _decode(COMPLEX, cells, N, ambient))
    return _from_lattice(ambient, cells, L * N)


@dataclass(frozen=True)
class WaveletCheck:
    is_constant: bool
    line: ProjectiveLine | None


def is_wavelet(f: GridFunction) -> WaveletCheck:
    """The unique line carrying the spectrum when cbw(f) = 1.

    Constants are wavelets in every direction and come back flagged;
    cbw >= 2 yields no line.
    """
    profile = bandwidth(f)
    if profile.cbw == 0:
        return WaveletCheck(is_constant=True, line=None)
    if profile.cbw == 1:
        return WaveletCheck(is_constant=False, line=profile.lines[0])
    return WaveletCheck(is_constant=False, line=None)
