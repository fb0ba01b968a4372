"""Wavelets, the three decomposition forms, and tomography from hyperplane masses.

A wavelet in direction s is a combination sum_t c_t 1_{H_{s,t}} of the p
parallel affine hyperplanes perpendicular to s; its transform lives on the
line through s.  Conversely the masses m_{s,t}(f) = sum over H_{s,t} of f
determine the transform of f on that line, which is why a function is
recoverable from its complete mass table (the sinogram).

The mass table is one mass run and tomography one back-projection, its
adjoint; both runs live in ``fourier`` with the lattice format, and this
module keeps the sinogram checks, the mass table and the wavelet forms.
``masses``, one grid scan per direction, is the one-direction path and the
reference for the table.  Masses are defined on Z_p**d only: ring grids
(modulus p**ell, ell > 1) are rejected by ``geometry.require_prime_grid``.

A mass table, a wavelet's coefficients and a decomposition's constant hold
their values as an exact function does (``_Lattice``): one row of ints per
value over one denominator, complex values as they are, over 1.  Their
values are decoded on the first read only, and ``fileio`` writes their
files from the rows.  ``mass_table`` keeps the rows of the mass run over
the denominator L of f.  ``decompose`` computes the exact coefficients on
them, over L*p**(d-1) (plain, reduced) or L*N (massless), with its
constant over L*N; complex ones stay per value, in floating point.
``reconstruct_from_masses`` back-projects the table's rows as they are.
Built from values, each holds their ``_encode``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .bandwidth import bandwidth
from .errors import SinogramError
from .fourier import COMPLEX, GridFunction, _coerce_value, _join_kind, _kind_of_scalar
from .fourier import _back_project, _decode, _encode, _from_lattice, _lattice_of, _mass_rows
from .geometry import (
    Ambient,
    ProjectiveLine,
    dot,
    dots,
    enumerate_lines,
    grid_point,
    line_through,
    require_prime_grid,
)
from .scalars import DEFAULT_TOL, is_zero, zero_bound

FORMS = ("plain", "reduced", "massless")


class _Lattice:
    """Values held as an exact function holds them: ``rows[i]`` over ``den``
    is the lattice row of value i, all of one kind; complex values stay as
    they are, one per row, over 1.  ``values`` are the values the holder was
    built from, or the decode of its rows on the first read."""

    __slots__ = ("ambient", "kind", "den", "rows", "_decoded")

    def __init__(self, ambient, kind: str, den: int, rows, values=None):
        self.ambient, self.kind, self.den, self.rows = ambient, kind, den, rows
        self._decoded = values

    @classmethod
    def of(cls, ambient, values) -> "_Lattice":
        """``values`` on the lattice, in the kind they join to."""
        values = tuple(values)
        kind = _join_kind(*map(_kind_of_scalar, values))
        if kind == COMPLEX:
            return cls(ambient, kind, 1, [(v,) for v in values], values)
        _, den, rows = _encode(values, ambient)
        return cls(ambient, kind, den, rows, values)

    @property
    def values(self) -> tuple:
        if self._decoded is None:
            self._decoded = tuple(_decode(self.kind, self.rows, self.den, self.ambient))
        return self._decoded


class _Record:
    """Equality, hash and repr by the fields ``_FIELDS``, as a frozen
    dataclass of them has them."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._key()))
        return f"{type(self).__name__}({fields})"


class Wavelet(_Record):
    """Direction plus the p coefficients over its parallel hyperplane family."""

    __slots__ = ("ambient", "direction", "form", "_coefficients")
    _FIELDS = ("ambient", "direction", "coeffs", "form")

    def __init__(self, ambient: Ambient, direction: ProjectiveLine, coeffs, form: str = "plain"):
        require_prime_grid(ambient)
        if form not in FORMS:
            raise ValueError(f"unknown wavelet form {form!r}")
        coeffs = tuple(coeffs)
        if len(coeffs) != ambient.p:
            raise ValueError(f"need {ambient.p} coefficients")
        bound = zero_bound(coeffs)
        if form == "reduced" and not is_zero(coeffs[0], bound):
            raise ValueError("a reduced wavelet has c_0 = 0")
        if form == "massless" and not is_zero(sum(coeffs[1:], coeffs[0]), bound):
            raise ValueError("a massless wavelet has coefficient sum 0")
        self.ambient, self.direction, self.form = ambient, direction, form
        self._coefficients = _Lattice.of(ambient, coeffs)

    @classmethod
    def _held(cls, ambient, direction, form: str, coefficients: _Lattice) -> "Wavelet":
        """The wavelet of held coefficients, which satisfy ``form``."""
        w = object.__new__(cls)
        w.ambient, w.direction, w.form, w._coefficients = ambient, direction, form, coefficients
        return w

    @property
    def coeffs(self) -> tuple:
        return self._coefficients.values

    @property
    def mass(self):
        return self.ambient.p ** (self.ambient.d - 1) * sum(self.coeffs)

    def evaluate(self) -> GridFunction:
        """The grid function x -> c_{x.s}, built from the coefficient rows."""
        c, labels = self._coefficients, dots(self.ambient, self.direction.rep)
        if c.kind == COMPLEX:
            return GridFunction(self.ambient, COMPLEX, [c.values[t] for t in labels])
        return _from_lattice(self.ambient, [c.rows[t] for t in labels], c.den, c.kind)


def masses(f: GridFunction, s) -> tuple:
    """The p hyperplane masses m_{s,t}(f) = sum of f over {x : x.s = t}."""
    ambient = f.ambient
    require_prime_grid(ambient)
    s = grid_point(ambient, s)
    p = ambient.p
    if not any(s):
        raise ValueError("mass direction must be nonzero")
    sums = [0] * p
    for x, v in zip(ambient.points(), f.values):
        t = dot(x, s, p)
        sums[t] = sums[t] + v
    return tuple(sums)


class MassTable(_Record):
    """All hyperplane masses of a function, one row per canonical direction:
    ``rows`` is ((ProjectiveLine, (m_0, ..., m_{p-1})), ...) in canonical
    order, held as one ``_Lattice`` of every mass, row after row."""

    __slots__ = ("ambient", "_lines", "_sizes", "_masses", "_grouped")
    _FIELDS = ("ambient", "rows")

    def __init__(self, ambient: Ambient, rows):
        rows = tuple(rows)
        self.ambient, self._grouped = ambient, rows
        self._lines, self._sizes = tuple(line for line, _ in rows), [len(ms) for _, ms in rows]
        self._masses = _Lattice.of(ambient, [m for _, ms in rows for m in ms])

    @classmethod
    def _held(cls, ambient, lines, masses: _Lattice) -> "MassTable":
        """The table of held masses, p in each direction of ``lines``."""
        table = object.__new__(cls)
        table.ambient, table._lines, table._masses, table._grouped = ambient, tuple(lines), masses, None
        table._sizes = [ambient.p] * len(lines)
        return table

    @property
    def rows(self) -> tuple:
        if self._grouped is None:
            values = iter(self._masses.values)
            self._grouped = tuple(
                (line, tuple(islice(values, size))) for line, size in zip(self._lines, self._sizes)
            )
        return self._grouped

    def directions(self) -> tuple:
        return self._lines

    def totals(self) -> tuple:
        return tuple(sum(ms) for _, ms in self.rows)


def mass_table(f: GridFunction) -> MassTable:
    """The masses of f on every canonical line: the rows of one mass run."""
    ambient = f.ambient
    require_prime_grid(ambient)
    lines = enumerate_lines(ambient)
    den, cells = _mass_rows(f, lines)
    return MassTable._held(ambient, lines, _Lattice(ambient, f.kind, den, cells))


def associated_wavelet(f: GridFunction, s) -> Wavelet:
    """The unique wavelet whose transform agrees with that of f on the line
    through s; its coefficients are the normalized masses in the canonical
    direction of that line."""
    ambient = f.ambient
    line = line_through(ambient, s)
    ms = masses(f, line.rep)
    w = Fraction(1, ambient.p ** (ambient.d - 1))
    return Wavelet(ambient, line, tuple(w * m for m in ms), form="plain")


class Decomposition(_Record):
    """A constant plus one wavelet per active line, reconstructing f exactly."""

    __slots__ = ("ambient", "form", "parts", "_constant")
    _FIELDS = ("ambient", "form", "constant", "parts")

    def __init__(self, ambient: Ambient, form: str, constant, parts):
        self.ambient, self.form, self.parts = ambient, form, tuple(parts)
        self._constant = _Lattice.of(ambient, (constant,))

    @classmethod
    def _held(cls, ambient, form: str, constant: _Lattice, parts) -> "Decomposition":
        """The decomposition of a held constant and wavelets."""
        dec = object.__new__(cls)
        dec.ambient, dec.form, dec.parts, dec._constant = ambient, form, tuple(parts), constant
        return dec

    @property
    def constant(self):
        return self._constant.values[0]

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

    Exact coefficients are computed on the int rows of the mass run, L
    times the masses (L the denominator of f), with M = L*m(f) summed from
    the rows of f: the plain coefficients are the mass rows over
    L*p**(d-1), the reduced ones their differences with the row at t = 0,
    and the massless ones p times the mass rows less M, over L*N; the
    constant is over L*N.  Complex ones are computed value by value.
    """
    if form not in FORMS:
        raise ValueError(f"unknown decomposition form {form!r}")
    profile = bandwidth(f, tol)
    ambient, lines = f.ambient, profile.lines
    p, N = ambient.p, ambient.size
    den, cells = _mass_rows(f, lines)
    groups = [cells[i : i + p] for i in range(0, len(cells), p)]
    if f.kind == COMPLEX:
        return _decompose_complex(f, form, lines, [_decode(COMPLEX, ms, den, ambient) for ms in groups])
    total = [sum(col) for col in zip(*_lattice_of(f)[1])]
    scale = den * (N // p)
    if form == "plain":
        coeffs = groups
        constant = [(1 - len(lines)) * m for m in total]
    elif form == "reduced":
        coeffs = [[tuple(a - b for a, b in zip(m, ms[0])) for m in ms] for ms in groups]
        shift = [sum(col) for col in zip(*(ms[0] for ms in groups))] or [0] * len(total)
        constant = [(1 - len(lines)) * m + p * s for m, s in zip(total, shift)]
    else:
        scale = den * N
        coeffs = [[tuple(p * a - b for a, b in zip(m, total)) for m in ms] for ms in groups]
        constant = total
    parts = [
        Wavelet._held(ambient, line, form, _Lattice(ambient, f.kind, scale, rows))
        for line, rows in zip(lines, coeffs)
    ]
    constant = _Lattice(ambient, f.kind, den * N, [tuple(constant)])
    return Decomposition._held(ambient, form, constant, parts)


def _decompose_complex(f: GridFunction, form: str, lines, masses) -> Decomposition:
    """``decompose`` of complex f, value by value in floating point, from
    the masses on each active line."""
    ambient = f.ambient
    p, d = ambient.p, ambient.d
    total = f.total()
    cell = Fraction(1, p ** (d - 1))
    grid_inv = Fraction(1, ambient.size)
    parts = []
    plain_constant = (1 - len(lines)) * grid_inv * total
    reduced_shift = 0
    for line, ms in zip(lines, masses):
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

    The table must hold one row of p masses for each canonical direction
    and no other row, and all per-direction totals must agree (each
    hyperplane family partitions the grid, so they all sum to the same
    mass, by the zero rule over the table if complex); violations raise
    SinogramError, a ring grid ValueError.  Exact masses give exact values,
    rational exactly when every cyclotomic coordinate above degree zero
    cancels, as in ``inverse``; complex masses give complex values.  The
    table's rows are back-projected as they are.
    """
    ambient = table.ambient
    require_prime_grid(ambient)
    p, N = ambient.p, ambient.size
    lines = enumerate_lines(ambient)
    canonical, present = {line.rep for line in lines}, set()
    for line, size in zip(table.directions(), table._sizes):
        if line.rep not in canonical:
            problem = "is not a canonical line"
        elif line.rep in present:
            problem = "appears twice"
        elif size != p:
            problem = f"has {size} masses, not {p}"
        else:
            present.add(line.rep)
            continue
        raise SinogramError(f"sinogram direction {list(line.rep)} {problem}")
    missing = [line.rep for line in lines if line.rep not in present]
    if missing:
        raise SinogramError(f"sinogram is missing directions: {missing}")
    masses = table._masses
    kind, L, M = masses.kind, masses.den, masses.rows
    if kind == COMPLEX:
        M = [(_coerce_value(COMPLEX, m, ambient),) for (m,) in M]
    # Row totals on the lattice ints: sums[i][c] is coordinate c of L times
    # the total of row i.  All rows must share the total of the first.
    cols = list(zip(*M))
    sums = list(zip(*([sum(col[k : k + p]) for k in range(0, len(col), p)] for col in cols)))
    total, bound = sums[0], zero_bound([c for col in cols for c in col], tol)
    bad = [i for i, row in enumerate(sums) for s, m in zip(row, total)
           if s != m and not is_zero(s - m, bound)]
    if bad:
        i, totals, directions = bad[0], table.totals(), table.directions()
        raise SinogramError(
            f"per-direction totals disagree: direction {list(directions[i].rep)} sums "
            f"to {totals[i]}, the first direction {list(directions[0].rep)} to {totals[0]}"
        )
    # f is its plain decomposition over all n lines: L*N*f(x) is p times the
    # back-projected L*m_{s,x.s}, less (n - 1) times the total mass L*m(f).
    n, back = len(lines), _back_project(ambient, table.directions(), M)
    cells = list(zip(*([p * b - (n - 1) * m for b in col] for col, m in zip(zip(*back), total))))
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
