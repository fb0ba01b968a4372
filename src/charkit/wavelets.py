"""Wavelets, the three decomposition forms, and tomography from hyperplane masses.

A wavelet in direction s is a combination sum_t c_t 1_{H_{s,t}} of the p
parallel affine hyperplanes perpendicular to s; its transform lives on the
line through s.  Conversely the masses m_{s,t}(f) = sum over H_{s,t} of f
determine the transform of f on that line, which is why a function is
recoverable from its complete mass table (the sinogram).

The mass table is one run and tomography one back-projection, its
adjoint; both runs live in ``fourier`` with the lattice format, and this
module keeps the sinogram checks, the mass table and the wavelet forms.
Exact masses come from the line run, which computes the p masses at the
line representatives only; complex masses from the float sums of the
d-pass mass run, made only where a representative reads them, and a
complex table whose masses overflow is refused.  Back-projection serves
any lines in any order.  ``masses``, one grid scan per direction, is the
one-direction path and the reference for the table.  Masses are defined
on Z_p**d only: ring grids (modulus p**ell, ell > 1) are rejected by
``geometry.require_prime_grid``.

A sinogram and a decomposition are line tables: their lines and one
``fourier.Values`` of every mass or coefficient, p per line, line after
line.  A ``Values`` is the holder a grid function is, as are a wavelet's
coefficients and a decomposition's constant: exact values as int
columns over one denominator, one per coordinate, decoded on the first
read only, and complex values as they are.  ``fileio`` writes both
tables with one writer of line rows.  ``mass_table`` holds the columns
of the run over the denominator L of f.  ``decompose`` computes the
exact coefficients on them a whole column at a time, over L*p**(d-1)
(plain, reduced) or L*N (massless), with its constant over L*N, and
complex ones in floating point, each factor made complex once, and hands
them over as one holder; its ``Wavelet`` parts are cut from it on the
first read of ``parts``.  ``reconstruct_from_masses`` compares the
table's lines with the canonical ones once, scanning its rows only when
they differ, and takes the row totals and the values from whole columns,
back-projected as they are.  Built from values, a table or wavelet holds
them in the kind they join to, and a decomposition built from parts
joins their coefficients into one table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat

from .bandwidth import bandwidth, support_profile
from .errors import SinogramError
from .fourier import COMPLEX, GridFunction, Values, _join_kind, _kind_of_scalar
from .fourier import _back_project, _from_lattice, _lattice_of, _mass_columns
from .fourier import _spectrum_and_masses
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


def _joined(ambient, values) -> Values:
    """``values`` held in the kind they join to."""
    values = tuple(values)
    return Values(ambient, _join_kind(*map(_kind_of_scalar, values)), values)


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
    """Direction plus the p coefficients over its parallel hyperplane family.
    The coefficients are given as values, which are checked against
    ``form``, or as the ``Values`` a run computed in that form."""

    __slots__ = ("ambient", "direction", "form", "_coefficients")
    _FIELDS = ("ambient", "direction", "coeffs", "form")

    def __init__(self, ambient: Ambient, direction: ProjectiveLine, coeffs, form: str = "plain"):
        require_prime_grid(ambient)
        if form not in FORMS:
            raise ValueError(f"unknown wavelet form {form!r}")
        if not isinstance(coeffs, Values):
            coeffs = tuple(coeffs)
            if len(coeffs) != ambient.p:
                raise ValueError(f"need {ambient.p} coefficients")
            bound = zero_bound(coeffs)
            if form == "reduced" and not is_zero(coeffs[0], bound):
                raise ValueError("a reduced wavelet has c_0 = 0")
            if form == "massless" and not is_zero(sum(coeffs[1:], coeffs[0]), bound):
                raise ValueError("a massless wavelet has coefficient sum 0")
            coeffs = _joined(ambient, coeffs)
        self.ambient, self.direction, self.form, self._coefficients = ambient, direction, form, coeffs

    @property
    def coeffs(self) -> tuple:
        return self._coefficients.values

    @property
    def mass(self):
        return self.ambient.p ** (self.ambient.d - 1) * sum(self.coeffs)

    def evaluate(self) -> GridFunction:
        """The grid function x -> c_{x.s}, taken from the held coefficients."""
        return self._coefficients.take(self.ambient, dots(self.ambient, self.direction.rep))


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
    order, held as one ``Values`` of every mass, row after row.  A run or a
    reader gives the table its lines as ``rows`` and that ``Values`` as
    ``masses``, p masses per line."""

    __slots__ = ("ambient", "_lines", "_sizes", "_masses", "_grouped")
    _FIELDS = ("ambient", "rows")

    def __init__(self, ambient: Ambient, rows, masses: Values | None = None):
        rows = tuple(rows)
        if masses is None:
            self._lines, self._sizes = tuple(line for line, _ in rows), [len(ms) for _, ms in rows]
            masses, self._grouped = _joined(ambient, [m for _, ms in rows for m in ms]), rows
        else:
            self._lines, self._sizes, self._grouped = rows, [ambient.p] * len(rows), None
        self.ambient, self._masses = ambient, masses

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
    den, cols = _mass_columns(f, lines)
    return MassTable(ambient, lines, Values._from_lattice(ambient, cols, den, f.kind))


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
    """A constant plus one wavelet per active line, reconstructing f exactly,
    held as a line table like a ``MassTable``: the lines and one ``Values``
    of every coefficient, p per line.  Given ``Wavelet`` parts, it joins
    their coefficients into that table; a run gives the lines as ``parts``
    and the ``Values`` as ``coefficients``.  ``parts`` are cut from the
    table, in the decomposition's form, on the first read.  The constant
    is given as a value, or as the ``Values`` a run computed."""

    __slots__ = ("ambient", "form", "_lines", "_coefficients", "_constant", "_parts")
    _FIELDS = ("ambient", "form", "constant", "parts")

    def __init__(
        self, ambient: Ambient, form: str, constant, parts, coefficients: Values | None = None
    ):
        parts = tuple(parts)
        if coefficients is None:
            self._lines = tuple(w.direction for w in parts)
            coefficients = _joined(ambient, [c for w in parts for c in w.coeffs])
        else:
            self._lines = parts
        self.ambient, self.form, self._coefficients, self._parts = ambient, form, coefficients, None
        self._constant = constant if isinstance(constant, Values) else _joined(ambient, (constant,))

    @property
    def parts(self) -> tuple:
        if self._parts is None:
            self._parts = tuple(
                Wavelet(self.ambient, line, held, self.form)
                for line, held in zip(self._lines, self._coefficients._cut(self.ambient.p))
            )
        return self._parts

    @property
    def constant(self):
        return self._constant.values[0]

    @property
    def cbw(self) -> int:
        return len(self._lines)

    def directions(self) -> tuple:
        return self._lines

    def evaluate(self) -> GridFunction:
        acc = GridFunction.constant(self.ambient, self.constant)
        for w in self.parts:
            acc = acc + w.evaluate()
        return acc


def _each(values, times: int):
    """Each of ``values`` repeated ``times`` times, in order."""
    return chain.from_iterable(zip(*[values] * times))


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

    Exact coefficients are computed on the int columns of the mass run, L
    times the masses (L the denominator of f), with M = L*m(f) summed from
    the columns of f: the plain coefficients are the masses over
    L*p**(d-1), the reduced ones their differences with the mass at t = 0,
    and the massless ones p times the masses less M, over L*N; the
    constant is over L*N.  Complex ones are computed in floating point,
    with the bits of one Fraction factor times each value.  Either way the
    coefficients are computed a whole coordinate column at a time and
    handed to the decomposition as one holder.  A rational f gets its
    spectrum and its masses from one line run.
    """
    if form not in FORMS:
        raise ValueError(f"unknown decomposition form {form!r}")
    ambient = f.ambient
    require_prime_grid(ambient)
    F, mass_columns = _spectrum_and_masses(f)
    lines = support_profile(F, source_kind=f.kind, tol=tol).lines
    p, N = ambient.p, ambient.size
    den, cols = mass_columns(lines)  # the coordinate columns of the masses, line after line
    if f.kind == COMPLEX:
        masses = Values._from_lattice(ambient, cols, den, COMPLEX).values
        return _decompose_complex(f, form, lines, masses)
    total = list(map(sum, _lattice_of(f)[1]))
    scale = den * (N // p)
    if form == "plain":
        coeffs = cols
        constant = [(1 - len(lines)) * m for m in total]
    elif form == "reduced":
        coeffs = [list(map(operator.sub, col, _each(col[0::p], p))) for col in cols]
        constant = [(1 - len(lines)) * m + p * sum(col[0::p]) for m, col in zip(total, cols)]
    else:
        scale = den * N
        coeffs = [[p * a - m for a in col] for col, m in zip(cols, total)]
        constant = total
    coeffs = Values._from_lattice(ambient, coeffs, scale, f.kind)
    constant = Values._from_lattice(ambient, [[m] for m in constant], den * N, f.kind)
    return Decomposition(ambient, form, constant, lines, coeffs)


def _decompose_complex(f: GridFunction, form: str, lines, masses) -> Decomposition:
    """``decompose`` of complex f in floating point, from the masses on the
    active lines, p per line, line after line.  A Fraction times a complex
    value is the Fraction made complex times it, so each factor,
    1/p**(d-1), 1/N or the constant's exact (1 - cbw)/N, is made complex
    once and multiplies every value."""
    ambient = f.ambient
    p, d = ambient.p, ambient.d
    total = f.total()
    grid_inv = Fraction(1, ambient.size)
    cell, unit = complex(Fraction(1, p ** (d - 1))), complex(grid_inv)
    constant = complex((1 - len(lines)) * grid_inv) * total
    if form == "plain":
        coeffs = [cell * m for m in masses]
    elif form == "reduced":
        coeffs = [cell * m for m in map(operator.sub, masses, _each(masses[0::p], p))]
        constant = constant + sum(cell * m for m in masses[0::p])
    else:
        # c_t = (p*m_t - M)/N for t != 0, and c_0 minus the sum of the others
        coeffs = [unit * (p * m - total) for m in masses]
        rests = zip(*[coeffs[t::p] for t in range(1, p)])
        coeffs[0::p] = map(operator.neg, map(sum, rests))
        constant = unit * total
    coeffs = Values(ambient, COMPLEX, coeffs)
    return Decomposition(ambient, form, Values(ambient, COMPLEX, (constant,)), lines, coeffs)


def reconstruct_from_masses(table: MassTable, tol: float = DEFAULT_TOL) -> GridFunction:
    """Tomography: rebuild the unique function with the given sinogram.

    The table must hold one row of p masses for each canonical direction
    and no other row, and all per-direction totals must agree (each
    hyperplane family partitions the grid, so they all sum to the same
    mass, by the zero rule over the table if complex); violations raise
    SinogramError, a ring grid ValueError.  Exact masses give exact values,
    rational exactly when every cyclotomic coordinate above degree zero
    cancels, as in ``inverse``; complex masses give complex values.  The
    lines are checked by one compare with the canonical ones, the rows
    scanned for the first fault only when that fails, and the table's
    columns are back-projected as they are.
    """
    ambient = table.ambient
    require_prime_grid(ambient)
    p, N = ambient.p, ambient.size
    lines = enumerate_lines(ambient)
    if table.directions() != lines or {*table._sizes} != {p}:
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
    kind, (L, cols) = table._masses.kind, _lattice_of(table._masses)
    # Row totals on the lattice ints: sums[c][i] is coordinate c of L times
    # the total of row i, each column's row totals summed in one map.
    sums = [list(map(sum, zip(*[iter(col)] * p))) for col in cols]
    total = [col[0] for col in sums]
    # f is its plain decomposition over all n lines: L*N*f(x) is p times the
    # back-projected L*m_{s,x.s}, less (n - 1) times the total mass L*m(f).
    # Exact values are demoted as inverse's are; building a complex f
    # refuses a non-finite mass, before the totals are compared.
    n, back = len(lines), _back_project(ambient, table.directions(), cols)
    cells = [
        list(map(operator.sub, map(operator.mul, repeat(p), col), repeat((n - 1) * m)))
        for col, m in zip(back, total)
    ]
    f = _from_lattice(ambient, cells, L * N, kind if kind == COMPLEX else None)
    # All rows must share the total of the first: rows that differ from it
    # are found whole, and only their values go to the zero rule.
    differ = list(compress(count(), map(operator.ne, zip(*sums), repeat(tuple(total)))))
    if differ and kind == COMPLEX:  # one value per row: not is_zero(s - m, bound)
        bound, (m,) = zero_bound(cols[0], tol), total
        gaps = map(abs, map(operator.sub, sums[0], repeat(m)))
        differ = list(compress(count(), map(operator.not_, map(operator.le, gaps, repeat(bound)))))
    if differ:
        i, totals, directions = differ[0], table.totals(), table.directions()
        raise SinogramError(
            f"per-direction totals disagree: direction {list(directions[i].rep)} sums "
            f"to {totals[i]}, the first direction {list(directions[0].rep)} to {totals[0]}"
        )
    return f


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
