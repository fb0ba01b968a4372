"""Grid functions on Z_m**d (m = p**ell) and the normalized Fourier transform.

Every grid is one ``geometry.Ambient(p, d, ell)``: the prime field grid
Z_p**d at ell = 1 and the ring grid Z_{p**ell}**d above it, with the same
point order and the same transform code.  ``vanishes_on`` is the one test
of "F vanishes on this set", with the tolerance for complex values passed
in and applied by the zero rule of ``scalars`` over the whole of F.

The forward transform is

    F(m) = q**(-d) * sum_x chi(-x.m) f(x),      chi(u) = exp(2*pi*i*u/q),

and the inverse carries no normalization, so F(0) is the average of f and
the convolution theorem reads forward(f * g) = q**d * forward(f)*forward(g).

A value changes kind in one place, ``_coerce_value``, which every holder
built from values applies to every value (a complex holder applies its
complex branch to the whole list in one pass): rational values promote to
cyclotomic or complex ones, cyclotomic values to complex ones by
``complex(z)`` (the embedding), and complex values never go back.
``to_cyclotomic``, ``to_complex`` and arithmetic or equality with a
complex function promote by building a ``GridFunction`` of the joined
kind; exact arithmetic and equality work on the lattice columns (below).

Rational and cyclotomic inputs take the exact path over Q(zeta_q), complex
inputs the floating one.  Both run d passes of one shape, a length-q
transform per axis: a pass cuts the points into q slices by the coordinate
at one end of the position, skips all-zero slices, adds the rotated slices
in increasing order and moves the transformed coordinate to the other end,
so d passes restore the lexicographic order.  The complex pass
(``_complex_pass``) starts from the first coordinate and multiplies by the
roots exp(2*pi*i*e/q) of ``scalars._embed_roots``, the one root table,
which ``forward_naive`` and the floating eigenfunctions read too; a block
at the root 1 is added as it is, with the same bits.

The exact path is an integer-lattice kernel in the style of Nussbaumer's
polynomial transforms, and this module is the one home of its format.
Values are held one way, by ``Values``: a grid function is the ``Values``
of its N points, and a mass table's masses, a decomposition's
coefficients, a wavelet's coefficients and a decomposition's constant
each hold one (``Values._cut`` cuts a table's holder into one per line).
Exact values are held from construction as int columns over one
denominator, ``_cols[c][i]`` the power-basis coordinate c of value i:
phi columns for cyclotomic values, one for rational ones.  Complex values
are held alone, and a grid function's must be finite.  ``_encode`` scales
values onto columns by the lcm L of their denominators; a run takes
columns and builds its result from columns (``_from_lattice``), whose
``values`` ``_decode`` makes on the first read only.  Only the per-value
views read the columns a value at a time: ``_decode``, equality, a
cyclotomic zero mask, ``_traces`` and ``fileio``'s cyclotomic texts.  A
run lays the columns end to end as planes, A[c*N + i]: length-q int
vectors in Z[x]/(x**q - 1), x standing for zeta, where multiplying by
zeta**e is a rotation, so the d axis passes only add ints, N*d*q*q of them
for N = q**d points, and the output is reduced to the power basis plane
by plane (``_power_basis``), which leaves the columns of the result with
no call per value.  ``forward`` leaves columns over L*N, ``inverse`` over
L, rational exactly when every column above degree zero is zero.  The
columns answer for the function whole: the zero mask, the Galois action
(column j to plane r*j, then the plane reduction), equality (columns
cross-multiplied by the two denominators), ``+`` and ``-`` (columns over
the lcm of the two), ``scale`` by a rational factor (columns times its
numerator, the denominator times its denominator), ``take`` and the
transforms.  Every run is laid out here; other modules read columns
through ``_lattice_of``, build from them through ``_from_lattice`` and
call the runs.

Every run is chosen in one place, ``_kernel(ambient, kind)``: ``_Complex``
for complex values, ``_Walsh`` for exact values on Z_2**d and ``_Lattice``
otherwise.  Each kernel is a namespace of plain functions, never
instantiated, with the same runs: ``transform`` (the axis passes on
lattice columns), ``spectrum`` (``forward``'s F, with the run its masses
are read from where ``shares`` says F is made from that run), ``planes``
(the run the hyperplane masses m_{s,t} are read from), ``points`` and
``cells`` (the masses of any lines, read off that run) and
``back_project`` (the line run transposed, for any lines in any order).
The entry points ``forward``, ``inverse``, ``_exact_transform`` (also
the multi-scale parts and the galois suite's d-pass spectra),
``_mass_columns``, ``_spectrum_and_masses`` and ``_back_project`` only
read the kernel; the kernels' docstrings say how each run is made.
Tomography back-projects and builds no spectrum: ``reconstruct_from_masses``
the masses, f(x) = p**(-(d-1)) * sum_lines m_{s,x.s} - (n - 1) * m(f)/p**d
over all n lines, and ``inverse_phi`` the traces of its seeds
(``_traces``).

``set_spectrum`` gives the spectrum of a set's indicator, with the columns
and denominator of ``forward`` of it, and the set statements (the
support-size inequality, the dichotomy and the self-dual classification)
take their spectra from it.  By linearity the columns over N are the sums
over the members x of the columns of forward(delta_x), which one table of
point spectra per grid holds (``_point_spectra``, N**2 * phi(m) ints built
from the labels ``dots`` and cached).  Building the table costs about as
much as N/(d*q) transforms, so a grid gets it by rent or buy: its first
sets are transformed, and once the transforms run there have cost as much
as the table would, the table is built and read from then on.  One set alone
is transformed; the exhaustive suites, thousands of sets per grid, read
the table.  ``geometry.MAX_SET_SPECTRUM_TABLE`` caps the table's size; a
grid over the cap gets no table.

``forward_naive`` is the quadratic double loop over ``Cyclotomic``
arithmetic, or complex arithmetic on the root table.  It shares no code
with either pass and is kept as the oracle that the tests compare them
with.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, cycle, repeat

from .geometry import MAX_SET_SPECTRUM_TABLE, Point, Subspace, dilation_indices, dot, dots
from .geometry import grid_point, line_count, perp, point_set, vsub
from .scalars import (
    COMPLEX,
    CYCLOTOMIC,
    DEFAULT_TOL,
    RATIONAL,
    ZERO,
    Cyclotomic,
    _embed_roots,
    _unit_index,
    is_zero,
    zero_bound,
)

_KINDS = (RATIONAL, CYCLOTOMIC, COMPLEX)
_NOT_FINITE = "complex values must be finite"


def _coerce_value(kind: str, value, ambient):
    if kind == RATIONAL:
        return value if isinstance(value, Fraction) else Fraction(value)
    if kind == CYCLOTOMIC:
        if isinstance(value, Cyclotomic):
            if value.p != ambient.p or value.ell != ambient.ell:
                raise ValueError("cyclotomic value conductor does not match the grid")
            return value
        return Cyclotomic.from_rational(ambient.p, Fraction(value), ambient.ell)
    try:
        return complex(value)
    except OverflowError:  # an exact value beyond the float range
        raise ValueError(_NOT_FINITE) from None


class Values:
    """Values of one kind on a grid, any number of them: the one holder of
    a grid function's N values, a mass table's p masses per direction, a
    decomposition's p coefficients per line, a wavelet's p coefficients
    and a decomposition's constant.  Exact values are held from
    construction as ``_width`` int columns over one denominator,
    ``_cols[c][i]`` the coordinate c of value i, so rational values are
    one column; ``values`` are the values they were built from, or decoded
    from the columns on the first read.  Complex values are held alone."""

    __slots__ = ("ambient", "kind", "_values", "_cols", "_den")

    def __init__(self, ambient, kind: str, values):
        if kind not in _KINDS:
            raise ValueError(f"unknown scalar kind {kind!r}")
        self.ambient = ambient
        self.kind = kind
        if kind == COMPLEX:
            try:
                self._values = tuple(map(complex, values))
            except OverflowError:
                raise ValueError(_NOT_FINITE) from None
            return
        self._values = tuple(_coerce_value(kind, v, ambient) for v in values)
        self._den, self._cols = _encode(self._values, ambient, kind)

    @classmethod
    def _from_lattice(cls, ambient, cols, den: int, kind: str | None = None):
        """The holder whose value i has the coordinates cols[c][i] / den,
        exact ``values`` undecoded until read.  Without ``kind`` the columns
        are demoted as an inverse transform's are: rational, column 0 alone,
        exactly when every column above degree zero is zero.  Complex values
        come as one column and are divided out at once, over 1 not at all: a
        complex division by 1 turns inf into inf+nanj."""
        if kind == COMPLEX:
            (col,) = cols
            return cls(ambient, COMPLEX, col if den == 1 else [complex(c) / den for c in col])
        if kind is None:
            kind = CYCLOTOMIC if any(map(any, cols[1:])) else RATIONAL
            cols = cols if kind == CYCLOTOMIC else cols[:1]
        held = object.__new__(cls)
        held.ambient, held.kind, held._values, held._cols, held._den = ambient, kind, None, cols, den
        return held

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = tuple(_decode(self.kind, self._cols, self._den, self.ambient))
        return self._values

    def __len__(self) -> int:
        return len(self._values if self.kind == COMPLEX else self._cols[0])

    def __eq__(self, other):
        if not isinstance(other, Values):
            return NotImplemented
        return self.ambient == other.ambient and len(self) == len(other) and all(_agreement(self, other))

    def _cut(self, size: int) -> list:
        """These values as holders of ``size`` consecutive values each, in
        order, exact ones on slices of their columns over the same
        denominator."""
        starts = range(0, len(self), size)
        if self.kind == COMPLEX:
            return [Values(self.ambient, COMPLEX, self._values[i : i + size]) for i in starts]
        cuts = ([col[i : i + size] for col in self._cols] for i in starts)
        return [Values._from_lattice(self.ambient, cut, self._den, self.kind) for cut in cuts]

    def take(self, ambient, src) -> "GridFunction":
        """The function on ``ambient`` whose value i is value src[i] of these."""
        if self.kind == COMPLEX:
            return GridFunction(ambient, COMPLEX, map(self.values.__getitem__, src))
        cols = [list(map(col.__getitem__, src)) for col in self._cols]
        return _from_lattice(ambient, cols, self._den, self.kind)


class GridFunction(Values):
    """A dense function on the points of the grid, in lexicographic order:
    the ``Values`` of its N points.  Complex values must be finite."""

    __slots__ = ()

    def __init__(self, ambient, kind: str, values):
        super().__init__(ambient, kind, values)
        if kind == COMPLEX and not all(map(cmath.isfinite, self._values)):
            raise ValueError(_NOT_FINITE)
        if len(self._values) != ambient.size:
            raise ValueError(
                f"need {ambient.size} values for this grid, got {len(self._values)}"
            )

    @classmethod
    def constant(cls, ambient, value) -> "GridFunction":
        kind = _kind_of_scalar(value)
        return cls(ambient, kind, (value,) * ambient.size)

    @classmethod
    def indicator(cls, ambient, points) -> "GridFunction":
        members = point_set(ambient, points)
        vals = [ONE_F if x in members else ZERO for x in ambient.points()]
        return cls(ambient, RATIONAL, vals)

    @classmethod
    def delta(cls, ambient, point: Point, value=1) -> "GridFunction":
        kind = _kind_of_scalar(value)
        idx = ambient.index_of(grid_point(ambient, point))
        vals = [value if i == idx else 0 for i in range(ambient.size)]
        return cls(ambient, kind, vals)

    def value_at(self, point: Point):
        return self.values[self.ambient.index_of(grid_point(self.ambient, point))]

    def nonzero(self, tol: float = DEFAULT_TOL, bound: float | None = None) -> tuple:
        """The one zero mask: whether each value is nonzero.  Exact values
        are read from the lattice columns; a complex value is nonzero when
        |v| > bound, by default the zero rule's over all of them."""
        if self.kind != COMPLEX:
            cols = self._cols
            return tuple(map(bool, cols[0]) if len(cols) == 1 else map(any, zip(*cols)))
        if bound is None:
            bound = zero_bound(self.values, tol)
        # not is_zero(v, bound), that is not (|v| <= bound), in one pass
        return tuple(map(operator.not_, map(operator.le, map(abs, self.values), repeat(bound))))

    def support(self, tol: float = DEFAULT_TOL) -> tuple:
        """Points where the value is nonzero, by the zero mask."""
        return tuple(x for x, nz in zip(self.ambient.points(), self.nonzero(tol)) if nz)

    def is_zero(self) -> bool:
        return not any(self.nonzero())

    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    def is_indicator(self) -> bool:
        if self.kind != RATIONAL:
            return False
        return all(v == 0 or v == 1 for v in self.values)

    def total(self):
        """Sum of all values (the mass of the function)."""
        return sum(self.values)

    def to_cyclotomic(self) -> "GridFunction":
        if self.kind == COMPLEX:
            raise ValueError("complex values cannot be promoted to cyclotomic")
        return type(self)(self.ambient, CYCLOTOMIC, self.values)

    def to_complex(self) -> "GridFunction":
        return type(self)(self.ambient, COMPLEX, self.values)

    def agrees(self, other: "GridFunction") -> tuple:
        """Whether each value of self equals that of other."""
        if self.ambient != other.ambient:
            raise ValueError("grid mismatch")
        return tuple(_agreement(self, other))

    def galois(self, r: int) -> "GridFunction":
        """The image under zeta -> zeta**r of every value (r a unit mod q),
        computed on whole lattice columns: the column of x**j becomes plane
        r*j mod q of Z[x]/(x**q - 1), the other planes zero, and the q
        planes are reduced to the power basis plane by plane."""
        if self.kind == COMPLEX:
            raise ValueError("the Galois action is defined on exact values")
        p, q = self.ambient.p, self.ambient.modulus
        r = _unit_index(p, self.ambient.ell, r)
        if r == 1 or self.kind == RATIONAL:
            return self
        planes = [(0,) * len(self)] * q
        for j, col in enumerate(self._cols):
            planes[j * r % q] = col
        return _from_lattice(self.ambient, _power_basis(planes, p), self._den, CYCLOTOMIC)

    def dilate(self, r: int) -> "GridFunction":
        """The function x -> self(r*x)."""
        return self.take(self.ambient, dilation_indices(self.ambient, r % self.ambient.modulus))

    def isclose(self, other: "GridFunction", tol: float = DEFAULT_TOL) -> bool:
        if self.ambient != other.ambient:
            return False
        a = self.to_complex().values
        b = other.to_complex().values
        bound = zero_bound(a + b, tol)
        return all(is_zero(x - y, bound) for x, y in zip(a, b))

    def _binop(self, other, combine):
        """Pointwise combination: ``combine`` takes two whole sequences, the
        complex values of the two, or for exact functions one coordinate
        column of each, scaled to the lcm of the two denominators, the
        narrower function padded with zero columns."""
        if not isinstance(other, GridFunction):
            return NotImplemented
        if self.ambient != other.ambient:
            raise ValueError("grid mismatch")
        kind = _join_kind(self.kind, other.kind)
        if kind == COMPLEX:
            a, b = self.to_complex().values, other.to_complex().values
            return GridFunction(self.ambient, kind, combine(a, b))
        den = math.lcm(self._den, other._den)
        width = max(_width(self.kind, self.ambient), _width(other.kind, other.ambient))
        a, b = (_columns(h, den // h._den, width) for h in (self, other))
        return _from_lattice(self.ambient, list(map(list, map(combine, a, b))), den, kind)

    def __add__(self, other):
        return self._binop(other, partial(map, operator.add))

    def __sub__(self, other):
        return self._binop(other, partial(map, operator.sub))

    def __neg__(self):
        return self._binop(self, lambda a, _: map(operator.neg, a))

    def scale(self, factor) -> "GridFunction":
        """Every value times ``factor``.  On exact values a rational factor
        n/m multiplies the columns by n and the denominator by m."""
        factor_kind = _kind_of_scalar(factor)
        if factor_kind == RATIONAL and self.kind != COMPLEX:
            num, den = factor.as_integer_ratio()
            cols = [list(map(num.__mul__, col)) for col in self._cols]
            return _from_lattice(self.ambient, cols, self._den * den, self.kind)
        kind = _join_kind(self.kind, factor_kind)
        vals = [_coerce_value(kind, v, self.ambient) for v in self.values]
        if kind == COMPLEX:  # an exact factor keeps its own product on exact values
            factor = _coerce_value(kind, factor, self.ambient)
        return GridFunction(self.ambient, kind, [factor * v for v in vals])

    def __repr__(self):
        return (
            f"GridFunction(p={self.ambient.p}, d={self.ambient.d}, "
            f"kind={self.kind}, {self.ambient.size} values)"
        )


def vanishes_on(F: GridFunction, points, tol: float = DEFAULT_TOL) -> bool:
    """True when F is zero at every given point, by the zero mask: exactly
    for exact values, by the zero rule over all of F for complex ones."""
    ambient = F.ambient
    nonzero = F.nonzero(tol)
    for x in points:
        if nonzero[ambient.index_of(grid_point(ambient, x))]:
            return False
    return True


ONE_F = Fraction(1)


def _kind_of_scalar(value) -> str:
    if isinstance(value, (int, Fraction)):
        return RATIONAL
    if isinstance(value, Cyclotomic):
        return CYCLOTOMIC
    return COMPLEX


def _join_kind(*kinds: str) -> str:
    """The kind that all of ``kinds`` promote to."""
    if COMPLEX in kinds:
        return COMPLEX
    if CYCLOTOMIC in kinds:
        return CYCLOTOMIC
    return RATIONAL


def _complex_pass(A: list, q: int, sign: int) -> list:
    """One length-q transform out[k] = sum_t root**(sign*k*t) * in[t] of
    complex values, shaped like ``_lattice_pass``.

    Block t, A[t*m:(t+1)*m] (m = len(A) / q), holds the points whose first
    coordinate is t.  All-zero blocks are skipped, and output k, the sum
    over t in increasing t of the rotated blocks, goes to out[k::q]: the
    transformed coordinate moves to the back of the position, so d passes
    over a d-dimensional grid bring it back to lexicographic order.  A
    block at the root 1 (k*t = 0 mod q) is added as it is: acc, a sum from
    0j, never holds -0.0, so acc + v and acc + (1+0j)*v have the same bits
    whenever the sum is finite, and a non-finite one stays non-finite.
    """
    roots = _embed_roots(q)
    m = len(A) // q
    blocks = [(t, A[t * m : (t + 1) * m]) for t in range(q)]
    blocks = [(t, block) for t, block in blocks if any(block)]
    out = [0j] * len(A)
    for k in range(q):
        acc = [0j] * m
        for t, block in blocks:
            e = sign * k * t % q
            if e:
                root = roots[e]
                acc = [a + root * v for a, v in zip(acc, block)]
            else:
                acc = list(map(operator.add, acc, block))
        out[k::q] = acc
    return out


def _lattice_pass(A: list, q: int, sign: int, outputs: int | None = None) -> list:
    """One length-q transform out[k] = sum_t x**(sign*k*t) * in[t] on the lattice.

    A is indexed (j, r, t): the coefficient of x**j at position r*q + t.
    Column t, A[t::q], is then indexed (j, r), and multiplying all of it by
    x**e rotates it by e*n places (n = len(A) / q**2), so the loops only
    slice and add ints.  The result is indexed (i, k, r): the transformed
    coordinate moves to the front of the position, and d passes over a
    d-dimensional grid bring it back to lexicographic order.  Given
    ``outputs``, only out[k] for k < outputs is computed, the rest left 0.
    Entries may also be complex: the pass only slices and sums, each sum
    from int 0 over the columns in increasing t, and the complex mass run
    and back-projection run it on complex values as they are.
    """
    m = len(A) // q
    n = m // q
    cols = []  # (t, column t doubled, so that every rotation is one slice)
    for t in range(q):
        col = A[t::q]
        if any(col):
            cols.append((t, col + col))
    out = [0] * len(A)
    for k in range(q if outputs is None else outputs):
        rows = []
        for t, w in cols:
            start = m - sign * k * t % q * n
            rows.append(w[start : start + m])
        if not rows:
            continue
        acc = list(map(sum, zip(*rows)))
        for i in range(q):
            out[(i * q + k) * n : (i * q + k + 1) * n] = acc[i * n : (i + 1) * n]
    return out


def _walsh(A: list, passes: int) -> list:
    """The Walsh-Hadamard transform over Z along the last ``passes``
    coordinates of the positions of A, each in Z_2: the exact transform at
    p = 2, where zeta_2 = -1 and Q(zeta_2) = Q.  A pass splits A by the last
    coordinate into a = A[0::2] and b = A[1::2] and writes a + b, then
    a - b: the transformed coordinate moves to the front of the position,
    as in ``_lattice_pass``, so ``passes`` passes leave positions
    (k_1, ..., k_passes, a).  Its ints are those of the lattice passes
    reduced to the power basis, x -> -1, and either sign."""
    for _ in range(passes):
        a, b = A[0::2], A[1::2]
        A = list(map(operator.add, a, b))
        A += map(operator.sub, a, b)
    return A


def _width(kind: str, ambient) -> int:
    """Coordinates per exact value of ``kind``: phi(q) for a cyclotomic
    value, one for a rational value."""
    q = ambient.modulus
    return q - q // ambient.p if kind == CYCLOTOMIC else 1


def _encode(values, ambient, kind: str):
    """(L, cols): exact ``values`` of ``kind`` on the lattice Z[x]/(x**q - 1),
    the one place a value is scaled onto it.  The values are scaled by the
    lcm L of every coefficient denominator, and cols[c][i] is L times
    coordinate c of values[i]: its phi power-basis coordinates for a
    cyclotomic value, the single one of a rational value.
    """
    width = _width(kind, ambient)
    if kind == CYCLOTOMIC:
        values = [c for v in values for c in v.coeffs]
    ratios = [c.as_integer_ratio() for c in values]
    L = math.lcm(*{den for _, den in ratios})
    ints = [num * (L // den) for num, den in ratios]
    return L, [ints[c::width] for c in range(width)]


def _decode(kind: str, cols, den: int, ambient) -> list:
    """The exact values of lattice columns, the one place they turn back
    into values.  cols[c][i] is coordinate c of value i: its power-basis
    coordinates for a cyclotomic value, one coordinate for a rational one.
    Each is divided by den, and each distinct Fraction is built once.
    """
    memo = {0: ZERO}

    def frac(c):
        value = memo.get(c)
        if value is None:
            value = memo[c] = Fraction(c, den)
        return value

    if kind == CYCLOTOMIC:
        p, ell = ambient.p, ambient.ell
        return [Cyclotomic._make(p, ell, tuple(map(frac, row))) for row in zip(*cols)]
    return list(map(frac, cols[0]))


# Grid functions are built from columns here, and other modules build them through it.
_from_lattice = GridFunction._from_lattice


def _lattice_of(held: Values):
    """(den, cols): the values on the lattice, cols[c][i] / den coordinate c
    of value i.  Complex values enter as they are, one column over 1."""
    if held.kind == COMPLEX:
        return 1, [held.values]
    return held._den, held._cols


def _columns(held: Values, factor: int, width: int) -> list:
    """The coordinate columns of exact values, each times ``factor``,
    padded with zero columns to ``width``."""
    cols = held._cols
    if factor != 1:
        cols = [map(factor.__mul__, col) for col in cols]
    return cols + [(0,) * len(held)] * (width - len(cols))


def _agreement(f: Values, g: Values):
    """Per value, whether f and g hold the same one.  Exact values compare
    their coordinates, the narrower padded with zero columns: over one
    denominator as they are, else columns a/da and b/db as a*db and b*da.
    Complex ones compare their values promoted to complex."""
    if COMPLEX in (f.kind, g.kind):
        return map(operator.eq, *(Values(h.ambient, COMPLEX, h.values).values for h in (f, g)))
    da, db = f._den, g._den
    fa, fb = (db, da) if da != db else (1, 1)
    width = max(_width(f.kind, f.ambient), _width(g.kind, g.ambient))
    return map(operator.eq, zip(*_columns(f, fa, width)), zip(*_columns(g, fb, width)))


def _power_basis(planes: list, p: int) -> list:
    """The phi power-basis planes of q planes of Z[x]/(x**q - 1), reduced
    whole: modulo 1 + x**s + ... + x**((p-1)*s), s = q/p, x**(phi + r) is
    -(x**r + x**(r+s) + ... + x**(r+(p-2)*s)) for r < s, so coordinate j
    is plane j minus plane phi + (j mod s)."""
    q = len(planes)
    step = q // p
    phi = q - step
    return [list(map(operator.sub, planes[j], planes[phi + j % step])) for j in range(phi)]


@lru_cache(maxsize=None)
def _line_points(p: int, d: int) -> tuple:
    """The point permutation of the forward fill on Z_p**d: entry i is the
    place of point i in [0] + [c*s_k for c in 1..p-1 for each line k], the
    lines in canonical order.  Built from index arithmetic alone: at scale
    c, point (0, ..., 0, 1, m'') goes to c*p**(e-1) + index(c*m'')."""
    order = [0] * p ** d
    n = (p ** d - 1) // (p - 1)
    for c in range(1, p):
        scaled, place = [0], 1 + (c - 1) * n  # scaled[i]: index of c*x, x = point i
        for e in range(d):
            low = p ** e
            for i, s in enumerate(scaled, start=place):
                order[c * low + s] = i
            place += low
            scaled = [c * a % p * low + s for a in range(p) for s in scaled]
    return tuple(order)


def _filled(f: GridFunction, planes: list) -> GridFunction:
    """The exact forward transform of a rational f on Z_p**d, over L*N,
    from the planes of its line run: F(c*s) is the sum over t of
    m_{s,t} * zeta**(-c*t), whose power-basis coordinate j is
    m_{s,-j/c} - m_{s,-(p-1)/c}, and F(0) is the total mass.  Each column
    is made line by line at each scale c and placed by ``_line_points``."""
    ambient = f.ambient
    p, d = ambient.p, ambient.d
    place = operator.itemgetter(*_line_points(p, d))
    invs = [pow(c, -1, p) for c in range(1, p)]
    cols = []
    for j in range(p - 1):
        made = [sum(plane[0] for plane in planes) if j == 0 else 0]
        for inv in invs:
            made += map(operator.sub, planes[-j * inv % p], planes[inv])
        cols.append(list(place(made)))
    return _from_lattice(ambient, cols, f._den * ambient.size, CYCLOTOMIC)


class _Lattice:
    """Exact values on Z_m**d, m != 2: the axis passes of ``_lattice_pass``
    on planes of Z[x]/(x**q - 1), reduced to the power basis.  The line run
    on Z_p**d (``planes``) gives G(s) = sum_x f(x) * X**(x.s), whose
    coefficient of X**t is the mass m_{s,t}, at the (p**d - 1)/(p - 1) line
    representatives s only: about (d - 1)*p*N additions per coordinate,
    where d passes over all directions took d*N*p*p.  A rational f on Z_p**d
    has its spectrum filled from that run (``_filled``); cyclotomic values
    and the ring grids take the d passes, whose fill would save little."""

    def transform(cols, ambient, passes: int, sign: int) -> list:
        """The columns laid end to end as planes, zero-padded to q, the
        passes run and the q planes reduced to the phi power-basis ones."""
        q, n = ambient.modulus, len(cols[0])
        A = list(chain.from_iterable(cols))
        A += [0] * (q * n - len(A))
        for _ in range(passes):
            A = _lattice_pass(A, q, sign)
        return _power_basis([A[j * n : (j + 1) * n] for j in range(q)], ambient.p)

    def shares(f) -> bool:
        """A rational f on Z_p**d: the rational fill."""
        return f.kind == RATIONAL and f.ambient.ell == 1

    def spectrum(f) -> tuple:
        if _Lattice.shares(f):
            planes = _Lattice.planes(f._cols, f.ambient)
            return _filled(f, planes), planes
        cols = _Lattice.transform(f._cols, f.ambient, f.ambient.d, -1)
        return _from_lattice(f.ambient, cols, f._den * f.ambient.size, CYCLOTOMIC), None

    def planes(cols, ambient) -> list:
        """The line run: planes[t][k*width + c] is coordinate c of the mass
        m_{s_k,t}, s_k the k-th line representative in canonical order, of
        the values with lattice columns ``cols``, laid end to end as planes
        in A (A[c*N + i]).

        The representatives (1, m') are served by cutting the points by
        their first coordinate a: slice a goes in at X**a, as
        x.s = a + x'.m', and d - 1 passes (sign +1) leave the masses of
        every (1, m') at position m'.  The representatives (0, s') are those
        of Z_p**(d-1), whose masses are those of the sum of the slices, one
        dimension down.  A level of n*p points lays its slices out as
        B[a*width*n + c*n + i'] and reads m_{(1,m'),t} at
        B[t*width*n + index(m')*width + c]; the levels are listed deepest
        first, which is the canonical order."""
        p, d = ambient.p, ambient.d
        width, A = len(cols), list(chain.from_iterable(cols))
        levels = []
        for e in range(d, 0, -1):
            n = p ** (e - 1)
            plane = width * n
            B = []
            for a in range(p):
                for c in range(width):
                    B += A[(c * p + a) * n : (c * p + a + 1) * n]
            if e > 1:  # the slices summed: the values one dimension down
                A = B[:plane]
                for a in range(1, p):
                    A = list(map(operator.add, A, B[a * plane : (a + 1) * plane]))
            for _ in range(e - 1):
                B = _lattice_pass(B, p, +1)
            levels.append((plane, B))
        planes = [[] for _ in range(p)]
        for plane, B in reversed(levels):
            for t in range(p):
                planes[t] += B[t * plane : (t + 1) * plane]
        return planes

    def points(ambient, lines) -> list:
        """Per line, (n, j) for its representative (0, ..., 0, 1, m''),
        m'' on Z_p**(e-1): n = p**(e-1) and j = index(m''), the
        representative's point index being n + j.  Its place in canonical
        order is (n - 1)/(p - 1) + j, the lines of lower levels coming
        before it."""
        tops = [ambient.p ** (ambient.d - 1 - line.rep.index(1)) for line in lines]
        return [(n, ambient.index_of(line.rep) - n) for n, line in zip(tops, lines)]

    def cells(ambient, planes, lines) -> list:
        p = ambient.p
        width = len(planes[0]) // line_count(ambient)
        at = [((n - 1) // (p - 1) + j) * width for n, j in _Lattice.points(ambient, lines)]
        return [[planes[t][i + c] for i in at for t in range(p)] for c in range(width)]

    def back_project(ambient, lines, cols) -> list:
        """The lines (0, ..., 0, 1, m'') with m'' on Z_p**(e-1) make one
        level: value i*p + t goes in at X**(-t) and position m'', and e - 1
        passes leave the sum at x = (a, x'') at power -a and position x''.
        A level's sums are added to those of the levels below it, each
        repeated for every a.  Complex values keep the run's float sums."""
        p, d, width = ambient.p, ambient.d, len(cols)
        levels = {}  # p**(e-1) -> [(index of m'', i)]
        for i, (n, j) in enumerate(_Lattice.points(ambient, lines)):
            levels.setdefault(n, []).append((j, i))
        out = None
        for e in range(1, d + 1):
            n = p ** (e - 1)
            plane = width * n
            if n in levels:
                A = [0] * (p * plane)
                for c, col in enumerate(cols):
                    for t in range(p):  # coordinate c of value i*p + t at A[base + index(m'')]
                        base = -t % p * plane + c * n
                        for j, i in levels[n]:
                            A[base + j] = col[i * p + t]
                for _ in range(e - 1):
                    A = _lattice_pass(A, p, +1)
                B = []
                for a in range(p):
                    B += A[-a % p * plane : (-a % p + 1) * plane]
                out = B if out is None else list(map(operator.add, B, out * p))
            elif out is not None:
                out = out * p
        if out is None:
            return [[0] * ambient.size] * width
        return [out[c::width] for c in range(width)]  # the sums at x lie at x*width + c


_BITS = bytes.maketrans(b"\0\1", b"01")


class _Walsh:
    """Exact values on Z_2**d, where zeta_2 = -1 and Q(zeta_2) = Q: a value
    has one coordinate, and the passes reduced to the power basis are the
    Walsh-Hadamard transform W over Z (``_walsh``).  W is the spectrum (over
    L*N) and the run the masses are read from: m_{s,0} and m_{s,1} are
    (T + W(s))/2 and (T - W(s))/2, T = W(0) the total, at the requested
    lines only.  A representative's point index is its bits in base 2."""

    def transform(cols, ambient, passes: int, sign: int) -> list:
        return [_walsh(cols[0], passes)]  # the same ints for either sign

    def shares(f) -> bool:
        return True

    def spectrum(f) -> tuple:
        W = _Walsh.planes(f._cols, f.ambient)
        return _from_lattice(f.ambient, [W], f._den * f.ambient.size, CYCLOTOMIC), W

    def planes(cols, ambient) -> list:
        return _walsh(cols[0], ambient.d)

    def points(ambient, lines) -> list:
        return [int(bytes(line.rep).translate(_BITS), 2) for line in lines]

    def cells(ambient, W, lines) -> list:
        total = W[0]
        return [[m for i in _Walsh.points(ambient, lines)
                 for m in ((total + W[i]) // 2, (total - W[i]) // 2)]]

    def back_project(ambient, lines, cols) -> list:
        """Int columns: value 2i + t, at the points x with x.s_i = t, is
        (r_{i,0} + r_{i,1})/2 + (-1)**(x.s_i) * (r_{i,0} - r_{i,1})/2, so the
        sum at x is half of S, the sum of all values, plus W at x of D, the
        differences placed at the representatives' points."""
        N, width = ambient.size, len(cols)
        D = [0] * (width * N)  # D[c*N + index(s_i)], laid out as planes
        for c, col in enumerate(cols):
            for i, a, b in zip(_Walsh.points(ambient, lines), col[0::2], col[1::2]):
                D[c * N + i] += a - b
        out = [(s + w) // 2 for s, w in zip(cycle(map(sum, cols)), _walsh(D, ambient.d))]
        return [out[c::width] for c in range(width)]


class _Complex:
    """Complex values on any grid, whose runs keep their float sums (the
    root table's exp(pi*i) is -1 + 1.2e-16j, not -1): d ``_complex_pass``
    calls; the masses of the d-pass mass run, every value at power 0 of p
    planes and d ``_lattice_pass`` calls (sign +1), not of the line run,
    which adds the same floats in another order; the lattice's
    back-projection, on complex values as they are."""

    def transform(cols, ambient, passes: int, sign: int) -> list:
        (A,) = cols
        for _ in range(passes):
            A = _complex_pass(A, ambient.modulus, sign)
        return [A]

    def shares(f) -> bool:
        return False

    def spectrum(f) -> tuple:
        ambient = f.ambient
        (vals,) = _Complex.transform([f.values], ambient, ambient.d, -1)
        scale = 1.0 / ambient.size
        return GridFunction(ambient, COMPLEX, [v * scale for v in vals]), None

    def planes(cols, ambient) -> list:
        """A[t*N + index(s)] = m_{s,t} of the N = p**d complex values of
        ``cols`` at every s whose first coordinate is 0 or 1, which every
        line representative's is: the sums of the d-pass mass run, made
        only where they are read.

        Only plane 0 of the first pass is nonzero, so its output k = 0 has
        plane 0 the sum, in increasing t, of the nonzero columns f(., t),
        and output k != 0 has plane k*t the column plus int 0, ``sum`` over
        one nonzero term; the other planes are 0.  The passes between run
        whole, and the last computes k = 0 and k = 1 only.  The int-zero
        terms the full run adds change no bit: a ``sum`` from int 0 never
        holds -0.0, and adding 0 to it leaves it as it is."""
        (values,), p, d = cols, ambient.p, ambient.d
        N = len(values)
        n = N // p
        sliced = [(t, values[t::p]) for t in range(p)]
        sliced = [(t, col) for t, col in sliced if any(col)]
        A = [0] * (p * N)
        if sliced:
            A[:n] = map(sum, zip(*[col for _, col in sliced]))
        for k in range(1, p):
            for t, col in sliced:
                at = (k * t % p * p + k) * n
                A[at : at + n] = [0 + v for v in col]
        for e in range(1, d):
            A = _lattice_pass(A, p, +1, 2 if e == d - 1 else None)
        return A

    def points(ambient, lines) -> list:
        return [ambient.index_of(line.rep) for line in lines]

    def cells(ambient, A, lines) -> list:
        N, p = ambient.size, ambient.p
        masses = [A[t * N + i] for i in _Complex.points(ambient, lines) for t in range(p)]
        if not all(map(cmath.isfinite, masses)):
            raise ValueError(_NOT_FINITE)
        return [masses]

    back_project = _Lattice.back_project


def _kernel(ambient, kind: str):
    """The one choice of run on a grid: ``_Complex`` for complex values,
    ``_Walsh`` for exact values on Z_2**d, ``_Lattice`` otherwise."""
    if kind == COMPLEX:
        return _Complex
    return _Walsh if ambient.modulus == 2 else _Lattice


def _exact_transform(cols, ambient, passes: int, sign: int) -> list:
    """The exact transform (sign -1 forward, +1 inverse) along the last
    ``passes`` coordinates of the positions (a, t_1, ..., t_passes) of the
    values with lattice columns ``cols``, every t in Z_q, by the grid's
    exact kernel.  The output positions are (k_1, ..., k_passes, a), the
    lexicographic order when there is no a (a grid's transform); a has the
    parts of ``multiscale``, each one line of q values."""
    return _kernel(ambient, CYCLOTOMIC).transform(cols, ambient, passes, sign)


def _mass_columns(f: GridFunction, lines) -> tuple:
    """(den, cols): the masses of f in every direction of ``lines``, from
    one run, undecoded.  cols[c][i*p + t] / den is coordinate c of
    m_{s_i,t}, s_i = lines[i].rep, over f's own denominator (complex ones
    one column over 1, which must be finite)."""
    kernel, (den, cols) = _kernel(f.ambient, f.kind), _lattice_of(f)
    return den, kernel.cells(f.ambient, kernel.planes(cols, f.ambient), lines)


def _spectrum_and_masses(f: GridFunction) -> tuple:
    """(forward(f), masses), masses(lines) the (den, cols) of
    ``_mass_columns(f, lines)``: what a decomposition reads.  Where the
    kernel makes the spectrum from the run the masses are read off, one run
    serves both; elsewhere the spectrum is ``forward``'s."""
    kernel = _kernel(f.ambient, f.kind)
    if not kernel.shares(f):
        return forward(f), partial(_mass_columns, f)
    F, run = kernel.spectrum(f)
    return F, lambda lines: (f._den, kernel.cells(f.ambient, run, lines))


def _back_project(ambient, lines, cols) -> list:
    """The columns of the sums, per point x, over i of the values i*p + x.s_i
    of the int or complex columns ``cols``, s_i = lines[i].rep, for any
    lines in any order: the line run transposed."""
    exact = all(isinstance(v, int) for v in cols[0][:1])
    return _kernel(ambient, RATIONAL if exact else COMPLEX).back_project(ambient, lines, cols)


def _traces(p: int, cols) -> list:
    """The one column whose value i*p + u is Tr(z_i * zeta**u), for z_i in
    Q(zeta_p) with power-basis coordinates e = (cols[0][i], cols[1][i], ...):
    Tr(zeta**k) is p - 1 at k = 0 mod p, else -1, so p*e_(-u) - sum(e)."""
    ext = [((*e, 0), sum(e)) for e in zip(*cols)]
    return [[p * e[-u % p] - total for e, total in ext for u in range(p)]]


def forward(f: GridFunction) -> GridFunction:
    """The normalized transform; exact over Q(zeta) for exact inputs."""
    return _kernel(f.ambient, f.kind).spectrum(f)[0]


@lru_cache(maxsize=None)
def _point_spectra(ambient) -> tuple:
    """The table of point spectra: entry x is the columns of
    forward(delta_x) times N laid end to end, the power-basis coordinate c
    of zeta**(-x.m) at c*N + m; built from the labels ``dots`` in one pass,
    with no transform."""
    q = ambient.modulus
    ext = [[int(e == -u % q) for u in range(q)] for e in range(q)]  # plane e of zeta**(-u)
    powers = _power_basis(ext, ambient.p)  # powers[c][u]: coordinate c of zeta**(-u)
    return tuple(
        [col[u] for col in powers for u in dots(ambient, x)] for x in ambient.points()
    )


def set_spectrum(ambient, members) -> GridFunction:
    """The spectrum of the indicator of ``members``, columns and denominator
    those of ``forward(GridFunction.indicator(ambient, members))``.

    The first sets asked for on a grid are transformed.  Once the
    transforms run there, N * d * q * width coefficient operations each,
    add up to the N**2 * width ints of the table of point spectra, the
    table is built, and the columns of every later set are its entries summed
    over the members.  A grid whose table would exceed the memory cap
    ``MAX_SET_SPECTRUM_TABLE`` gets no table, and its indicators are
    always transformed.
    """
    return _set_spectrum(ambient, point_set(ambient, members))


# Sets transformed per grid by _set_spectrum: the rent paid towards the table.
_set_transforms = Counter()


def _set_spectrum(ambient, members: frozenset) -> GridFunction:
    """``set_spectrum`` of members that have passed ``point_set``."""
    N, q = ambient.size, ambient.modulus
    width = _width(CYCLOTOMIC, ambient)
    if N * N * width <= MAX_SET_SPECTRUM_TABLE and _set_transforms[ambient] * ambient.d * q >= N:
        if not members:
            return _from_lattice(ambient, [[0] * N] * width, N, CYCLOTOMIC)
        table = _point_spectra(ambient)
        sums = list(map(sum, zip(*[table[ambient.index_of(x)] for x in members])))
        return _from_lattice(ambient, [sums[c * N : (c + 1) * N] for c in range(width)], N, CYCLOTOMIC)
    _set_transforms[ambient] += 1
    col = [int(x in members) for x in ambient.points()]
    return forward(_from_lattice(ambient, [col], 1, RATIONAL))


def forward_naive(f: GridFunction) -> GridFunction:
    """Quadratic reference transform, kept as the differential-testing oracle."""
    ambient = f.ambient
    q = ambient.modulus
    pts = ambient.points()
    if f.kind == COMPLEX:
        roots = _embed_roots(q)
        out = []
        for m in pts:
            acc = 0j
            for x, v in zip(pts, f.values):
                if v:
                    acc += roots[-dot(x, m, q) % q] * v
            out.append(acc / ambient.size)
        return GridFunction(ambient, COMPLEX, out)
    src = f.to_cyclotomic().values
    scale = Fraction(1, ambient.size)
    out = []
    for m in pts:
        acc = Cyclotomic.zero(ambient.p, ambient.ell)
        for x, v in zip(pts, src):
            if not v.is_zero():
                acc = acc + v.mul_zeta(-dot(x, m, q))
        out.append(acc.scale(scale))
    return GridFunction(ambient, CYCLOTOMIC, out)


def inverse(F: GridFunction) -> GridFunction:
    """Inverse transform; the result is demoted to rational scalars exactly
    when every cyclotomic coordinate above degree zero cancels."""
    ambient, (den, cols) = F.ambient, _lattice_of(F)
    cols = _kernel(ambient, F.kind).transform(cols, ambient, ambient.d, +1)
    return _from_lattice(ambient, cols, den, COMPLEX if F.kind == COMPLEX else None)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """(f * g)(x) = sum_y f(y) g(x - y)."""
    if f.ambient != g.ambient:
        raise ValueError("grid mismatch")
    ambient = f.ambient
    q = ambient.modulus
    kind = _join_kind(f.kind, g.kind)
    a, b = (GridFunction(ambient, kind, h.values).values for h in (f, g))
    pts = ambient.points()
    out = []
    for x in pts:
        acc = 0
        for y, fy in zip(pts, a):
            if fy:
                acc = acc + fy * b[ambient.index_of(vsub(x, y, q))]
        out.append(acc)
    return GridFunction(ambient, kind, out)


def phase(ambient, x: Point) -> GridFunction:
    """The phase function m -> chi(-x.m), exact over Q(zeta)."""
    q = ambient.modulus
    vals = [Cyclotomic.zeta(ambient.p, -u % q, ambient.ell) for u in dots(ambient, x)]
    return GridFunction(ambient, CYCLOTOMIC, vals)


def transform_subspace(V: Subspace) -> GridFunction:
    """Closed form: the transform of 1_V is (|V|/q**d) * 1_{V perp}."""
    ambient = V.ambient
    w = Fraction(ambient.p ** V.dim, ambient.size)
    Vp = perp(V)
    vals = [
        Cyclotomic.from_rational(ambient.p, w if Vp.contains(m) else ZERO, ambient.ell)
        for m in ambient.points()
    ]
    return GridFunction(ambient, CYCLOTOMIC, vals)


def transform_affine(V: Subspace, x: Point) -> GridFunction:
    """Closed form: the transform of 1_{V+x} is (|V|/q**d) * chi(-x.m) * 1_{V perp}."""
    ambient = V.ambient
    q = ambient.modulus
    w = Fraction(ambient.p ** V.dim, ambient.size)
    Vp = perp(V)
    zero = Cyclotomic.zero(ambient.p, ambient.ell)
    vals = [
        Cyclotomic.zeta(ambient.p, -u % q, ambient.ell).scale(w) if Vp.contains(m) else zero
        for m, u in zip(ambient.points(), dots(ambient, x))
    ]
    return GridFunction(ambient, CYCLOTOMIC, vals)
