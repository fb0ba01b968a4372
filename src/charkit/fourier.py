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

A value changes kind in one place, ``_coerce_value``, which the
``GridFunction`` constructor applies to every value: rational values
promote to cyclotomic or complex ones, cyclotomic values to complex ones
by ``complex(z)`` (the embedding), and complex values never go back.
``to_cyclotomic``, ``to_complex`` and arithmetic or equality with a
complex function promote by building a ``GridFunction`` of the joined
kind; exact arithmetic and equality work on the lattice rows (below).

Rational and cyclotomic inputs take the exact path over Q(zeta_q), complex
inputs the floating one.  Both run d passes of one shape, a length-q
transform per axis: a pass cuts the points into q slices by the coordinate
at one end of the position, skips all-zero slices, adds the rotated slices
in increasing order and moves the transformed coordinate to the other end,
so d passes restore the lexicographic order.  The complex pass
(``_complex_pass``) starts from the first coordinate and multiplies by the
roots exp(2*pi*i*e/q) of ``scalars._embed_roots``, the one root table,
which ``forward_naive`` and the floating eigenfunctions read too.

The exact path is an integer-lattice kernel in the style of Nussbaumer's
polynomial transforms, and this module is the one home of its format.  An
exact function holds it from construction: one int row per point over one
denominator, the phi power-basis coordinates of a cyclotomic value or the
one of a rational value.  ``_encode`` scales values onto rows by the lcm L
of their denominators; a run builds its result from rows
(``_from_lattice``), whose ``values`` ``_decode`` makes on the first read
only.  A run lays rows out as planes, A[c*N + i] = coordinate c of value i
(``_planes``): length-q int vectors in Z[x]/(x**q - 1), x standing for
zeta, where multiplying by zeta**e is a rotation, so the d axis passes
only add ints, N*d*q*q of them for N = q**d points, and each output value
is reduced to the power basis once.  ``forward`` leaves rows over L*N,
``inverse`` over L, rational exactly when every coordinate above degree
zero is zero.  The rows answer for the function: the zero mask, the
Galois action (x**j -> x**(r*j)), equality (cross-multiplied by the two
denominators), ``+`` and ``-`` (over the lcm of the two), ``take`` and the
transforms.  Every other module reads rows through ``_lattice_of``, builds
from them through ``_from_lattice`` and only lays out its runs.

``forward_naive`` is the quadratic double loop over ``Cyclotomic``
arithmetic, or complex arithmetic on the root table.  It shares no code
with either pass and is kept as the oracle that the tests compare them
with.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest

from .geometry import Point, Subspace, dilation_indices, dot, dots, perp, vsub
from .scalars import (
    DEFAULT_TOL,
    ZERO,
    Cyclotomic,
    _embed_roots,
    _galois_row,
    _reduce_ext,
    _unit_index,
    is_zero,
    zero_bound,
)

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
COMPLEX = "complex"

_KINDS = (RATIONAL, CYCLOTOMIC, COMPLEX)


def _coerce_value(kind: str, value, ambient):
    if kind == RATIONAL:
        return value if isinstance(value, Fraction) else Fraction(value)
    if kind == CYCLOTOMIC:
        if isinstance(value, Cyclotomic):
            if value.p != ambient.p or value.ell != ambient.ell:
                raise ValueError("cyclotomic value conductor does not match the grid")
            return value
        return Cyclotomic.from_rational(ambient.p, Fraction(value), ambient.ell)
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("complex values must be finite")
    return z


class GridFunction:
    """A dense function on the points of the grid, in lexicographic order.

    An exact function holds its lattice rows over one denominator from
    construction; ``values`` are the values it was built from, or decoded
    from its rows on the first read.  A complex function holds values alone."""

    __slots__ = ("ambient", "kind", "_values", "_rows", "_den")

    def __init__(self, ambient, kind: str, values):
        if kind not in _KINDS:
            raise ValueError(f"unknown scalar kind {kind!r}")
        values = tuple(_coerce_value(kind, v, ambient) for v in values)
        if len(values) != ambient.size:
            raise ValueError(
                f"need {ambient.size} values for this grid, got {len(values)}"
            )
        self.ambient = ambient
        self.kind = kind
        self._values = values
        if kind != COMPLEX:
            _, self._den, self._rows = _encode(values, ambient, kind)

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = tuple(_decode(self.kind, self._rows, self._den, self.ambient))
        return self._values

    @classmethod
    def constant(cls, ambient, value) -> "GridFunction":
        kind = _kind_of_scalar(value)
        return cls(ambient, kind, (value,) * ambient.size)

    @classmethod
    def indicator(cls, ambient, points) -> "GridFunction":
        members = {tuple(c % ambient.modulus for c in x) for x in points}
        vals = [ONE_F if x in members else ZERO for x in ambient.points()]
        return cls(ambient, RATIONAL, vals)

    @classmethod
    def delta(cls, ambient, point: Point, value=1) -> "GridFunction":
        kind = _kind_of_scalar(value)
        idx = ambient.index_of(point)
        vals = [value if i == idx else 0 for i in range(ambient.size)]
        return cls(ambient, kind, vals)

    def value_at(self, point: Point):
        return self.values[self.ambient.index_of(point)]

    def nonzero(self, tol: float = DEFAULT_TOL) -> tuple:
        """The one zero mask: whether each value is nonzero.  Exact values
        are read from the lattice rows; complex values follow the zero rule
        over all of them."""
        if self.kind != COMPLEX:
            return tuple(map(any, self._rows))
        bound = zero_bound(self.values, tol)
        return tuple(not is_zero(v, bound) for v in self.values)

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

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.ambient == other.ambient and all(_agreement(self, other))

    def galois(self, r: int) -> "GridFunction":
        """The image under zeta -> zeta**r of every value (r a unit mod q),
        computed on the lattice rows: x**j goes to x**(r*j), then one
        reduction per value."""
        if self.kind == COMPLEX:
            raise ValueError("the Galois action is defined on exact values")
        p, ell = self.ambient.p, self.ambient.ell
        r = _unit_index(p, ell, r)
        if r == 1 or self.kind == RATIONAL:
            return self
        rows = [_galois_row(p, ell, row, r) for row in self._rows]
        return _from_lattice(self.ambient, rows, self._den, CYCLOTOMIC, type(self))

    def dilate(self, r: int) -> "GridFunction":
        """The function x -> self(r*x)."""
        return self.take(self.ambient, dilation_indices(self.ambient, r % self.ambient.modulus))

    def take(self, ambient, src) -> "GridFunction":
        """The function on ``ambient`` whose value i is self's value src[i]."""
        if self.kind == COMPLEX:
            return type(self)(ambient, COMPLEX, [self.values[i] for i in src])
        rows = [self._rows[i] for i in src]
        return _from_lattice(ambient, rows, self._den, self.kind, type(self))

    def isclose(self, other: "GridFunction", tol: float = DEFAULT_TOL) -> bool:
        if self.ambient != other.ambient:
            return False
        a = self.to_complex().values
        b = other.to_complex().values
        bound = zero_bound(a + b, tol)
        return all(is_zero(x - y, bound) for x, y in zip(a, b))

    def _binop(self, other, op):
        """Pointwise op; exact functions combine their rows over the lcm of
        the two denominators, a rational row padded with zeros."""
        if not isinstance(other, GridFunction):
            return NotImplemented
        if self.ambient != other.ambient:
            raise ValueError("grid mismatch")
        kind = _join_kind(self.kind, other.kind)
        if kind == COMPLEX:
            a, b = self.to_complex().values, other.to_complex().values
            return GridFunction(self.ambient, kind, map(op, a, b))
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        rows = [
            tuple(op(x * sa, y * sb) for x, y in zip_longest(a, b, fillvalue=0))
            for a, b in zip(self._rows, other._rows)
        ]
        return _from_lattice(self.ambient, rows, den, kind)

    def __add__(self, other):
        return self._binop(other, operator.add)

    def __sub__(self, other):
        return self._binop(other, operator.sub)

    def __neg__(self):
        return self._binop(self, lambda x, _: -x)

    def scale(self, factor) -> "GridFunction":
        kind = _join_kind(self.kind, _kind_of_scalar(factor))
        vals = [_coerce_value(kind, v, self.ambient) for v in self.values]
        if kind == COMPLEX:  # an exact factor keeps its own product on exact values
            factor = _coerce_value(kind, factor, self.ambient)
        return GridFunction(self.ambient, kind, [factor * v for v in vals])

    def __repr__(self):
        return (
            f"GridFunction(p={self.ambient.p}, d={self.ambient.d}, "
            f"kind={self.kind}, {self.ambient.size} values)"
        )


class Spectrum(GridFunction):
    """A GridFunction tagged as living in the frequency domain."""


def vanishes_on(F: GridFunction, points, tol: float = DEFAULT_TOL) -> bool:
    """True when F is zero at every given point, by the zero mask: exactly
    for exact values, by the zero rule over all of F for complex ones."""
    nonzero = F.nonzero(tol)
    return not any(nonzero[F.ambient.index_of(x)] for x in points)


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
    over a d-dimensional grid bring it back to lexicographic order.
    """
    roots = _embed_roots(q)
    m = len(A) // q
    blocks = [(t, A[t * m : (t + 1) * m]) for t in range(q)]
    blocks = [(t, block) for t, block in blocks if any(block)]
    out = [0j] * len(A)
    for k in range(q):
        acc = [0j] * m
        for t, block in blocks:
            root = roots[sign * k * t % q]
            acc = [a + root * v for a, v in zip(acc, block)]
        out[k::q] = acc
    return out


def _lattice_pass(A: list, q: int, sign: int) -> list:
    """One length-q transform out[k] = sum_t x**(sign*k*t) * in[t] on the lattice.

    A is indexed (j, r, t): the coefficient of x**j at position r*q + t.
    Column t, A[t::q], is then indexed (j, r), and multiplying all of it by
    x**e rotates it by e*n places (n = len(A) / q**2), so the loops only
    slice and add ints.  The result is indexed (i, k, r): the transformed
    coordinate moves to the front of the position, and d passes over a
    d-dimensional grid bring it back to lexicographic order.  Entries may
    also be complex: the pass only slices and sums, and
    ``wavelets.mass_table`` runs it on complex values as they are.
    """
    m = len(A) // q
    n = m // q
    cols = []  # (t, column t doubled, so that every rotation is one slice)
    for t in range(q):
        col = A[t::q]
        if any(col):
            cols.append((t, col + col))
    out = [0] * len(A)
    for k in range(q):
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


def _encode(values, ambient, kind: str | None = None):
    """(kind, L, rows): ``values`` on the lattice Z[x]/(x**q - 1), the one
    place a value is scaled onto it.

    Without ``kind`` the values are promoted to the kind they join to;
    callers that hold values of one kind pass it.  Exact values are scaled
    by the lcm L of every coefficient denominator, and rows[i] holds L
    times the coordinates of values[i]: the phi power-basis coordinates of
    a cyclotomic value, the single one of a rational value.  Complex values
    enter as they are, one per row, with L = 1.
    """
    if kind is None:
        kind = _join_kind(*map(_kind_of_scalar, values))
        values = [_coerce_value(kind, v, ambient) for v in values]
    if kind == COMPLEX:
        return COMPLEX, 1, [(v,) for v in values]
    width = 1
    if kind == CYCLOTOMIC:
        width = ambient.modulus - ambient.modulus // ambient.p
        values = [c for v in values for c in v.coeffs]
    ratios = [c.as_integer_ratio() for c in values]
    L = math.lcm(*{den for _, den in ratios})
    ints = iter([num * (L // den) for num, den in ratios])
    return kind, L, list(zip(*[ints] * width))  # width ints per row


def _decode(kind: str, rows, den: int, ambient) -> list:
    """The values of lattice rows, the one place they turn back into values.

    Row i holds the coordinates of value i: its power-basis coordinates for
    a cyclotomic value, one coordinate for a rational or complex one.  Each
    is divided by den, and each distinct Fraction is built once.
    """
    if kind == COMPLEX:
        return [complex(row[0]) / den for row in rows]
    memo = {0: ZERO}

    def frac(c):
        value = memo.get(c)
        if value is None:
            value = memo[c] = Fraction(c, den)
        return value

    if kind == CYCLOTOMIC:
        p, ell = ambient.p, ambient.ell
        return [Cyclotomic._make(p, ell, tuple(map(frac, row))) for row in rows]
    return [frac(row[0]) for row in rows]


def _from_lattice(ambient, rows, den: int, kind: str | None = None, cls=GridFunction):
    """The exact function whose value i has the coordinates rows[i] / den,
    ``values`` undecoded until read.  Without ``kind`` the rows are demoted
    as an inverse transform's are: rational, one coordinate per row, exactly
    when every coordinate above degree zero is zero."""
    if kind is None:
        first, *higher = zip(*rows)
        kind = CYCLOTOMIC if any(map(any, higher)) else RATIONAL
        rows = rows if kind == CYCLOTOMIC else list(zip(first))
    f = object.__new__(cls)
    f.ambient, f.kind, f._values, f._rows, f._den = ambient, kind, None, rows, den
    return f


def _lattice_of(f: GridFunction):
    """(den, rows): f on the lattice, rows[i] / den the coordinates of value
    i.  Complex values enter as they are, one per row, over 1."""
    if f.kind == COMPLEX:
        return 1, [(v,) for v in f.values]
    return f._den, f._rows


def _planes(rows) -> list:
    """The rows laid out for a run: A[c*N + i] = rows[i][c], N = len(rows)."""
    return [c for col in zip(*rows) for c in col]


def _agreement(f: GridFunction, g: GridFunction):
    """Per point, whether f and g take the same value.  Exact functions
    compare their lattices, rows a/da and b/db as a*db == b*da with the
    shorter row padded by zeros; complex ones their promoted values."""
    if COMPLEX in (f.kind, g.kind):
        return map(operator.eq, f.to_complex().values, g.to_complex().values)
    (da, ra), (db, rb) = (f._den, f._rows), (g._den, g._rows)
    if da == db and len(ra[0]) == len(rb[0]):
        return map(operator.eq, ra, rb)
    return (
        all(x * db == y * da for x, y in zip_longest(a, b, fillvalue=0))
        for a, b in zip(ra, rb)
    )


def _exact_transform(rows, ambient, passes: int, sign: int) -> list:
    """The exact transform (sign -1 forward, +1 inverse) of the N =
    q**passes values with lattice rows ``rows``: their planes are
    zero-padded to q, the passes run, and each position is reduced to the
    power basis, one row of phi ints per position."""
    p, ell, q = ambient.p, ambient.ell, ambient.modulus
    A = _planes(rows)
    A += [0] * (q ** (passes + 1) - len(A))
    for _ in range(passes):
        A = _lattice_pass(A, q, sign)
    n = len(A) // q
    planes = [A[j * n : (j + 1) * n] for j in range(q)]
    return [_reduce_ext(p, ell, list(v)) for v in zip(*planes)]


def forward(f: GridFunction) -> Spectrum:
    """The normalized transform; exact over Q(zeta) for exact inputs."""
    ambient = f.ambient
    if f.kind == COMPLEX:
        vals = f.values
        for _ in range(ambient.d):
            vals = _complex_pass(vals, ambient.modulus, -1)
        scale = 1.0 / ambient.size
        return Spectrum(ambient, COMPLEX, [v * scale for v in vals])
    rows = _exact_transform(f._rows, ambient, ambient.d, -1)
    return _from_lattice(ambient, rows, f._den * ambient.size, CYCLOTOMIC, Spectrum)


def forward_naive(f: GridFunction) -> Spectrum:
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
        return Spectrum(ambient, COMPLEX, out)
    src = f.to_cyclotomic().values
    scale = Fraction(1, ambient.size)
    out = []
    for m in pts:
        acc = Cyclotomic.zero(ambient.p, ambient.ell)
        for x, v in zip(pts, src):
            if not v.is_zero():
                acc = acc + v.mul_zeta(-dot(x, m, q))
        out.append(acc.scale(scale))
    return Spectrum(ambient, CYCLOTOMIC, out)


def inverse(F: GridFunction) -> GridFunction:
    """Inverse transform; the result is demoted to rational scalars exactly
    when every cyclotomic coordinate above degree zero cancels."""
    ambient = F.ambient
    if F.kind == COMPLEX:
        vals = F.values
        for _ in range(ambient.d):
            vals = _complex_pass(vals, ambient.modulus, +1)
        return GridFunction(ambient, COMPLEX, vals)
    rows = _exact_transform(F._rows, ambient, ambient.d, +1)
    return _from_lattice(ambient, rows, F._den)


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


def transform_subspace(V: Subspace) -> Spectrum:
    """Closed form: the transform of 1_V is (|V|/q**d) * 1_{V perp}."""
    ambient = V.ambient
    w = Fraction(ambient.p ** V.dim, ambient.size)
    Vp = perp(V)
    vals = [
        Cyclotomic.from_rational(ambient.p, w if Vp.contains(m) else ZERO, ambient.ell)
        for m in ambient.points()
    ]
    return Spectrum(ambient, CYCLOTOMIC, vals)


def transform_affine(V: Subspace, x: Point) -> Spectrum:
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
    return Spectrum(ambient, CYCLOTOMIC, vals)
