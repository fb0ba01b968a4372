"""Combinatorial geometry of Z_m**d, m = p**ell: points, valuations, lines
through the origin and affine hyperplanes for every modulus; subspaces in
reduced echelon form, perpendiculars, compass sets and quadratic-residue
utilities on Z_p**d.

``Ambient(p, d, ell)`` is the one grid type.  Lines and hyperplanes are
computed modulo m: a vector of valuation j generates a line of p**(ell-j)
points, of level ell-j (at ell = 1, p points and level 1).  Echelon forms
need a field, so ``require_prime_grid`` rejects ring grids wherever
Z_p**d-only analysis starts.  Points are plain tuples of residues; the
lexicographic index of (x_0, ..., x_{d-1}) is sum(x_i * m**(d-1-i)), the
order of every dense array in the package.

This module is the one home of caller points, point order, line indices
and hyperplane labels.  ``grid_point`` turns every point, direction,
centre, offset and set member a caller passes into a grid point (its d
coordinates mod m) and refuses any other length; ``point_set`` does so for
a set.  ``line_indices`` holds the dense indices of every line's points,
once per grid, ``punctured_indices`` the same without the origin's in
one flat list, ``line_coordinates`` the coordinates of every canonical
generator in one flat list, ``dilation_indices`` the index of r*x for
every point, and
``dots`` the labels x.v of every point for a direction v.  Other modules
read them; only the references ``forward_naive``,
``masses`` and ``convolve`` keep their own arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import CapacityError, TheoremViolation
from .scalars import is_prime

Point = tuple[int, ...]

# Capacity guards for dense enumerations; generous for desk scale.
MAX_GRID_POINTS = 1 << 22
MAX_LINE_ENUMERATION = 1 << 20
MAX_SUBSPACE_ENUMERATION = 1 << 20
# Exhaustive verify suites visit all 2**N subsets of an N-point grid.  The
# largest allowed, (2,4) with 65,536 subsets, takes 2-4 s per suite.
MAX_SUBSET_ENUMERATION = 1 << 16
# The zpl suite scans all N points for each of the N - 1 nonzero directions.
# The largest allowed, (7,2,2) with 5.8M (direction, point) visits, takes 2 s.
MAX_DIRECTION_SCAN = 1 << 23
# A memory cap on the table of point spectra that fourier.set_spectrum sums
# a set's spectrum from: N**2 * width ints (width = phi(m)), 128 KiB of
# references at the cap.  A grid over it gets no table, and its indicators
# are always transformed.  The largest tables allowed are (2,7) and (7,2).
# tools/set_spectrum_sweep.py times both paths on each side of the cap.
MAX_SET_SPECTRUM_TABLE = 1 << 14


@dataclass(frozen=True)
class Ambient:
    """The grid Z_m**d, m = p**ell, for a prime p, ell >= 1 and d >= 1.

    ell = 1 is the prime field grid Z_p**d; ell > 1 is the ring grid of the
    multi-scale module.
    """

    p: int
    d: int
    ell: int = 1

    def __post_init__(self):
        for name, value in (("p", self.p), ("d", self.d), ("ell", self.ell)):
            if type(value) is not int:  # bools and floats are no grid sizes
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.ell < 1:
            raise ValueError(f"exponent must be >= 1, got {self.ell}")
        # A grid with p >= 2 has at least max(p, 2**(d*ell)) points, so one
        # with p or 2**(d*ell) above the limit is refused before the trial
        # division and the power, either of which could run for long.
        if self.p > 1 and (
            self.p > MAX_GRID_POINTS or self.d * self.ell >= MAX_GRID_POINTS.bit_length()
        ):
            raise CapacityError(
                f"grid of {self.p}**{self.d * self.ell} points exceeds the enumeration limit"
            )
        if not is_prime(self.p):
            raise ValueError(f"base modulus must be prime, got {self.p}")
        if self.size > MAX_GRID_POINTS:
            raise CapacityError(
                f"grid of {self.modulus}**{self.d} points exceeds the enumeration limit"
            )

    @cached_property
    def modulus(self) -> int:
        return self.p ** self.ell

    @cached_property
    def size(self) -> int:
        return self.modulus ** self.d

    def points(self) -> tuple:
        return _points_of(self.modulus, self.d)

    def index_of(self, point: Point) -> int:
        """The dense index of a grid point (no length check: it runs once per
        point in the library's loops)."""
        m = self.modulus
        idx = 0
        for c in point:
            idx = idx * m + c % m
        return idx

    def point_at(self, index: int) -> Point:
        m = self.modulus
        coords = [0] * self.d
        for i in range(self.d - 1, -1, -1):
            index, coords[i] = divmod(index, m)
        return tuple(coords)

    def origin(self) -> Point:
        return (0,) * self.d


@lru_cache(maxsize=None)
def _points_of(m: int, d: int) -> tuple:
    return tuple(itertools.product(range(m), repeat=d))


def vadd(u: Point, v: Point, m: int) -> Point:
    return tuple((a + b) % m for a, b in zip(u, v))


def vsub(u: Point, v: Point, m: int) -> Point:
    return tuple((a - b) % m for a, b in zip(u, v))


def vscale(c: int, u: Point, m: int) -> Point:
    return tuple(c * a % m for a in u)


def dot(u: Point, v: Point, m: int) -> int:
    return sum(a * b for a, b in zip(u, v)) % m


def translate_set(points, u: Point, m: int) -> frozenset:
    return frozenset(vadd(x, u, m) for x in points)


def grid_point(ambient: Ambient, v) -> Point:
    """The caller's vector v as a grid point: its coordinates mod m.  A vector
    that does not have d coordinates is refused."""
    if len(v) != ambient.d:
        raise ValueError(f"{tuple(v)} has {len(v)} coordinates, not d = {ambient.d}")
    m = ambient.modulus
    return tuple([c % m for c in v])  # a list builds faster than a generator


def point_set(ambient: Ambient, points) -> frozenset:
    """The given points as a set of grid points, each through ``grid_point``."""
    return frozenset(grid_point(ambient, x) for x in points)


def require_prime_grid(ambient: Ambient) -> None:
    """Reject a ring grid where an analysis needs the field Z_p."""
    if ambient.ell > 1:
        raise ValueError(
            "this analysis is defined on Z_p**d only, not on the ring grid "
            f"Z_{ambient.modulus}**{ambient.d}"
        )


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


def vector_valuation(ambient: Ambient, v: Point) -> int:
    """The least valuation of a coordinate of v; ell for the zero vector."""
    return valuation(ambient, math.gcd(ambient.modulus, *v))


@dataclass(frozen=True)
class ProjectiveLine:
    """A line through the origin, named by its canonical generator.

    The generator of a line of valuation j has p**j as its first coordinate
    of valuation j; at ell = 1 that is the first nonzero coordinate, equal
    to 1.  This fixes a deterministic enumeration order.
    """

    rep: Point

    def points(self, ambient: Ambient) -> tuple:
        # gcd(m, *rep) = p**j, and the line has m / p**j points
        m, rep = ambient.modulus, self.rep
        return tuple(vscale(t, rep, m) for t in range(m // math.gcd(m, *rep)))

    def punctured(self, ambient: Ambient) -> tuple:
        return self.points(ambient)[1:]

    def level(self, ambient: Ambient) -> int:
        """ell - j: the line has p**level points."""
        return ambient.ell - vector_valuation(ambient, self.rep)


def line_through(ambient: Ambient, v: Point) -> ProjectiveLine:
    """Canonical line containing the nonzero vector v.

    Two vectors generate the same line exactly when they differ by a unit
    factor; v is scaled by the unit that turns its first coordinate of least
    valuation j into p**j.
    """
    v = grid_point(ambient, v)
    m = ambient.modulus
    g = math.gcd(m, *v)  # p**j
    if g == m:
        raise ValueError("the zero vector spans no line")
    step = g * ambient.p
    lead = next(c for c in v if c % step)
    return ProjectiveLine(vscale(pow(lead // g, -1, m), v, m))


def line_count(ambient: Ambient) -> int:
    """(p**d - 1)/(p - 1) lines of level 1, times p**(k*(d-1)) at level k + 1."""
    p, d = ambient.p, ambient.d
    return (p ** d - 1) // (p - 1) * sum(p ** (k * (d - 1)) for k in range(ambient.ell))


@lru_cache(maxsize=None)
def _enumerate_lines(p: int, d: int, ell: int) -> tuple:
    # Generators of valuation j: coordinates before the lead p**j are
    # multiples of p**(j+1), those after it multiples of p**j.
    m = p ** ell
    reps = []
    for j in range(ell):
        pj = p ** j
        for lead in range(d):
            for head in itertools.product(range(0, m, pj * p), repeat=lead):
                for tail in itertools.product(range(0, m, pj), repeat=d - 1 - lead):
                    reps.append(head + (pj,) + tail)
    return tuple(ProjectiveLine(r) for r in sorted(reps))


def enumerate_lines(ambient: Ambient) -> tuple:
    """All lines through the origin, ordered lexicographically by generator."""
    count = line_count(ambient)
    if count > MAX_LINE_ENUMERATION:
        raise CapacityError(
            f"{count} lines exceed the enumeration limit {MAX_LINE_ENUMERATION}"
        )
    return _enumerate_lines(ambient.p, ambient.d, ambient.ell)


@lru_cache(maxsize=None)
def line_indices(ambient: Ambient) -> dict:
    """Each line of ``enumerate_lines``, in its order, mapped to the dense
    indices of t*rep for t = 0, 1, ..., |L|-1; index 0 is the origin."""
    return {
        line: tuple(map(ambient.index_of, line.points(ambient)))
        for line in enumerate_lines(ambient)
    }


@lru_cache(maxsize=None)
def line_coordinates(ambient: Ambient) -> tuple:
    """The coordinates of every generator of ``enumerate_lines``, line
    after line: the flat list of the directions that name the lines."""
    return tuple(itertools.chain.from_iterable(line.rep for line in enumerate_lines(ambient)))


@lru_cache(maxsize=None)
def punctured_indices(ambient: Ambient) -> tuple:
    """The indices of ``line_indices`` without the origin's, line after
    line: on a prime grid, p - 1 indices per line."""
    return tuple(itertools.chain.from_iterable(ix[1:] for ix in line_indices(ambient).values()))


@lru_cache(maxsize=None)
def dilation_indices(ambient: Ambient, r: int) -> tuple:
    """The dense index of r*x for every point x, in point order: on each
    line of ``line_indices``, t*rep goes to (r*t)*rep."""
    out = [0] * ambient.size
    for indices in line_indices(ambient).values():
        n = len(indices)
        for t, i in enumerate(indices):
            out[i] = indices[r * t % n]
    return tuple(out)


def dots(ambient: Ambient, v: Point) -> list:
    """x.v mod m for every x, in point order: the hyperplane labels of v."""
    m = ambient.modulus
    out = [0]
    for a in grid_point(ambient, v):
        out = [(s + t * a) % m for s in out for t in range(m)]
    return out


def hyperplane_points(ambient: Ambient, s: Point, t: int) -> frozenset:
    """The affine hyperplane {x : x.s = t mod m}; the values of t partition the grid."""
    s = grid_point(ambient, s)
    if not any(s):
        raise ValueError("hyperplane direction must be nonzero")
    t %= ambient.modulus
    return frozenset(x for x, u in zip(ambient.points(), dots(ambient, s)) if u == t)


def rref(rows, p: int):
    """Reduced row echelon form of rows of residues mod p.

    Returns (rows, pivot_columns) with zero rows dropped; the output is the
    canonical representative of the row space.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [c * inv % p for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by its reduced-echelon basis rows.

    Echelon form is canonical, so two subspaces are equal exactly when
    their row spaces coincide.
    """

    ambient: Ambient
    basis: tuple

    def __post_init__(self):
        require_prime_grid(self.ambient)

    @classmethod
    def span(cls, ambient: Ambient, vectors) -> "Subspace":
        rows, _ = rref([grid_point(ambient, v) for v in vectors], ambient.p)
        return cls(ambient, rows)

    @classmethod
    def zero(cls, ambient: Ambient) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: Ambient) -> "Subspace":
        eye = tuple(
            tuple(1 if j == i else 0 for j in range(ambient.d)) for i in range(ambient.d)
        )
        return cls(ambient, eye)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple:
        return tuple(row.index(1) for row in self.basis)

    def reduce(self, point: Point) -> Point:
        """Canonical coset representative of point + self, for a grid point
        (no length check: it runs once per point in the library's loops)."""
        p = self.ambient.p
        x = [c % p for c in point]
        for row in self.basis:
            piv = row.index(1)
            f = x[piv]
            if f:
                x = [(a - f * b) % p for a, b in zip(x, row)]
        return tuple(x)

    def contains(self, point: Point) -> bool:
        """Whether the grid point lies in the subspace."""
        return not any(self.reduce(point))

    def points(self) -> tuple:
        p = self.ambient.p
        d = self.ambient.d
        pts = []
        for coeffs in itertools.product(range(p), repeat=self.dim):
            v = [0] * d
            for c, row in zip(coeffs, self.basis):
                if c:
                    v = [(a + c * b) % p for a, b in zip(v, row)]
            pts.append(tuple(v))
        return tuple(pts)

    def nonzero_points(self) -> tuple:
        return tuple(x for x in self.points() if any(x))

    def extend(self, vector: Point) -> "Subspace":
        return Subspace.span(self.ambient, self.basis + (tuple(vector),))

    def __contains__(self, point) -> bool:
        return self.contains(point)


@dataclass(frozen=True)
class AffineSubspace:
    """A coset anchor + direction; the anchor is reduced against the direction
    so that equality of cosets is syntactic equality."""

    direction: Subspace
    anchor: Point

    def __post_init__(self):
        anchor = grid_point(self.direction.ambient, self.anchor)
        object.__setattr__(self, "anchor", self.direction.reduce(anchor))

    def points(self) -> tuple:
        m = self.direction.ambient.modulus
        return tuple(vadd(self.anchor, v, m) for v in self.direction.points())

    def contains(self, point: Point) -> bool:
        return self.direction.reduce(point) == self.anchor


def perp(V: Subspace) -> Subspace:
    """Dot-product orthocomplement {x : x.v = 0 for all v in V}."""
    ambient = V.ambient
    p, d = ambient.p, ambient.d
    if V.dim == 0:
        return Subspace.full(ambient)
    rows = V.basis
    pivots = V.pivots
    free_cols = [c for c in range(d) if c not in pivots]
    kernel = []
    for j in free_cols:
        vec = [0] * d
        vec[j] = 1
        for row, piv in zip(rows, pivots):
            vec[piv] = (-row[j]) % p
        kernel.append(tuple(vec))
    return Subspace.span(ambient, kernel)


def is_compass_set(ambient: Ambient, points) -> bool:
    """True when every vector of the grid is a scalar multiple of a member.

    Equivalently the set meets every line through the origin; the empty set
    is never a compass set for d >= 1.
    """
    pts = point_set(ambient, points)
    if not pts:
        return False
    covered = {line_through(ambient, x) for x in pts if any(x)}
    return len(covered) == line_count(ambient)


def quadratic_class(a: int, p: int) -> str:
    """Euler's criterion: "zero", "residue", or "non-residue"."""
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    a %= p
    if a == 0:
        return "zero"
    if p == 2 or pow(a, (p - 1) // 2, p) == 1:
        return "residue"
    return "non-residue"


def least_non_residue(p: int) -> int:
    """The smallest quadratic non-residue mod an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime: no least quadratic non-residue")
    return next(r for r in range(2, p) if quadratic_class(r, p) == "non-residue")


def sqrt_minus_one(p: int) -> int:
    """The smaller square root of -1 mod p; requires p = 1 mod 4."""
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"-1 is not a square mod {p}")
    for i in range(2, p):
        if i * i % p == p - 1:
            return i
    raise TheoremViolation("unreachable: a root exists for p = 1 mod 4")


def avoid_lines_subspace(ambient: Ambient, lines, k: int) -> Subspace:
    """A (k+1)-dimensional subspace whose nonzero points miss every given line.

    Requires 0 <= k < d and len(lines) < (p**(d-k) - 1) / (p - 1); a valid
    subspace then always exists and is found by growing a chain of
    subspaces, taking the first viable extension at every step.
    """
    p, d = ambient.p, ambient.d
    avoid = set(lines)
    if not 0 <= k < d:
        raise ValueError(f"need 0 <= k < d, got k={k}, d={d}")
    bound = (p ** (d - k) - 1) // (p - 1)
    if len(avoid) >= bound:
        raise ValueError(
            f"{len(avoid)} lines leave no guaranteed (k+1)-dim subspace "
            f"(bound {bound})"
        )
    current = Subspace.zero(ambient)
    for _ in range(k + 1):
        for cand in enumerate_lines(ambient):
            if current.contains(cand.rep):
                continue
            ext = current.extend(cand.rep)
            if all(
                line_through(ambient, x) not in avoid for x in ext.nonzero_points()
            ):
                current = ext
                break
        else:
            raise TheoremViolation("unreachable under the size precondition")
    return current


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over Z_p."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def enumerate_subspaces(ambient: Ambient, k: int):
    """Yield every k-dimensional subspace, via echelon forms with fixed pivots."""
    p, d = ambient.p, ambient.d
    total = gaussian_binomial(d, k, p)
    if total > MAX_SUBSPACE_ENUMERATION:
        raise CapacityError(
            f"{total} subspaces exceed the enumeration limit {MAX_SUBSPACE_ENUMERATION}"
        )
    if k == 0:
        yield Subspace.zero(ambient)
        return
    for pivots in itertools.combinations(range(d), k):
        pivot_set = set(pivots)
        free_cells = [
            (r, c)
            for r, pc in enumerate(pivots)
            for c in range(pc + 1, d)
            if c not in pivot_set
        ]
        for values in itertools.product(range(p), repeat=len(free_cells)):
            rows = [[0] * d for _ in range(k)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_cells, values):
                rows[r][c] = v
            yield Subspace(ambient, tuple(tuple(row) for row in rows))


def all_subspaces(ambient: Ambient):
    for k in range(ambient.d + 1):
        yield from enumerate_subspaces(ambient, k)
