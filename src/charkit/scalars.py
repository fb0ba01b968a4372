"""Exact scalar arithmetic: rationals, cyclotomic integers, complex embedding.

Rationals are plain ``fractions.Fraction`` (arbitrary precision, always
normalized).  ``Cyclotomic`` represents an element of Q(zeta) where
zeta = exp(2*pi*i / p**ell), stored as rational coordinates on the power
basis zeta**0 .. zeta**(phi-1) with phi = p**(ell-1) * (p-1).  The power
basis makes the representation unique, so ``is_zero`` is an exact test.
All three kinds speak Python's number protocol: ``complex(z)`` is the
embedding ``z.embed()``, ``not z`` tests for zero, and ``sum(values)``
starts from the int 0 on every kind.

Floating values follow one zero rule: v is zero when |v| <= tol * S, S the
largest magnitude among the values it is compared with (a whole spectrum,
both functions of a comparison, a mass table), so no floating verdict moves
when the values are scaled by s != 0.  :func:`zero_bound` computes tol * S
once per array, never for exact values; :func:`is_zero` compares with it.
``DEFAULT_TOL`` is a constant and only the default of tol.  A statement
whose spectral hypothesis was judged by this rule judges its conclusion on
the scale the hypothesis implies, :func:`implied_bound`.

The three scalar kinds a function's values may have are named here:
``RATIONAL``, ``CYCLOTOMIC`` and ``COMPLEX``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_TOL = 1e-9

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
COMPLEX = "complex"


def zero_bound(values, tol: float = DEFAULT_TOL) -> float:
    """tol * S, S the largest |v| of the values; 0.0 when none is floating.

    tol must be a positive finite number, the rule of the CLI's
    ``--tolerance``: a negative, zero or NaN tol would count every floating
    value as nonzero, and an infinite one every value as zero.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be a positive finite number, got {tol!r}")
    floating = not {complex, float}.isdisjoint(map(type, values))
    return tol * max(map(abs, values)) if floating else 0.0


def complex_close(a: complex, b: complex, tol: float = DEFAULT_TOL) -> bool:
    """|a - b| <= tol, the bound tol from :func:`zero_bound`."""
    return is_zero(complex(a) - complex(b), tol)


def is_zero(v, tol: float = DEFAULT_TOL) -> bool:
    """Exact for Cyclotomic and rational values, |v| <= tol (a bound) for floating ones."""
    if isinstance(v, Cyclotomic):
        return v.is_zero()
    if isinstance(v, (complex, float)):
        return abs(v) <= tol
    return v == 0


def implied_bound(spectrum, spread: int, tol: float = DEFAULT_TOL) -> float:
    """The bound on a floating conclusion that a spectral hypothesis implies:
    spread * tol * max|F|, F the spectrum whose zero rule judged the hypothesis.

    Each value of F that the rule calls zero has |F(m)| <= tol * max|F|.  A
    statement's proof writes the error of its conclusion (a difference of two
    values or masses, or a value that must vanish) as a sum of such values
    times weights of modulus at most w, over at most n of them; the spread
    is n * w, fixed by the proof, so no verdict moves when f is scaled.
    Under the normalized transform max|F| <= max|f|.  An exact spectrum
    gives 0.0 and none of its values is read: exact conclusions are tested
    exactly.
    """
    if spectrum.kind != COMPLEX:
        return 0.0
    return spread * zero_bound(spectrum.values, tol)


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (desk-scale moduli)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _degree(p: int, ell: int) -> int:
    return p ** (ell - 1) * (p - 1)


def _reduce_ext(p: int, ell: int, ext: list) -> tuple:
    """Reduce a coefficient vector indexed by exponents 0..q-1 to the power basis.

    Uses zeta**phi = -(zeta**r0 + zeta**(r0+step) + ... ) coming from the
    minimal polynomial 1 + x**step + x**(2*step) + ... + x**((p-1)*step)
    with step = p**(ell-1).
    """
    q = len(ext)
    step = q // p
    phi = q - step
    out = ext[:phi]
    for e in range(phi, q):
        c = ext[e]
        if c:
            r = e - phi
            for k in range(p - 1):
                out[r + k * step] -= c
    return tuple(out)


def _unit_index(p: int, ell: int, r: int) -> int:
    """r mod p**ell, checked to index an automorphism zeta -> zeta**r."""
    q = p ** ell
    r %= q
    if ell == 1 and not 1 <= r <= p - 1:
        raise ValueError(f"automorphism index must be in [1, {p - 1}], got {r}")
    if r == 0 or r % p == 0:
        raise ValueError(f"automorphism index must be a unit mod {q}, got {r}")
    return r


def _galois_row(p: int, ell: int, row, r: int) -> tuple:
    """The power-basis coordinates of sigma_r(z) from those of z, a
    Cyclotomic's Fractions: x**j goes to x**(r*j), then one reduction."""
    q = p ** ell
    ext = [ZERO] * q
    for j, c in enumerate(row):
        if c:
            ext[j * r % q] = c
    return _reduce_ext(p, ell, ext)


@lru_cache(maxsize=None)
def _zero_coeffs(p: int, ell: int) -> tuple:
    return (ZERO,) * _degree(p, ell)


@lru_cache(maxsize=None)
def _embed_roots(q: int) -> tuple:
    return tuple(cmath.exp(2j * cmath.pi * e / q) for e in range(q))


class Cyclotomic:
    """Exact element of Q(zeta), zeta = exp(2*pi*i/p**ell), on the power basis."""

    __slots__ = ("p", "ell", "coeffs")

    def __init__(self, p: int, coeffs, ell: int = 1):
        if not is_prime(p):
            raise ValueError(f"conductor base must be prime, got {p}")
        if ell < 1:
            raise ValueError(f"conductor exponent must be >= 1, got {ell}")
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != _degree(p, ell):
            raise ValueError(
                f"need {_degree(p, ell)} coefficients for conductor {p}**{ell}, "
                f"got {len(coeffs)}"
            )
        self.p = p
        self.ell = ell
        self.coeffs = coeffs

    @classmethod
    def _make(cls, p: int, ell: int, coeffs: tuple) -> "Cyclotomic":
        # Fast path for internal use: coeffs already a valid Fraction tuple.
        z = object.__new__(cls)
        z.p = p
        z.ell = ell
        z.coeffs = coeffs
        return z

    @classmethod
    def zero(cls, p: int, ell: int = 1) -> "Cyclotomic":
        return cls._make(p, ell, _zero_coeffs(p, ell))

    @classmethod
    def one(cls, p: int, ell: int = 1) -> "Cyclotomic":
        return cls.from_rational(p, ONE, ell)

    @classmethod
    def from_rational(cls, p: int, value, ell: int = 1) -> "Cyclotomic":
        value = value if isinstance(value, Fraction) else Fraction(value)
        coeffs = list(_zero_coeffs(p, ell))
        coeffs[0] = value
        return cls._make(p, ell, tuple(coeffs))

    @classmethod
    def zeta(cls, p: int, e: int = 1, ell: int = 1) -> "Cyclotomic":
        """zeta**e, reduced to the power basis."""
        q = p ** ell
        e %= q
        phi = _degree(p, ell)
        if e < phi:
            coeffs = list(_zero_coeffs(p, ell))
            coeffs[e] = ONE
            return cls._make(p, ell, tuple(coeffs))
        ext = [ZERO] * q
        ext[e] = ONE
        return cls._make(p, ell, _reduce_ext(p, ell, ext))

    @property
    def conductor(self) -> int:
        return self.p ** self.ell

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def rational_part(self):
        """The Fraction value when the element is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def _check_compatible(self, other: "Cyclotomic") -> None:
        if self.p != other.p or self.ell != other.ell:
            raise ValueError(
                f"conductor mismatch: {self.p}**{self.ell} vs {other.p}**{other.ell}"
            )

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.p, other, self.ell)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic._make(
            self.p, self.ell, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic._make(
            self.p, self.ell, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cyclotomic._make(self.p, self.ell, tuple(-a for a in self.coeffs))

    def scale(self, factor) -> "Cyclotomic":
        """Multiply by a rational scalar."""
        factor = factor if isinstance(factor, Fraction) else Fraction(factor)
        if factor == 1:
            return self
        return Cyclotomic._make(self.p, self.ell, tuple(a * factor for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check_compatible(other)
        q = self.conductor
        ext = [ZERO] * q
        for j1, c1 in enumerate(self.coeffs):
            if c1:
                for j2, c2 in enumerate(other.coeffs):
                    if c2:
                        ext[(j1 + j2) % q] += c1 * c2
        return Cyclotomic._make(self.p, self.ell, _reduce_ext(self.p, self.ell, ext))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def mul_zeta(self, e: int) -> "Cyclotomic":
        """Multiply by zeta**e, a shift of the power basis.  Only the oracle
        ``fourier.forward_naive`` calls it; the exact transform rotates
        lattice rows instead."""
        q = self.conductor
        e %= q
        if e == 0:
            return self
        ext = [ZERO] * q
        for j, c in enumerate(self.coeffs):
            if c:
                ext[(j + e) % q] = c
        return Cyclotomic._make(self.p, self.ell, _reduce_ext(self.p, self.ell, ext))

    def galois(self, r: int) -> "Cyclotomic":
        """Image under the field automorphism zeta -> zeta**r (r a unit mod conductor)."""
        r = _unit_index(self.p, self.ell, r)
        if r == 1:
            return self
        return Cyclotomic._make(
            self.p, self.ell, _galois_row(self.p, self.ell, self.coeffs, r)
        )

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.conductor - 1)

    def embed(self) -> complex:
        """Numerical value under zeta -> exp(2*pi*i/conductor)."""
        roots = _embed_roots(self.conductor)
        acc = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                acc += float(c) * roots[j]
        return acc

    __complex__ = embed

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.rational_part() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (
            self.p == other.p and self.ell == other.ell and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.ell, self.coeffs))

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                terms.append(str(c) if j == 0 else f"{c}*z^{j}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclotomic({self.p}^{self.ell}: {body})"


def rational_part(z):
    """Fraction value of z when it is rational (Cyclotomic or number), else None."""
    if isinstance(z, Cyclotomic):
        return z.rational_part()
    if isinstance(z, (int, Fraction)):
        return Fraction(z)
    return None
