"""Reference arithmetic for the benchmark, written without charkit.

The checks in ``refcheck`` compare charkit's outputs with values computed
here, so nothing in this module may import charkit: a change to the
program under test must not be able to change its own reference.

Exact scalars are integer coefficient vectors on the power basis of
Q(zeta_q), q = p**ell, over one common denominator per function, so the
inner loops add Python ints instead of Fractions.  Points are enumerated in
lexicographic order, the order of every dense array in the function files.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from math import lcm


def degree(p: int, ell: int) -> int:
    """phi(p**ell), the length of the power basis."""
    return p ** (ell - 1) * (p - 1)


def points(q: int, d: int) -> list:
    return list(itertools.product(range(q), repeat=d))


def dots(q: int, d: int, m) -> list:
    """x.m mod q for every point x, in lexicographic order, in O(q**d)."""
    out = [0]
    for i in range(d):
        step = [t * m[i] for t in range(q)]
        out = [a + c for a in out for c in step]
    return [t % q for t in out]


def lines(p: int, d: int) -> list:
    """Canonical line representatives (first nonzero coordinate 1), sorted."""
    reps = []
    for lead in range(d):
        for tail in itertools.product(range(p), repeat=d - 1 - lead):
            reps.append((0,) * lead + (1,) + tail)
    return sorted(reps)


def reduce_ext(ext, p: int, ell: int) -> list:
    """Reduce coefficients of 1, x, ..., x**(q-1) modulo the q-th cyclotomic
    polynomial 1 + x**s + ... + x**((p-1)*s), s = p**(ell-1)."""
    q = len(ext)
    step = q // p
    phi = q - step
    out = list(ext[:phi])
    for e in range(phi, q):
        c = ext[e]
        if c:
            for k in range(p - 1):
                out[e - phi + k * step] -= c
    return out


def common_scale(vectors) -> tuple:
    """(D, int vectors) with vectors[i][j] == ints[i][j] / D exactly."""
    den = 1
    for vec in vectors:
        for c in vec:
            den = lcm(den, Fraction(c).denominator)
    ints = [tuple(int(Fraction(c) * den) for c in vec) for vec in vectors]
    return den, ints


def char_sum(ints, den: int, p: int, ell: int, d: int, m, sign: int, norm: int) -> list:
    """Power-basis coordinates of norm**-1 * sum_x zeta**(sign*x.m) * v(x),
    v(x) = ints[x] / den, as a list of Fractions."""
    q = p ** ell
    ext = [0] * q
    for v, t in zip(ints, dots(q, d, m)):
        e = sign * t % q
        for j, c in enumerate(v):
            if c:
                ext[(j + e) % q] += c
    return [Fraction(c, den * norm) for c in reduce_ext(ext, p, ell)]


def complex_char_sum(values, q: int, d: int, m, sign: int, norm: int) -> complex:
    roots = [cmath.exp(2j * cmath.pi * e / q) for e in range(q)]
    acc = 0j
    for v, t in zip(values, dots(q, d, m)):
        acc += roots[sign * t % q] * v
    return acc / norm


def mass_row(values, ts, p: int, zero):
    """Direct scan: the p sums of the values over the hyperplanes x.s = t,
    given ts = dots(p, d, s)."""
    sums = [zero] * p
    for v, t in zip(values, ts):
        sums[t] += v
    return sums


# --- Z_{p**ell}**d geometry for the multiscale reference ----------------------


def valuation(n: int, p: int, ell: int) -> int:
    n %= p ** ell
    if n == 0:
        return ell
    j = 0
    while n % p == 0:
        n //= p
        j += 1
    return j


def vector_valuation(v, p: int, ell: int) -> int:
    return min(valuation(c, p, ell) for c in v)


def canonical_generator(v, p: int, ell: int) -> tuple:
    """Unit multiple of v whose first minimal-valuation coordinate is p**j."""
    q = p ** ell
    j = vector_valuation(v, p, ell)
    lead = next(c for c in v if valuation(c, p, ell) == j)
    inv = pow(lead // p ** j, -1, q)
    return tuple(inv * c % q for c in v)


def ring_lines(p: int, ell: int, d: int) -> list:
    """(generator, level, point set) for every cyclic line, generators sorted."""
    q = p ** ell
    gens = sorted({canonical_generator(v, p, ell) for v in points(q, d) if any(v)})
    out = []
    for g in gens:
        pts = frozenset(tuple(a * c % q for c in g) for a in range(q))
        out.append((g, ell - vector_valuation(g, p, ell), pts))
    return out
