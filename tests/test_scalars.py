import math
import random
import types
from fractions import Fraction

import pytest

from charkit.fourier import GridFunction, forward
from charkit.geometry import Ambient
from charkit.scalars import (
    COMPLEX,
    Cyclotomic,
    complex_close,
    implied_bound,
    is_prime,
    is_zero,
    rational_part,
    zero_bound,
)


def poly_mul_mod_oracle(p, a, b):
    """Naive oracle: multiply coefficient lists, fold x**p = 1, then divide by
    the minimal polynomial 1 + x + ... + x**(p-1).  Independent of the
    Cyclotomic internals."""
    prod = [Fraction(0)] * (2 * p)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            prod[i + j] += ca * cb
    folded = [Fraction(0)] * p
    for e, c in enumerate(prod):
        folded[e % p] += c
    # subtract c_{p-1} * (1 + x + ... + x**(p-1)), which is zero at zeta
    top = folded[p - 1]
    return tuple(folded[j] - top for j in range(p - 1))


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_zeta_squared_p3():
    z = Cyclotomic.zeta(3)
    assert (z * z).coeffs == (Fraction(-1), Fraction(-1))


def test_product_of_conjugate_factors_p3():
    one = Cyclotomic.one(3)
    assert (one + Cyclotomic.zeta(3)) * (one + Cyclotomic.zeta(3, 2)) == Fraction(1)


def test_p5_product_against_poly_oracle():
    u = Cyclotomic.zeta(5, 1) + Cyclotomic.zeta(5, 4)
    v = Cyclotomic.zeta(5, 2) + Cyclotomic.zeta(5, 3)
    got = (u * v).coeffs
    assert got == (Fraction(-1), 0, 0, 0)
    # cross-check the same product with the independent oracle
    a = [Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(1)][:4]
    # rebuild full-length exponent vectors for the oracle
    a_full = [Fraction(0)] * 5
    a_full[1] = a_full[4] = Fraction(1)
    b_full = [Fraction(0)] * 5
    b_full[2] = b_full[3] = Fraction(1)
    assert poly_mul_mod_oracle(5, a_full, b_full) == got


@pytest.mark.parametrize("p", [3, 5, 7])
def test_random_products_match_poly_oracle(p):
    rng = random.Random(100 + p)
    for _ in range(25):
        a = [Fraction(rng.randint(-5, 5)) for _ in range(p - 1)]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(p - 1)]
        za, zb = Cyclotomic(p, a), Cyclotomic(p, b)
        assert (za * zb).coeffs == poly_mul_mod_oracle(p, a + [Fraction(0)], b + [Fraction(0)])


def test_galois_examples():
    assert Cyclotomic.zeta(3).galois(2).coeffs == (Fraction(-1), Fraction(-1))
    z = Cyclotomic(5, [Fraction(1, 2), 3, 0, -1])
    assert z.galois(1) == z
    assert Cyclotomic.zeta(5).galois(2).galois(2) == Cyclotomic.zeta(5).galois(4)


def test_galois_is_a_homomorphism():
    rng = random.Random(4)
    for p in (5, 7):
        for _ in range(20):
            z = Cyclotomic(p, [Fraction(rng.randint(-4, 4)) for _ in range(p - 1)])
            r, s = rng.randint(1, p - 1), rng.randint(1, p - 1)
            assert z.galois(r).galois(s) == z.galois(r * s % p)


def test_galois_is_a_field_automorphism():
    rng = random.Random(5)
    p = 5
    for _ in range(20):
        a = Cyclotomic(p, [Fraction(rng.randint(-4, 4)) for _ in range(p - 1)])
        b = Cyclotomic(p, [Fraction(rng.randint(-4, 4)) for _ in range(p - 1)])
        r = rng.randint(1, p - 1)
        assert (a * b).galois(r) == a.galois(r) * b.galois(r)
        assert (a + b).galois(r) == a.galois(r) + b.galois(r)


def test_galois_range_errors():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(5).galois(0)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(5).galois(5)


def test_reduced_zero_sum():
    total = Cyclotomic.zeta(3, 0) + Cyclotomic.zeta(3, 1) + Cyclotomic.zeta(3, 2)
    assert total.is_zero()
    assert complex_close(total.embed(), 0)


def test_nonprime_conductor_rejected():
    with pytest.raises(ValueError):
        Cyclotomic(4, [1, 1, 1])


def test_embed_golden_ratio_cosine():
    z = Cyclotomic.zeta(5, 1) + Cyclotomic.zeta(5, 4)
    want = 2 * math.cos(2 * math.pi / 5)
    assert complex_close(z.embed(), want)


def test_field_laws_on_random_triples():
    rng = random.Random(12)
    for p in (3, 5, 7):
        for _ in range(167):
            a, b, c = (
                Cyclotomic(p, [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(p - 1)])
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)


def test_conjugation_matches_complex_conjugate():
    rng = random.Random(21)
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        z = Cyclotomic(p, [Fraction(rng.randint(-4, 4)) for _ in range(p - 1)])
        assert complex_close(z.conjugate().embed(), z.embed().conjugate())


def test_exact_zero_agrees_with_numeric_zero():
    rng = random.Random(33)
    for _ in range(300):
        p = rng.choice((3, 5, 7))
        z = Cyclotomic(p, [Fraction(rng.randint(-3, 3)) for _ in range(p - 1)])
        assert z.is_zero() == (abs(z.embed()) < 1e-9)


def test_rational_part():
    assert rational_part(Cyclotomic.from_rational(7, Fraction(3, 4))) == Fraction(3, 4)
    assert rational_part(Cyclotomic.zeta(7)) is None
    assert rational_part(5) == 5
    assert complex(Fraction(1, 2)) == 0.5


def test_is_zero_takes_an_explicit_tolerance():
    # Exact kinds ignore the tolerance; floating values compare |v| <= tol.
    assert is_zero(Cyclotomic.zero(5)) and is_zero(Cyclotomic.zero(5), tol=1.0)
    assert not is_zero(Cyclotomic.zeta(5).scale(Fraction(1, 10**12)), tol=1.0)
    assert is_zero(Fraction(0), tol=0.5) and is_zero(0)
    assert not is_zero(Fraction(1, 10**12), tol=1.0)
    assert is_zero(3e-4 + 4e-4j, tol=5e-4)
    assert not is_zero(3e-4 + 4e-4j, tol=4.9e-4)
    assert not is_zero(3e-4 + 4e-4j)  # the default 1e-9
    assert is_zero(-2.0, tol=2.0) and not is_zero(-2.0, tol=1.99)


def agree(values, bound):
    """What a statement concludes from a bound: every value equals the first."""
    return all(is_zero(v - values[0], bound) for v in values)


def test_zero_bound_scales_with_the_largest_value():
    vals = [1 + 0j, 3e-4j, -4e-4]
    for s in (1e-12, 1.0, 1e12):
        bound = zero_bound([s * v for v in vals], tol=4e-4)
        assert [is_zero(s * v, bound) for v in vals] == [False, True, True]
    assert zero_bound([Fraction(5), Fraction(0)]) == 0.0 and zero_bound([0j, 0j]) == 0.0
    # Values are compared on the scale of the spectrum, not on their own.
    unit = GridFunction(Ambient(2, 1), COMPLEX, [1.0, 0.0])
    tiny = GridFunction(Ambient(2, 1), COMPLEX, [2e-12, 0.0])
    assert agree([1 + 1e-12j, 1.0 + 0j], implied_bound(unit, 1))
    assert not agree([1e-12 + 0j, 2e-12 + 0j], implied_bound(tiny, 1))
    assert agree([1e-12 + 0j, 2e-12 + 0j], implied_bound(unit, 1))
    exact = GridFunction(Ambient(5, 1), "cyclotomic", [Cyclotomic.zeta(5)] * 5)
    assert implied_bound(exact, 10**6) == 0.0
    assert agree([Cyclotomic.zeta(5)] * 3, implied_bound(exact, 1))
    assert not agree([Fraction(1), 1 + Fraction(1, 10**12)], implied_bound(exact, 1))


def test_implied_bound_allows_the_spread_of_a_spectrum_zero_off_the_origin():
    # Nine values on Z_3**2: the spread 2(N - 1) = 16 gives 16 * tol * max|F|,
    # 1.6e-8 at the default tol, with F(0) = 1 the largest value of F.
    amb = Ambient(3, 2)
    for values, constant in [
        ([1 + 1.5e-8] + [1.0 + 0j] * 8, True),
        ([1 + 1.7e-8] + [1.0 + 0j] * 8, False),
    ]:
        F = forward(GridFunction(amb, COMPLEX, values))
        assert agree(values, implied_bound(F, 16)) == constant
    assert not agree(values, implied_bound(F, 1))  # the zero rule alone is too tight
    assert implied_bound(F, 16, tol=1e-1) == pytest.approx(16 * 1e-1 * max(map(abs, F.values)))
    with pytest.raises(ValueError, match="positive finite"):
        implied_bound(F, 16, tol=0.0)
    # An exact spectrum gives 0.0 without reading a value: the test is exact.
    f = GridFunction(amb, "rational", [Fraction(1)] * 8 + [1 + Fraction(1, 10**12)])
    assert not agree(f.values, implied_bound(forward(f), 16))
    assert implied_bound(types.SimpleNamespace(kind="rational"), 16) == 0.0
    assert agree([Fraction(2)] * 9, implied_bound(forward(GridFunction.constant(amb, 2)), 16))


def test_conductor_mismatch():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(5)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) * Cyclotomic.zeta(3, ell=2)


def test_prime_power_conductor():
    # conductor 4: zeta = i, minimal polynomial x**2 + 1
    i = Cyclotomic.zeta(2, 1, ell=2)
    assert (i * i).rational_part() == -1
    assert complex_close(i.embed(), 1j)
    # conductor 9: degree 6, zeta**6 = -(1 + zeta**3)
    z9 = Cyclotomic.zeta(3, 6, ell=2)
    assert z9.coeffs == (Fraction(-1), 0, 0, Fraction(-1), 0, 0)
    prod = Cyclotomic.zeta(3, 5, ell=2) * Cyclotomic.zeta(3, 7, ell=2)
    assert prod == Cyclotomic.zeta(3, 3, ell=2)
