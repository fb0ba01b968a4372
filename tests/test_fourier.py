from fractions import Fraction

import pytest

from charkit.corpus import random_complex_function, random_rational_function, rng_for
from charkit.fourier import (
    GridFunction,
    convolve,
    forward,
    forward_naive,
    inverse,
    phase,
    transform_affine,
    transform_subspace,
    vanishes_on,
)
from charkit.geometry import (
    Ambient,
    Subspace,
    dot,
    enumerate_lines,
    hyperplane_points,
    vadd,
    vscale,
)
from charkit.scalars import Cyclotomic

GRID = [(p, d) for p in (2, 3, 5) for d in (1, 2, 3)]


def test_constant_transforms_to_delta():
    amb = Ambient(3, 2)
    F = forward(GridFunction.constant(amb, 1))
    assert F.values[0].rational_part() == 1
    assert all(v.is_zero() for v in F.values[1:])


def test_hyperplane_indicator_closed_form():
    # F(k*s) = chi(-k*t)/p on the line through s, zero off the line
    for p, s, t in [(3, (1, 0), 1), (5, (1, 2), 3)]:
        amb = Ambient(p, 2)
        F = forward(GridFunction.indicator(amb, hyperplane_points(amb, s, t)))
        for k in range(p):
            got = F.values[amb.index_of(vscale(k, s, p))]
            assert got == Cyclotomic.zeta(p, -k * t).scale(Fraction(1, p))
        on_line = {vscale(k, s, p) for k in range(p)}
        for m in amb.points():
            if m not in on_line:
                assert F.values[amb.index_of(m)].is_zero()


def test_delta_spectrum_example():
    amb = Ambient(3, 2)
    F = forward(GridFunction.delta(amb, (1, 2)))
    assert F.value_at((1, 0)).coeffs == (Fraction(-1, 9), Fraction(-1, 9))
    for m in amb.points():
        assert F.value_at(m) == Cyclotomic.zeta(3, -dot((1, 2), m, 3)).scale(Fraction(1, 9))


def test_inverse_of_delta_spectrum_is_constant():
    amb = Ambient(3, 2)
    F = GridFunction(amb, "cyclotomic", [Fraction(5) if i == 0 else 0 for i in range(9)])
    assert inverse(F) == GridFunction.constant(amb, Fraction(5))


def test_inverse_of_hyperplane_spectrum():
    amb = Ambient(3, 2)
    vals = [Cyclotomic.zero(3)] * 9
    for k in range(3):
        vals[amb.index_of((k, 0))] = Cyclotomic.zeta(3, -k).scale(Fraction(1, 3))
    f = inverse(GridFunction(amb, "cyclotomic", vals))
    assert f == GridFunction.indicator(amb, hyperplane_points(amb, (1, 0), 1))


def test_round_trip_300_random_functions():
    count = 0
    idx = 0
    while count < 300:
        p, d = GRID[idx % len(GRID)]
        rng = rng_for(9000, f"roundtrip/{idx}")
        f = random_rational_function(Ambient(p, d), rng)
        assert inverse(forward(f)) == f
        count += 1
        idx += 1


@pytest.mark.parametrize("p,d", GRID)
def test_axis_pass_equals_naive_oracle(p, d):
    amb = Ambient(p, d)
    for i in range(100):
        rng = rng_for(9100 + p * 10 + d, f"oracle/{i}")
        f = random_rational_function(amb, rng)
        assert forward(f).values == forward_naive(f).values


# Prime grids and the rings Z_9^2, Z_25, Z_8^2, for the lattice kernel.  The
# ids are the names these cases have had since the ring grids had a class of
# their own, so that their results stay comparable from commit to commit.
LATTICE_GRIDS = [
    pytest.param(Ambient(5, 2), id="Ambient(p=5, d=2)"),
    pytest.param(Ambient(7, 2), id="Ambient(p=7, d=2)"),
    pytest.param(Ambient(3, 3), id="Ambient(p=3, d=3)"),
    pytest.param(Ambient(3, 2, 2), id="RingAmbient(p=3, ell=2, d=2)"),
    pytest.param(Ambient(5, 1, 2), id="RingAmbient(p=5, ell=2, d=1)"),
    pytest.param(Ambient(2, 2, 3), id="RingAmbient(p=2, ell=3, d=2)"),
]


def _mixed_cyclotomic_function(ambient, rng):
    """Cyclotomic values whose coefficients have mixed denominators; about a
    third of the values are zero."""
    degree = ambient.p ** (ambient.ell - 1) * (ambient.p - 1)
    vals = []
    for _ in range(ambient.size):
        zero = rng.random() < 1 / 3
        coeffs = [
            0 if zero else Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 7)))
            for _ in range(degree)
        ]
        vals.append(Cyclotomic(ambient.p, coeffs, ambient.ell))
    return GridFunction(ambient, "cyclotomic", vals)


@pytest.mark.parametrize("ambient", LATTICE_GRIDS)
def test_lattice_kernel_equals_naive_oracle_on_cyclotomic_inputs(ambient):
    q = ambient.modulus
    for i in range(2):
        f = _mixed_cyclotomic_function(ambient, rng_for(9800, f"{ambient!r}/{i}"))
        F = forward(f)
        assert F.values == forward_naive(f).values
        g = inverse(F)
        assert g == f and g.kind == f.kind
        # The + sign: inverse(f)(x) = q**d * forward(f)(-x).
        naive = forward_naive(f)
        want = [
            naive.value_at(tuple(-c % q for c in x)).scale(ambient.size)
            for x in ambient.points()
        ]
        assert inverse(f) == GridFunction(ambient, "cyclotomic", want)


@pytest.mark.parametrize("ambient", LATTICE_GRIDS)
def test_inverse_demotes_to_rational_exactly_when_rational(ambient):
    rng = rng_for(9900, repr(ambient))
    f = random_rational_function(ambient, rng)
    back = inverse(forward(f))
    assert back.kind == "rational" and back.values == f.values
    # A cyclotomic function with rational values comes back rational.
    back = inverse(forward(f.to_cyclotomic()))
    assert back.kind == "rational" and back.values == f.values
    # One value with a nonzero top power-basis coordinate keeps the whole
    # result cyclotomic.
    vals = list(f.to_cyclotomic().values)
    top = Cyclotomic.zeta(ambient.p, vals[0].degree - 1, ambient.ell)
    vals[-1] = vals[-1] + top.scale(Fraction(1, 7))
    h = GridFunction(ambient, "cyclotomic", vals)
    back = inverse(forward(h))
    assert back.kind == "cyclotomic" and back.values == h.values


def test_galois_equivariance():
    for i in range(30):
        p = (3, 5, 7)[i % 3]
        amb = Ambient(p, 2)
        f = random_rational_function(amb, rng_for(9200, f"galois/{i}"))
        F = forward(f)
        for line in enumerate_lines(amb):
            base = F.value_at(line.rep)
            for r in range(1, p):
                assert F.value_at(vscale(r, line.rep, p)) == base.galois(r)


def test_dc_value_is_average():
    rng = rng_for(9300, "dc")
    for p, d in GRID:
        amb = Ambient(p, d)
        f = random_rational_function(amb, rng)
        assert forward(f).values[0].rational_part() == f.total() / amb.size


def test_parseval_on_complex_path():
    rng = rng_for(9400, "parseval")
    for p, d in [(3, 2), (5, 2), (3, 3)]:
        amb = Ambient(p, d)
        f = random_complex_function(amb, rng)
        F = forward(f)
        lhs = sum(abs(v) ** 2 for v in F.values)
        rhs = sum(abs(v) ** 2 for v in f.values) / amb.size
        assert abs(lhs - rhs) < 1e-9


def test_complex_round_trip():
    amb = Ambient(5, 2)
    f = random_complex_function(amb, rng_for(9500, "cplx"))
    g = inverse(forward(f))
    assert g.isclose(f)


def test_convolution_identity():
    amb = Ambient(3, 2)
    f = random_rational_function(amb, rng_for(9600, "conv"))
    assert convolve(f, GridFunction.delta(amb, (0, 0))) == f


def test_subspace_self_convolution():
    amb = Ambient(2, 2)
    V = {(0, 0), (1, 1)}
    f = GridFunction.indicator(amb, V)
    g = convolve(f, f)
    # hand computation on the 4 points: |V| on V, 0 elsewhere
    assert g == GridFunction(amb, "rational", [2, 0, 0, 2])


def test_convolution_theorem():
    amb = Ambient(3, 2)
    rng = rng_for(9700, "convthm")
    f = random_rational_function(amb, rng)
    g = random_rational_function(amb, rng)
    lhs = forward_naive(convolve(f, g))
    Ff, Fg = forward_naive(f), forward_naive(g)
    rhs = [(a * b).scale(Fraction(9)) for a, b in zip(Ff.values, Fg.values)]
    assert list(lhs.values) == rhs


def test_convolution_ambient_mismatch():
    with pytest.raises(ValueError):
        convolve(
            GridFunction.constant(Ambient(3, 2), 1),
            GridFunction.constant(Ambient(3, 1), 1),
        )


def test_phase_function():
    amb = Ambient(3, 2)
    x = (1, 2)
    ph = phase(amb, x)
    for m in amb.points():
        assert ph.value_at(m) == Cyclotomic.zeta(3, -dot(x, m, 3))


def test_full_space_transform_is_delta():
    amb = Ambient(3, 2)
    F = transform_subspace(Subspace.full(amb))
    assert F.values[0].rational_part() == 1
    assert all(v.is_zero() for v in F.values[1:])


def test_subspace_closed_form_matches_forward():
    amb = Ambient(3, 2)
    V = Subspace.span(amb, [(0, 1)])
    direct = forward(GridFunction.indicator(amb, V.points()))
    assert transform_subspace(V).values == direct.values
    # 1/3 on the perpendicular line
    assert transform_subspace(V).value_at((1, 0)).rational_part() == Fraction(1, 3)


def test_affine_closed_form_matches_forward():
    amb = Ambient(3, 2)
    V = Subspace.span(amb, [(0, 1)])
    x = (1, 0)
    coset = [vadd(v, x, 3) for v in V.points()]
    direct = forward(GridFunction.indicator(amb, coset))
    assert transform_affine(V, x).values == direct.values


def test_rational_demotion_only_on_exact_cancellation():
    amb = Ambient(3, 1)
    # spectrum with a genuinely cyclotomic inverse stays cyclotomic
    vals = [Cyclotomic.zero(3)] * 3
    vals[1] = Cyclotomic.one(3)
    f = inverse(GridFunction(amb, "cyclotomic", vals))
    assert f.kind == "cyclotomic"


def test_gridfunction_validation():
    amb = Ambient(3, 2)
    with pytest.raises(ValueError):
        GridFunction(amb, "rational", [1] * 8)
    with pytest.raises(ValueError):
        GridFunction(amb, "bogus", [1] * 9)
    with pytest.raises(ValueError):
        GridFunction(amb, "complex", [float("nan")] * 9)
    with pytest.raises(ValueError):
        GridFunction(amb, "cyclotomic", [Cyclotomic.one(5)] * 9)


def test_vanishes_on_takes_an_explicit_tolerance():
    amb = Ambient(3, 1)
    pts = [(1,), (2,)]
    tiny = Fraction(1, 10**12)
    rational = GridFunction(amb, "rational", [5, 0, tiny])
    assert vanishes_on(rational, [(1,)], tol=1.0)
    assert not vanishes_on(rational, pts, tol=1.0)  # exact: tol is ignored
    z = Cyclotomic.zeta(3).scale(tiny)
    cyclotomic = GridFunction(amb, "cyclotomic", [z, Cyclotomic.zero(3), z])
    assert vanishes_on(cyclotomic, [(1,)]) and not vanishes_on(cyclotomic, pts, tol=1.0)
    cplx = GridFunction(amb, "complex", [1, 3e-4j, -4e-4])
    assert vanishes_on(cplx, pts, tol=4e-4)
    assert not vanishes_on(cplx, pts, tol=3.9e-4)
    assert not vanishes_on(cplx, pts)  # the default 1e-9
    assert vanishes_on(cplx, [])
    assert cplx.support(tol=4e-4) == ((0,),) and len(cplx.support()) == 3
