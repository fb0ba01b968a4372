"""Complex transforms, masses and decompositions keep the bits of the
per-value reference.

The complex mass run computes only the sums the line representatives
read, and a complex decomposition multiplies by each factor made complex
once.  Both must give the floats, bit for bit, of the references kept
here: the d-pass mass run (d ``_lattice_pass`` calls over the values at
power 0 of p planes, read at every representative) and the decomposition
arithmetic with one ``Fraction`` times each complex value.  The inputs
include signed zeros, which a ``sum`` from int 0 turns into +0.0 (on a
grid of one dimension the run's own first pass is all of it), subnormal
values, whose products with the factors round to signed zeros, and values
near the float limit, whose masses overflow.  The complex transforms add
a block at the root 1 as it is, with no multiplication by 1+0j, and must
give the bits of the pass that multiplies every block by its root, kept
here too."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from charkit.bandwidth import bandwidth
from charkit.corpus import rng_for
from charkit.fourier import GridFunction, Values, _lattice_pass, _mass_columns, forward, inverse
from charkit.geometry import Ambient, enumerate_lines
from charkit.scalars import _embed_roots
from charkit.wavelets import FORMS, Wavelet, decompose, mass_table

MASS_GRIDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (7, 2), (11, 2), (13, 2),
              (2, 3), (3, 3), (5, 3), (7, 3), (2, 5), (3, 4), (2, 8), (3, 6)]
TRANSFORM_GRIDS = [(2, d) for d in range(1, 11)] + [(3, 6), (7, 3), (13, 2)]
DECOMPOSE_GRIDS = [(2, 1), (5, 1), (2, 3), (3, 2), (5, 2), (7, 2), (13, 2), (3, 3), (2, 5)]
NOT_FINITE = "complex values must be finite"


def _inputs(ambient, seed):
    """Dense, 5%-sparse, zero, signed-zero, subnormal and near-overflow values."""
    rng, N = rng_for(seed, f"complex-bits/{ambient.p}/{ambient.d}"), ambient.size

    def draw():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    yield "dense", [draw() for _ in range(N)]
    yield "sparse", [draw() if rng.random() < 0.05 else 0j for _ in range(N)]
    yield "zero", [0j] * N
    parts = (0.0, -0.0, 0.0, -0.0, 1.5, -0.25)
    yield "signed zeros", [complex(rng.choice(parts), rng.choice(parts)) for _ in range(N)]
    parts = (5e-324, -5e-324, 0.0, -0.0)
    yield "subnormal", [complex(rng.choice(parts), rng.choice(parts)) for _ in range(N)]
    parts = (1e300, -1e300, 0.0, -0.0)
    yield "near overflow", [complex(rng.choice(parts), rng.choice(parts)) for _ in range(N)]


def _d_pass_masses(f, lines):
    """The d-pass mass run: every value at power 0 of p planes, d passes
    over all directions, the p masses read at each line's representative."""
    ambient, p, N = f.ambient, f.ambient.p, f.ambient.size
    A = list(f.values) + [0] * ((p - 1) * N)
    for _ in range(ambient.d):
        A = _lattice_pass(A, p, +1)
    return [complex(A[t * N + ambient.index_of(line.rep)]) for line in lines for t in range(p)]


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("p,d", MASS_GRIDS)
def test_complex_masses_keep_the_bits_of_the_d_pass_run(p, d):
    ambient = Ambient(p, d)
    lines = enumerate_lines(ambient)
    some = random.Random(p * 100 + d).sample(lines, max(1, len(lines) // 2))  # shuffled
    for name, values in _inputs(ambient, 3001):
        f = GridFunction(ambient, "complex", values)
        want = _d_pass_masses(f, lines)
        if not all(map(cmath.isfinite, want)):
            with pytest.raises(ValueError, match=NOT_FINITE):
                mass_table(f)
            with pytest.raises(ValueError, match=NOT_FINITE):
                _mass_columns(f, lines)
            continue
        table = mass_table(f)
        assert _bits(m for _, ms in table.rows for m in ms) == _bits(want), name
        for chosen in (lines, some):
            den, cells = _mass_columns(f, chosen)
            assert den == 1
            got = Values._from_lattice(ambient, cells, den, "complex").values
            assert _bits(got) == _bits(_d_pass_masses(f, chosen)), name


def test_an_overflowing_mass_table_is_refused():
    ambient = Ambient(3, 2)
    f = GridFunction(ambient, "complex", [1e308] * ambient.size)
    with pytest.raises(ValueError, match=NOT_FINITE):
        mass_table(f)


def _per_value(f, form, lines):
    """(constant, coefficients per line) by the arithmetic of one Fraction
    times each complex value, from the masses of the mass table."""
    ambient = f.ambient
    p, d = ambient.p, ambient.d
    table = dict(mass_table(f).rows)
    total = f.total()
    cell = Fraction(1, p ** (d - 1))
    grid_inv = Fraction(1, ambient.size)
    plain_constant = (1 - len(lines)) * grid_inv * total
    reduced_shift = 0
    coeffs = []
    for line in lines:
        ms = table[line]
        if form == "plain":
            coeffs.append([cell * m for m in ms])
        elif form == "reduced":
            coeffs.append([cell * (m - ms[0]) for m in ms])
            reduced_shift = reduced_shift + cell * ms[0]
        else:
            rest = [grid_inv * (p * m - total) for m in ms[1:]]
            coeffs.append([-sum(rest), *rest])
    if form == "plain":
        return plain_constant, coeffs
    if form == "reduced":
        return plain_constant + reduced_shift, coeffs
    return grid_inv * total, coeffs


def _wavelet_sum(ambient, rng):
    """Random complex wavelets summed: a spectrum on a few lines, and
    floating noise off them.  Where some number n of lines has (1 - n)/N
    rounded once differ from 1 - n times 1/N rounded, it takes the fewest
    such lines, so that the constant shows how its factor was rounded."""
    lines, N = enumerate_lines(ambient), ambient.size
    rounded = [n for n in range(2, len(lines) + 1)
               if float(Fraction(1 - n, N)) != (1 - n) * float(Fraction(1, N))]
    lines = rng.sample(lines, rounded[0] if rounded else min(2, len(lines)))
    acc = GridFunction(ambient, "complex", [0j] * ambient.size)
    for line in lines:
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(ambient.p)]
        acc = acc + Wavelet(ambient, line, coeffs).evaluate()
    return acc


@pytest.mark.parametrize("p,d", DECOMPOSE_GRIDS)
@pytest.mark.parametrize("form", FORMS)
def test_complex_decompose_keeps_the_bits_of_the_per_value_arithmetic(p, d, form):
    ambient = Ambient(p, d)
    functions = [GridFunction(ambient, "complex", values)
                 for name, values in _inputs(ambient, 3002) if name != "near overflow"]
    functions.append(_wavelet_sum(ambient, rng_for(3003, f"complex-bits/{p}/{d}")))
    for f in functions:
        dec = decompose(f, form)
        lines = bandwidth(f).lines
        assert tuple(w.direction for w in dec.parts) == lines
        constant, coeffs = _per_value(f, form, lines)
        assert _bits([dec.constant]) == _bits([constant])
        for w, want in zip(dec.parts, coeffs):
            assert _bits(w.coeffs) == _bits(want), w.direction
            # the coefficients pass the checks of their form
            assert Wavelet(ambient, w.direction, w.coeffs, form) == w


def _per_root_transform(values, ambient, sign):
    """The complex transform (sign -1 forward, +1 inverse) with every block
    of every pass multiplied by its root, the root 1 included."""
    q, A = ambient.modulus, list(values)
    roots = _embed_roots(q)
    for _ in range(ambient.d):
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
        A = out
    if sign < 0:
        scale = 1.0 / ambient.size
        A = [v * scale for v in A]
    return A


@pytest.mark.parametrize("p,d", TRANSFORM_GRIDS)
def test_complex_transforms_keep_the_bits_of_the_per_root_passes(p, d):
    ambient = Ambient(p, d)
    for name, values in _inputs(ambient, 3201):
        f = GridFunction(ambient, "complex", values)
        for transform, sign in ((forward, -1), (inverse, +1)):
            want = _per_root_transform(values, ambient, sign)
            if not all(map(cmath.isfinite, want)):
                with pytest.raises(ValueError, match=NOT_FINITE):
                    transform(f)
                continue
            assert _bits(transform(f).values) == _bits(want), (name, sign)


def test_adding_a_block_at_the_root_one_keeps_the_bits_of_multiplying_by_it():
    """acc + v and acc + (1+0j)*v agree in every bit when finite, and are
    finite together, for every acc that a sum from 0j can hold (never a
    -0.0 part) and every v over signed zeros, subnormals, +-1e300 and
    +-inf."""
    parts = (0.0, -0.0, 5e-324, -5e-324, 1.5, -0.25, 1e300, -1e300, math.inf, -math.inf, 1e-310, -7.0)
    values = [complex(a, b) for a in parts for b in parts]
    for acc in (0j + v for v in values):
        for v in values:
            added, multiplied = acc + v, acc + (1 + 0j) * v
            assert cmath.isfinite(added) == cmath.isfinite(multiplied), (acc, v)
            if cmath.isfinite(added):
                assert _bits([added]) == _bits([multiplied]), (acc, v)
