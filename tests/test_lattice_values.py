"""Every exact function holds its lattice rows from construction, however
it was made, and a function made from rows decodes ``values`` only when
read.  The zero mask, the Galois action, equality, ``inverse``, ``+``,
``-``, negation and the restrictions all work on the rows; each must agree
with the same operation on the values, on prime and ring grids, for
rational and cyclotomic functions whose values have mixed denominators."""

import operator
import random
from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from charkit import fourier, wavelets
from charkit.fileio import function_from_payload, function_to_payload
from charkit.fourier import GridFunction, Spectrum, forward, inverse
from charkit.geometry import Ambient
from charkit.multiscale import multiscale_decompose
from charkit.scalars import Cyclotomic, is_zero, rational_part
from charkit.varieties import slice_last
from charkit.wavelets import mass_table, reconstruct_from_masses

FIXED = settings(derandomize=True, database=None, deadline=None)
GRIDS = [Ambient(2, 3), Ambient(3, 2), Ambient(5, 2), Ambient(7, 2), Ambient(3, 2, 2), Ambient(2, 2, 3)]
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12)


def _fraction(rng, zeros: float) -> Fraction:
    if rng.random() < zeros:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def _random_function(ambient, kind: str, zeros: float, rng) -> GridFunction:
    """About a ``zeros`` share of the values (and, for a cyclotomic
    function, of the coordinates) are zero."""
    p, ell, q = ambient.p, ambient.ell, ambient.modulus
    if kind == "rational":
        values = [_fraction(rng, zeros) for _ in range(ambient.size)]
    else:
        phi = q - q // p
        values = [
            Cyclotomic(p, [_fraction(rng, zeros) for _ in range(phi)], ell)
            if rng.random() >= zeros else 0
            for _ in range(ambient.size)
        ]
    return GridFunction(ambient, kind, values)


KINDS = st.sampled_from(["rational", "cyclotomic"])
ZEROS = st.sampled_from([0.0, 0.3, 0.7])


@st.composite
def exact_functions(draw):
    """A rational or cyclotomic function on one of the grids."""
    ambient = draw(st.sampled_from(GRIDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return _random_function(ambient, draw(KINDS), draw(ZEROS), rng)


@st.composite
def function_pairs(draw):
    """Two exact functions on one grid, of kinds drawn apart."""
    ambient = draw(st.sampled_from(GRIDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return tuple(_random_function(ambient, draw(KINDS), draw(ZEROS), rng) for _ in "fg")


def _units(ambient) -> list:
    return [r for r in range(1, ambient.modulus) if r % ambient.p]


def _scaled(F: GridFunction, k: int) -> GridFunction:
    """F again, its rows and denominator multiplied by k."""
    rows = [tuple(k * c for c in row) for row in F._rows]
    return fourier._from_lattice(F.ambient, rows, F._den * k, F.kind, type(F))


@FIXED
@given(exact_functions())
def test_the_zero_mask_of_the_rows_is_that_of_the_values(f):
    # forward(inverse(f)) is f again on the lattice, zeros where f has them
    for F in (forward(f), inverse(f), forward(inverse(f)), f):
        mask = F.nonzero()
        assert mask == tuple(not is_zero(v) for v in F.values)
    assert forward(inverse(f)).nonzero() == f.nonzero()


@FIXED
@given(exact_functions())
def test_the_galois_action_on_the_rows_is_that_of_cyclotomic_values(f):
    F = forward(f)
    for G in (F, f.to_cyclotomic()):
        for r in _units(f.ambient):
            image = G.galois(r)
            assert image.values == tuple(v.galois(r) for v in G.values)
    for r in _units(f.ambient):
        assert inverse(F).galois(r) == f.galois(r)


@FIXED
@given(exact_functions(), st.integers(2, 7))
def test_equality_of_lattices_is_equality_of_values(f, k):
    F = forward(f)
    pairs = [
        (F, forward(inverse(F))),  # rows over L*N against rows over L*N*N
        (F, _scaled(F, k)),
        (f, inverse(F)),  # value form against rows
        (f, f.to_cyclotomic()),  # a rational kind against a cyclotomic one
        (inverse(F), f.to_cyclotomic()),
        (F, Spectrum(f.ambient, "cyclotomic", F.values)),
    ]
    for a, b in pairs:
        assert (a == b) == (a.values == b.values) == (b == a) is True


@FIXED
@given(exact_functions(), st.integers(2, 7), st.integers(0, 10**6))
def test_a_lattice_that_differs_in_one_coordinate_is_unequal(f, k, where):
    F = forward(f)
    ambient = F.ambient
    i = where % ambient.size
    for c in range(len(F._rows[i])):
        rows = list(F._rows)
        rows[i] = rows[i][:c] + (rows[i][c] + 1,) + rows[i][c + 1:]
        same_den = fourier._from_lattice(ambient, rows, F._den, "cyclotomic", Spectrum)
        other_den = _scaled(same_den, k)
        values = list(F.values)
        coeffs = list(values[i].coeffs)
        coeffs[c] += Fraction(1, F._den)
        values[i] = Cyclotomic(ambient.p, coeffs, ambient.ell)
        value_form = Spectrum(ambient, "cyclotomic", values)
        for b in (same_den, other_den, value_form):
            assert b.values != F.values
            assert not F == b and not b == F
            assert F.agrees(b) == tuple(j != i for j in range(ambient.size))


@FIXED
@given(exact_functions())
def test_inverse_of_forward_is_the_function(f):
    back = inverse(forward(f))
    assert back == f
    assert back.values == f.values
    rational = all(rational_part(v) is not None for v in f.values)
    assert back.kind == ("rational" if rational else "cyclotomic")


def test_inverse_of_forward_decodes_nothing(monkeypatch):
    calls = []
    decode = fourier._decode
    monkeypatch.setattr(fourier, "_decode", lambda *a, **kw: calls.append(a) or decode(*a, **kw))
    rng = random.Random(5)
    for ambient in GRIDS:
        f = GridFunction(ambient, "rational", [_fraction(rng, 0.3) for _ in range(ambient.size)])
        back = inverse(forward(f))
        assert back == f and back.is_zero() == f.is_zero()
        assert calls == []


def _carries_rows(f: GridFunction) -> bool:
    """f holds its lattice form: one row of ints per point over a positive
    int denominator, one coordinate wide for a rational function and phi
    for a cyclotomic one."""
    q = f.ambient.modulus
    width = 1 if f.kind == "rational" else q - q // f.ambient.p
    return (
        type(f._den) is int and f._den > 0 and len(f._rows) == f.ambient.size
        and all(len(row) == width and all(type(c) is int for c in row) for row in f._rows)
    )


@FIXED
@given(function_pairs())
def test_every_exact_function_carries_rows(fg):
    f, g = fg
    ambient = f.ambient
    F = forward(f)
    made = [
        f, g, function_from_payload(function_to_payload(f)), F, inverse(F),
        f + g, f - g, -f, f + inverse(forward(g)),
        f.take(ambient, range(ambient.size - 1, -1, -1)), F.dilate(ambient.modulus - 1),
        *(part.function for part in multiscale_decompose(F)),
    ]
    if ambient.ell == 1:
        made += [reconstruct_from_masses(mass_table(f)), slice_last(f, 1), slice_last(F, 0)]
    assert [_carries_rows(h) for h in made] == [True] * len(made)


@FIXED
@given(function_pairs())
def test_row_arithmetic_is_value_arithmetic(fg):
    f, g = fg
    kind = "cyclotomic" if "cyclotomic" in (f.kind, g.kind) else "rational"
    assert (f + g).kind == (f - g).kind == kind
    for a, b in ((f, g), (g, f), (f, inverse(forward(g))), (forward(f), g)):
        for op in (operator.add, operator.sub):
            got = op(a, b)
            want = GridFunction(f.ambient, got.kind, map(op, a.values, b.values))
            assert got == want and got.values == want.values
    for a in (f, forward(f), inverse(forward(g))):
        assert (-a).kind == a.kind and (-a).values == tuple(-v for v in a.values)


@FIXED
@given(exact_functions())
def test_restrictions_move_rows_as_the_values_move(f):
    ambient = f.ambient
    p, d, q = ambient.p, ambient.d, ambient.modulus
    for g in (f, forward(f)):
        for r in range(q):
            want = [g.value_at(tuple(r * c % q for c in x)) for x in ambient.points()]
            got = g.dilate(r)
            assert type(got) is type(g) and got.kind == g.kind
            assert got == GridFunction(ambient, g.kind, want) and got.values == tuple(want)
        if ambient.ell == 1:
            small = Ambient(p, d - 1)
            for a in range(p):
                want = [g.value_at(y + (a,)) for y in small.points()]
                got = slice_last(g, a)
                assert got.kind == g.kind and got.ambient == small
                assert got == GridFunction(small, g.kind, want) and got.values == tuple(want)


def test_parts_and_tomography_decode_nothing(monkeypatch):
    rng = random.Random(11)
    cases = []
    for ambient in GRIDS:
        for kind in ("rational", "cyclotomic"):
            f = _random_function(ambient, kind, 0.3, rng)
            table = mass_table(f) if ambient.ell == 1 else None
            cases.append((f, forward(f), table))

    def refuse(*args, **kwargs):
        raise AssertionError("decoded")

    monkeypatch.setattr(fourier, "_decode", refuse)
    monkeypatch.setattr(wavelets, "_decode", refuse)
    for f, F, table in cases:
        parts = [part.function for part in multiscale_decompose(F)]
        assert reduce(operator.add, parts) == f
        if table is not None:
            assert reconstruct_from_masses(table) == f
