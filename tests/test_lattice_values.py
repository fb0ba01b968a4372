"""Every exact holder holds its lattice columns from construction, however
it was made, and a function made from columns decodes ``values`` only when
read.  The zero mask, the Galois action, equality, ``inverse``, ``+``,
``-``, negation and the restrictions all work on the columns; each must
agree with the same operation on the values, on prime and ring grids, for
rational and cyclotomic functions whose values have mixed denominators.
Mass tables, wavelets and decompositions hold their values in the same
holder, ``fourier.Values``, of any length: built from values or from
columns, it holds the same values, columns and denominator."""

import math
import operator
import random
from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from charkit import fourier
from charkit.fileio import function_from_payload, function_to_payload
from charkit.fourier import GridFunction, Values, _lattice_of, forward, inverse
from charkit.geometry import Ambient, line_count
from charkit.multiscale import multiscale_decompose
from charkit.scalars import Cyclotomic, is_zero, rational_part
from charkit.varieties import slice_last
from charkit.wavelets import FORMS, decompose, mass_table, reconstruct_from_masses

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
    """F again, its columns and denominator multiplied by k."""
    cols = [[k * c for c in col] for col in F._cols]
    return fourier._from_lattice(F.ambient, cols, F._den * k, F.kind)


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
        (F, GridFunction(f.ambient, "cyclotomic", F.values)),
    ]
    for a, b in pairs:
        assert (a == b) == (a.values == b.values) == (b == a) is True


@FIXED
@given(exact_functions(), st.integers(2, 7), st.integers(0, 10**6))
def test_a_lattice_that_differs_in_one_coordinate_is_unequal(f, k, where):
    F = forward(f)
    ambient = F.ambient
    i = where % ambient.size
    for c in range(len(F._cols)):
        cols = [list(col) for col in F._cols]
        cols[c][i] += 1
        same_den = fourier._from_lattice(ambient, cols, F._den, "cyclotomic")
        other_den = _scaled(same_den, k)
        values = list(F.values)
        coeffs = list(values[i].coeffs)
        coeffs[c] += Fraction(1, F._den)
        values[i] = Cyclotomic(ambient.p, coeffs, ambient.ell)
        value_form = GridFunction(ambient, "cyclotomic", values)
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


def _carries_columns(held: Values, length: int) -> bool:
    """``held`` holds its lattice form: ``_width(kind)`` columns of ints,
    one coordinate for a rational holder and phi for a cyclotomic one, each
    ``length`` long, the number of values held, over a positive int
    denominator."""
    return (
        type(held._den) is int and held._den > 0 and len(held) == length
        and len(held._cols) == fourier._width(held.kind, held.ambient)
        and all(len(col) == length and all(type(c) is int for c in col) for col in held._cols)
    )


@FIXED
@given(function_pairs())
def test_every_exact_holder_carries_columns(fg):
    f, g = fg
    ambient = f.ambient
    F = forward(f)
    functions = [
        f, g, function_from_payload(function_to_payload(f)), F, inverse(F),
        f + g, f - g, -f, f + inverse(forward(g)), f.scale(Fraction(-2, 3)), F.galois(-1),
        f.take(ambient, range(ambient.size - 1, -1, -1)), F.dilate(ambient.modulus - 1),
        *(part.function for part in multiscale_decompose(F)),
    ]
    made = [(h, ambient.size) for h in functions]
    if ambient.ell == 1:
        p = ambient.p
        made += [
            (h, h.ambient.size)
            for h in (reconstruct_from_masses(mass_table(f)), slice_last(f, 1), slice_last(F, 0))
        ]
        made.append((mass_table(f)._masses, line_count(ambient) * p))
        for form in FORMS:
            dec = decompose(f, form)
            made += [(dec._coefficients, dec.cbw * p), (dec._constant, 1)]
            made += [(w._coefficients, p) for w in dec.parts]
    assert [_carries_columns(h, n) for h, n in made] == [True] * len(made)


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
    for f, F, table in cases:
        parts = [part.function for part in multiscale_decompose(F)]
        assert reduce(operator.add, parts) == f
        if table is not None:
            assert reconstruct_from_masses(table) == f


MIXES = [
    ("rational",), ("cyclotomic",), ("complex",),
    ("rational", "cyclotomic"), ("rational", "complex"), ("cyclotomic", "complex"),
]


@st.composite
def held_values(draw):
    """(ambient, kind, values): 1, p, n*p (n the number of lines of a prime
    grid) or N values of the kinds of one mix, held in the kind they join to."""
    ambient = draw(st.sampled_from(GRIDS))
    p, ell, q = ambient.p, ambient.ell, ambient.modulus
    lengths = [1, p, ambient.size] + ([line_count(ambient) * p] if ell == 1 else [])
    length = draw(st.sampled_from(lengths))
    mix = draw(st.sampled_from(MIXES))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def value(kind):
        if kind == "rational":
            return _fraction(rng, 0.3)
        if kind == "cyclotomic":
            return Cyclotomic(p, [_fraction(rng, 0.3) for _ in range(q - q // p)], ell)
        return complex(rng.choice([0.0, -0.0, rng.uniform(-3, 3)]), rng.choice([0.0, -0.0, rng.uniform(-3, 3)]))

    kind = mix[-1]
    return ambient, kind, [value(rng.choice(mix)) for _ in range(length)]


def _per_value_lattice(ambient, kind: str, values) -> tuple:
    """(den, cols) of values held in ``kind``, value by value: the lcm of
    every coordinate's denominator, and each coordinate times it, column c
    holding coordinate c of every value."""
    if kind == "complex":
        return 1, [tuple(complex(v) for v in values)]
    q = ambient.modulus
    coords = [
        v.coeffs if isinstance(v, Cyclotomic)
        else (Fraction(v), *[0] * (q - q // ambient.p - 1)) if kind == "cyclotomic" else (Fraction(v),)
        for v in values
    ]
    den = math.lcm(*(Fraction(c).denominator for row in coords for c in row))
    rows = [[int(c * den) for c in row] for row in coords]
    return den, [[row[c] for row in rows] for c in range(fourier._width(kind, ambient))]


@FIXED
@given(held_values())
def test_a_holder_built_from_columns_is_the_one_built_from_values(case):
    ambient, kind, values = case
    held = Values(ambient, kind, values)
    den, cols = _lattice_of(held)
    assert (den, cols) == _per_value_lattice(ambient, kind, values)
    again = Values._from_lattice(ambient, cols, den, kind)
    assert (again.kind, len(again)) == (held.kind, len(held)) == (kind, len(values))
    assert again.values == held.values
    assert _lattice_of(again) == (den, cols)
    assert again == held and held == again
    if len(values) > 1:
        assert Values(ambient, kind, values[1:]) != held
    if len(values) == ambient.size:
        assert _lattice_of(GridFunction(ambient, kind, values)) == (den, cols)


def test_complex_columns_over_one_are_held_as_they_are():
    """A complex division by 1 would turn inf into inf+nanj; over any other
    denominator the column is divided out."""
    ambient = Ambient(3, 1)
    col = [complex(math.inf, 0.0), complex(1.5, -2.0), 0]
    held = Values._from_lattice(ambient, [col], 1, "complex").values
    assert [(v.real, v.imag) for v in held] == [(math.inf, 0.0), (1.5, -2.0), (0.0, 0.0)]
    assert Values._from_lattice(ambient, [col[1:]], 4, "complex").values == (0.375 - 0.5j, 0j)
