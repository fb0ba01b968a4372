"""Exact results of ``forward`` and ``inverse`` keep their lattice rows and
decode ``values`` only when read.  The zero mask, the Galois action,
equality and ``inverse`` all read the rows; each must agree with the same
operation on the decoded values, on prime and ring grids, for rational and
cyclotomic functions whose values have mixed denominators."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from charkit import fourier
from charkit.fourier import GridFunction, Spectrum, forward, inverse
from charkit.geometry import Ambient
from charkit.scalars import Cyclotomic, is_zero, rational_part

FIXED = settings(derandomize=True, database=None, deadline=None)
GRIDS = [Ambient(2, 3), Ambient(3, 2), Ambient(5, 2), Ambient(7, 2), Ambient(3, 2, 2), Ambient(2, 2, 3)]
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12)


def _fraction(rng, zeros: float) -> Fraction:
    if rng.random() < zeros:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


@st.composite
def exact_functions(draw):
    """A rational or cyclotomic function, about a ``zeros`` share of whose
    values (and, for cyclotomic ones, coordinates) are zero."""
    ambient = draw(st.sampled_from(GRIDS))
    kind = draw(st.sampled_from(["rational", "cyclotomic"]))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = random.Random(draw(st.integers(0, 2**32)))
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


def _units(ambient) -> list:
    return [r for r in range(1, ambient.modulus) if r % ambient.p]


def _scaled(F: GridFunction, k: int) -> GridFunction:
    """F again, its rows and denominator multiplied by k."""
    return type(F)._from_rows(F.ambient, F.kind, [tuple(k * c for c in row) for row in F._rows], F._den * k)


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
        same_den = Spectrum._from_rows(ambient, "cyclotomic", rows, F._den)
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
