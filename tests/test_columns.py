"""Exact arithmetic on whole coordinate columns equals value-wise arithmetic.

The exact holder answers the Galois action, ``+``, ``-``, unary ``-``,
``==``, ``agrees``, ``scale`` by a rational factor and ``take`` on the
whole lattice columns it holds, and the exact runs end with one plane-wise
reduction to the power basis (``fourier._power_basis``).  Each is checked
here against the value-wise reference: ``scalars._reduce_ext`` per
position, ``Cyclotomic`` and ``Fraction`` arithmetic per value, and
indexing.  The functions are built from values and from columns over an
unreduced denominator, so that the lcm, the cross-multiplication and the
zero padding of a narrower (rational) function all run."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charkit.fourier import GridFunction, Values, _from_lattice, _lattice_of, _power_basis, _width
from charkit.fourier import forward
from charkit.geometry import Ambient
from charkit.scalars import Cyclotomic, _reduce_ext

FIXED = settings(derandomize=True, database=None, deadline=None)

# Prime and ring grids: (2,3), (3,2), (5,2), (7,1), Z_4^2, Z_9^2 and Z_8.
GRIDS = [Ambient(2, 3), Ambient(3, 2), Ambient(5, 2), Ambient(7, 1), Ambient(2, 2, 2),
         Ambient(3, 2, 2), Ambient(2, 1, 3)]
# Zero, denominator 1, negative and multi-digit values.
fractions = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3)]) | (
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=60)
)


@st.composite
def functions(draw, ambient, kind=None):
    """An exact function on ``ambient`` from a small pool of coefficients,
    some of its values zero.  Half of them are rebuilt from their columns
    times a factor k over k times their denominator, the unreduced form a
    run leaves."""
    kind = kind or draw(st.sampled_from(["rational", "cyclotomic"]))
    pool = draw(st.lists(fractions, min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    width = ambient.modulus - ambient.modulus // ambient.p if kind == "cyclotomic" else 1
    rows = [[rng.choice(pool) if rng.random() < 0.7 else 0 for _ in range(width)]
            for _ in range(ambient.size)]
    if kind == "rational":
        f = GridFunction(ambient, kind, [row[0] for row in rows])
    else:
        f = GridFunction(ambient, kind, [Cyclotomic(ambient.p, row, ambient.ell) for row in rows])
    k = draw(st.sampled_from([1, 1, 2, 3, 6]))
    if k == 1:
        return f
    den, cols = _lattice_of(f)
    return _from_lattice(ambient, [[k * c for c in col] for col in cols], k * den, kind)


@st.composite
def pairs(draw):
    """Two exact functions on one grid, of any two kinds."""
    ambient = draw(st.sampled_from(GRIDS))
    return draw(functions(ambient)), draw(functions(ambient))


def _values(f, kind):
    """The values of f promoted to ``kind``, one by one."""
    if kind == "rational":
        return f.values
    p, ell = f.ambient.p, f.ambient.ell
    return tuple(
        v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(p, v, ell) for v in f.values
    )


# --- the plane reduction


@settings(FIXED, max_examples=120)
@given(st.sampled_from([(2, 1), (3, 1), (7, 1), (13, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2)]),
       st.integers(1, 12), st.integers(0, 2**32))
def test_the_plane_reduction_is_the_reduction_of_each_position(pl, n, seed):
    p, ell = pl
    q = p**ell
    rng = random.Random(seed)
    planes = [[rng.randint(-(10**12), 10**12) * rng.randint(0, 1) for _ in range(n)]
              for _ in range(q)]
    got = list(zip(*_power_basis(planes, p)))
    assert got == [_reduce_ext(p, ell, list(position)) for position in zip(*planes)]


# --- the Galois action


@settings(FIXED, max_examples=40)
@given(st.sampled_from(GRIDS).flatmap(lambda a: functions(a, "cyclotomic")))
def test_galois_of_every_unit_is_the_galois_action_of_each_value(f):
    p, q = f.ambient.p, f.ambient.modulus
    for r in range(1, q):
        if r % p:
            g = f.galois(r)
            assert g.kind == "cyclotomic"
            assert g.values == tuple(v.galois(r) for v in f.values), r


@settings(FIXED, max_examples=20)
@given(st.sampled_from(GRIDS).flatmap(lambda a: functions(a, "rational")))
def test_galois_acts_on_the_spectrum_of_a_rational_function(f):
    F = forward(f)
    p, q = f.ambient.p, f.ambient.modulus
    for r in range(1, q):
        if r % p:
            assert F.galois(r).values == tuple(v.galois(r) for v in F.values), r
            assert f.galois(r) is f


# --- +, -, unary -, == and agrees


@settings(FIXED, max_examples=150)
@given(pairs())
def test_sum_and_difference_are_those_of_the_values(fg):
    f, g = fg
    kind = "cyclotomic" if "cyclotomic" in (f.kind, g.kind) else "rational"
    a, b = _values(f, kind), _values(g, kind)
    for got, op in ((f + g, operator.add), (f - g, operator.sub)):
        assert got.kind == kind
        assert got.values == tuple(map(op, a, b))


@settings(FIXED, max_examples=60)
@given(st.sampled_from(GRIDS).flatmap(functions))
def test_negation_is_that_of_the_values(f):
    got = -f
    assert got.kind == f.kind
    assert got.values == tuple(-v for v in f.values)


@settings(FIXED, max_examples=150)
@given(pairs())
def test_equality_and_agreement_are_those_of_the_values(fg):
    f, g = fg
    want = tuple(map(operator.eq, _values(f, "cyclotomic"), _values(g, "cyclotomic")))
    assert f.agrees(g) == want
    assert g.agrees(f) == want
    assert (f == g) == all(want)
    # a function agrees with itself rebuilt over another denominator and width
    same = GridFunction(f.ambient, "cyclotomic", _values(f, "cyclotomic"))
    assert f.agrees(same) == same.agrees(f) == (True,) * f.ambient.size
    assert f == same and same == f


def _no_values(ambient, kind: str) -> list:
    """The lattice columns of no value of ``kind``: its width of empty columns."""
    return [[] for _ in range(_width(kind, ambient))]


@pytest.mark.parametrize("ambient", GRIDS[:2], ids=str)
def test_two_empty_holders_are_equal_and_agree_nowhere(ambient):
    """No value to compare: equal holders of any two kinds, and an empty
    agreement over one denominator and over two."""
    empty = [Values(ambient, kind, []) for kind in ("rational", "cyclotomic", "complex")]
    empty.append(_from_lattice(ambient, _no_values(ambient, "cyclotomic"), 6, "cyclotomic"))
    for f in empty:
        for g in empty:
            assert f == g
    exact = [
        _from_lattice(ambient, _no_values(ambient, "rational"), 1, "rational"),
        _from_lattice(ambient, _no_values(ambient, "cyclotomic"), 6, "cyclotomic"),
    ]
    for f in exact:
        for g in exact:
            assert f.agrees(g) == ()
    assert Values(ambient, "rational", []) != Values(ambient, "rational", [1])


@pytest.mark.parametrize("ambient", GRIDS[:2], ids=str)
def test_empty_holders_take_their_width_from_their_kind(ambient):
    """Empty columns demoted are rational, and scale, +, - and unary minus
    on an empty exact holder give an empty holder of the joined kind."""
    demoted = Values._from_lattice(ambient, _no_values(ambient, "cyclotomic"), 1)
    assert (demoted.kind, len(demoted), demoted.values) == ("rational", 0, ())
    rational = _from_lattice(ambient, _no_values(ambient, "rational"), 3, "rational")
    cyclotomic = _from_lattice(ambient, _no_values(ambient, "cyclotomic"), 6, "cyclotomic")
    for f in (rational, cyclotomic):
        for g in (f.scale(2), f.scale(Fraction(-5, 7)), -f):
            assert (g.kind, g.values) == (f.kind, ())
        for g in (rational, cyclotomic):
            kind = "cyclotomic" if "cyclotomic" in (f.kind, g.kind) else "rational"
            for h in (f + g, f - g):
                assert (h.kind, h.values) == (kind, ())


# --- scale by a rational factor


@settings(FIXED, max_examples=80)
@given(st.sampled_from(GRIDS).flatmap(functions),
       st.sampled_from([0, -1, -3, 5, Fraction(-2, 3), Fraction(7, 4), Fraction(0, 5)]))
def test_scale_by_a_rational_factor_is_that_of_the_values(f, factor):
    got = f.scale(factor)
    assert got.kind == f.kind
    if f.kind == "rational":
        assert got.values == tuple(factor * v for v in f.values)
    else:
        assert got.values == tuple(v.scale(factor) for v in f.values)


# --- take


@settings(FIXED, max_examples=40)
@given(st.sampled_from(GRIDS).flatmap(functions), st.integers(0, 2**32))
def test_take_is_indexing(f, seed):
    rng = random.Random(seed)
    src = [rng.randrange(f.ambient.size) for _ in range(f.ambient.size)]
    got = f.take(f.ambient, src)
    assert got.kind == f.kind
    assert got.values == tuple(f.values[i] for i in src)
