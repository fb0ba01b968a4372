from fractions import Fraction

import pytest

from charkit.corpus import random_complex_function, random_rational_function, rng_for
from charkit.fourier import GridFunction, forward, inverse
from charkit.geometry import (
    Ambient,
    dot,
    enumerate_lines,
    hyperplane_points,
    line_through,
    vadd,
    valuation,
    vector_valuation,
)
from charkit import multiscale
from charkit.multiscale import (
    LevelWaveletResult,
    is_level_l_wavelet,
    multiscale_decompose,
    norm,
    unit_count,
)
from charkit.scalars import Cyclotomic


def test_valuation_and_norm():
    a = Ambient(2, 2, 2)
    assert valuation(a, 2) == 1 and norm(a, 2) == Fraction(1, 2)
    assert valuation(a, 3) == 0 and norm(a, 3) == 1
    assert valuation(a, 0) == 2 and norm(a, 0) == 0  # sentinel for zero
    a9 = Ambient(3, 1, 2)
    assert valuation(a9, 6) == 1  # 6 = 3 * 2 with 2 a unit mod 9


def test_valuation_range_and_strata():
    for p in (2, 3):
        a = Ambient(p, 1, 2)
        q = p * p
        strata = {}
        for n in range(1, q):
            strata.setdefault(valuation(a, n), []).append(n)
        assert set(strata) == {0, 1}
        assert len(strata[0]) == q - p and len(strata[1]) == p - 1


def test_unit_count_matches_enumeration():
    for p, ell in [(2, 2), (3, 2), (2, 3)]:
        a = Ambient(p, 1, ell)
        enumerated = sum(1 for n in range(a.modulus) if valuation(a, n) == 0)
        assert enumerated == unit_count(a) == p ** ell - p ** (ell - 1)


def test_vector_valuation():
    a = Ambient(2, 2, 2)
    assert vector_valuation(a, (2, 1)) == 0
    assert vector_valuation(a, (2, 0)) == 1


def test_hyperplane_sizes_examples():
    a = Ambient(2, 2, 2)
    h = hyperplane_points(a, (1, 0), 0)
    assert len(h) == 4 and h == {(0, y) for y in range(4)}
    h2 = hyperplane_points(a, (2, 0), 0)
    assert len(h2) == 8 and h2 == {(x, y) for x in (0, 2) for y in range(4)}
    a9 = Ambient(3, 2, 2)
    assert len(hyperplane_points(a9, (1, 3), 0)) == 9


def test_hyperplane_sizes_all_nonzero_directions():
    a = Ambient(2, 2, 2)
    for v in a.points():
        if any(v):
            expected = 2 ** (2 * 1 + vector_valuation(a, v))
            assert len(hyperplane_points(a, v, 0)) == expected
    with pytest.raises(ValueError):
        hyperplane_points(a, (0, 0), 0)


def test_line_cardinality_and_levels():
    a = Ambient(2, 2, 2)
    for v in a.points():
        if any(v):
            line = line_through(a, v)
            assert len(line.points(a)) == 2 ** line.level(a)
            assert line.level(a) == 2 - vector_valuation(a, v)


def test_line_through_is_canonical():
    a = Ambient(2, 2, 2)
    for v in a.points():
        if not any(v):
            continue
        gen = line_through(a, v).rep
        # same line, and every unit multiple canonicalizes identically
        assert line_through(a, v).points(a) == line_through(a, gen).points(a)
        for u in (1, 3):
            scaled = tuple(u * c % 4 for c in v)
            assert line_through(a, scaled).rep == gen


def test_affine_line_nesting():
    # every affine level-2 line splits into 2 disjoint affine level-1 lines
    a = Ambient(2, 2, 2)
    q = 4
    level2 = [l for l in enumerate_lines(a) if l.level(a) == 2]
    for line in level2:
        for w in a.points():
            affine = {tuple((c + s) % q for c, s in zip(x, w)) for x in line.points(a)}
            sub = line_through(a, tuple(2 * c % q for c in line.rep))
            pieces = set()
            for x in affine:
                piece = frozenset(
                    tuple((c + s) % q for c, s in zip(y, x)) for y in sub.points(a)
                )
                pieces.add(piece)
            assert len(pieces) == 2
            assert set().union(*pieces) == affine
            assert sum(len(p) for p in pieces) == len(affine)


def test_transform_round_trip_exact():
    a = Ambient(2, 2, 2)
    for i in range(20):
        rng = rng_for(700, f"rt/{i}")
        vals = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(16)]
        f = GridFunction(a, "rational", vals)
        F = forward(f)
        assert inverse(F) == f
        assert F.values[0].rational_part() == f.total() / 16


def test_transform_constant_and_delta():
    a = Ambient(2, 2, 2)
    Fc = forward(GridFunction.constant(a, 1))
    assert Fc.values[0].rational_part() == 1
    assert all(v.is_zero() for v in Fc.values[1:])
    Fd = forward(GridFunction.delta(a, a.origin()))
    assert all(v.rational_part() == Fraction(1, 16) for v in Fd.values)


def test_level_wavelet_from_hyperplane_family():
    a = Ambient(2, 2, 2)
    f = GridFunction.indicator(a, [x for x in a.points() if x[0] == 1])
    res = is_level_l_wavelet(f, forward(f))
    assert res.is_wavelet and res.generator == (1, 0) and res.level == 2
    assert res.spatial_matches
    coeffs = dict(res.coeffs)
    assert coeffs[1] == 1 and coeffs[0] == 0
    # spectrum side: support inside the line through (1,0)
    F = forward(f)
    line_pts = line_through(a, (1, 0)).points(a)
    assert set(F.support()) <= set(line_pts)


def test_level_wavelet_absent_for_two_directions():
    a = Ambient(2, 2, 2)
    f1 = GridFunction.indicator(a, [x for x in a.points() if x[0] == 1])
    f2 = GridFunction.indicator(a, [x for x in a.points() if x[1] == 3])
    f = f1 + f2
    assert not is_level_l_wavelet(f, forward(f)).is_wavelet


def test_level_wavelet_constant_flagged():
    a = Ambient(2, 2, 2)
    c = GridFunction.constant(a, Fraction(3, 2))
    res = is_level_l_wavelet(c, forward(c))
    assert res.is_wavelet and res.is_constant


def test_level_wavelet_modulated_offset_line():
    # spectrum on an affine line missing the origin: wavelet by the spectral
    # definition, but with no plain hyperplane form
    a = Ambient(2, 2, 2)
    vals = [Cyclotomic.zero(2, ell=2)] * 16
    vals[a.index_of((1, 1))] = Cyclotomic.one(2, ell=2)
    vals[a.index_of((1, 2))] = Cyclotomic.zeta(2, 1, ell=2)
    F = GridFunction(a, "cyclotomic", vals)
    f = inverse(F)
    res = is_level_l_wavelet(f, forward(f))
    assert res.is_wavelet and res.offset is not None and res.coeffs is None


def test_multiscale_constant():
    a = Ambient(2, 2, 2)
    c = GridFunction.constant(a, Fraction(7, 3))
    parts = multiscale_decompose(forward(c))
    assert len(parts) == 1 and parts[0].is_constant
    assert parts[0].function == c


def test_multiscale_single_wavelet_returned_as_itself():
    a = Ambient(2, 2, 2)
    f = GridFunction.indicator(a, [x for x in a.points() if x[0] == 1])
    parts = multiscale_decompose(forward(f))
    assert len(parts) == 1
    assert parts[0].function == f
    assert parts[0].level == 2 and parts[0].generator == (1, 0)


def test_multiscale_round_trip_2_2_2():
    a = Ambient(2, 2, 2)
    for i in range(100):
        rng = rng_for(701, f"ms/{i}")
        vals = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(16)]
        f = GridFunction(a, "rational", vals)
        parts = multiscale_decompose(forward(f))
        acc = None
        for part in parts:
            assert part.is_constant or part.level in (1, 2)
            acc = part.function if acc is None else acc + part.function
        assert acc == f


def test_multiscale_round_trip_3_2_1():
    a = Ambient(3, 1, 2)
    for i in range(100):
        rng = rng_for(702, f"ms91/{i}")
        vals = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(9)]
        f = GridFunction(a, "rational", vals)
        parts = multiscale_decompose(forward(f))
        acc = None
        for part in parts:
            acc = part.function if acc is None else acc + part.function
        assert acc == f


def test_multiscale_parts_are_level_wavelets():
    # every non-constant part has its spectrum inside one line through 0
    a = Ambient(2, 2, 2)
    rng = rng_for(703, "partcheck")
    vals = [Fraction(rng.randint(-9, 9)) for _ in range(16)]
    f = GridFunction(a, "rational", vals)
    for part in multiscale_decompose(forward(f)):
        if part.is_constant:
            continue
        F = forward(part.function)
        line_pts = line_through(a, part.generator).points(a)
        assert set(F.support()) <= set(line_pts)
        assert part.level == line_through(a, part.generator).level(a)


@pytest.mark.parametrize("p,d,ell", [(2, 2, 2), (3, 1, 2), (2, 1, 3)])
def test_multiscale_takes_a_rational_spectrum(p, d, ell):
    """A spectrum of rational kind is split like its cyclotomic promotion,
    and its parts sum to its inverse; the origin's value is read by the
    number protocol, which rational values speak too."""
    a = Ambient(p, d, ell)
    rng = rng_for(705, f"rational-spectrum/{p}/{d}/{ell}")
    spectra = [
        GridFunction(a, "rational", [Fraction(1)] * a.size),
        GridFunction(a, "rational", [Fraction(rng.randint(-3, 3), 2) for _ in range(a.size)]),
    ]
    for F in spectra:
        parts = multiscale_decompose(F)
        acc = None
        for part in parts:
            acc = part.function if acc is None else acc + part.function
        assert acc == inverse(F)
        assert parts == multiscale_decompose(F.to_cyclotomic())


def test_exponent_three_smoke():
    # l = 3: three scales; transform and decomposition still exact
    a = Ambient(2, 1, 3)
    assert unit_count(a) == 4
    for v in range(1, 8):
        line = line_through(a, (v,))
        assert len(line.points(a)) == 2 ** line.level(a)
    rng = rng_for(704, "l3")
    vals = [Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(8)]
    f = GridFunction(a, "rational", vals)
    assert inverse(forward(f)) == f
    parts = multiscale_decompose(forward(f))
    acc = None
    for part in parts:
        acc = part.function if acc is None else acc + part.function
    assert acc == f


def test_ring_ambient_validation():
    with pytest.raises(ValueError):
        Ambient(4, 1, 2)
    with pytest.raises(ValueError):
        Ambient(2, 1, 0)
    with pytest.raises(ValueError):
        Ambient(2, 0, 2)


def test_multiscale_rejects_complex_input():
    f = random_complex_function(Ambient(2, 2, 2), rng_for(415, "cplx"))
    with pytest.raises(ValueError):
        multiscale_decompose(forward(f))
    with pytest.raises(ValueError):
        is_level_l_wavelet(f, forward(f))


# --- differential reference --------------------------------------------------
# The decomposition with one full d-axis inverse per part, and the wavelet
# test that scans the grid for the hyperplane form and builds every coset of
# every unit line.  multiscale.py builds each part on its own line and finds
# an affine line with a difference test; both must agree with these.


def _reference_decompose(f):
    ambient = f.ambient
    F = forward(f)
    origin = ambient.origin()
    unclaimed = {x for x in F.support() if x != origin}
    zero = Cyclotomic.zero(ambient.p, ambient.ell)

    def restriction(points):
        vals = [
            F.values[ambient.index_of(x)] if x in points else zero
            for x in ambient.points()
        ]
        return inverse(GridFunction(ambient, "cyclotomic", vals))

    claims = []
    for j in range(ambient.ell):
        level = ambient.ell - j
        for line in enumerate_lines(ambient):
            if line.level(ambient) != level:
                continue
            mine = unclaimed.intersection(line.points(ambient))
            if any(vector_valuation(ambient, x) == j for x in mine):
                unclaimed -= mine
                claims.append((level, line.rep, mine))
    assert not unclaimed
    if len(claims) == 1:
        level, gen, pts = claims[0]
        return [(level, gen, restriction(pts | {origin}))]
    parts = [(level, gen, restriction(pts)) for level, gen, pts in claims]
    if not claims or not F.values[0].is_zero():
        parts.append((None, None, restriction({origin})))
    return parts


def _reference_wavelet(f):
    ambient = f.ambient
    q = ambient.modulus
    supp = set(forward(f).support())
    if not (supp - {ambient.origin()}):
        return LevelWaveletResult(True, is_constant=True, spatial_matches=True)
    unit_lines = [l for l in enumerate_lines(ambient) if l.level(ambient) == ambient.ell]
    for line in unit_lines:
        if supp.issubset(line.points(ambient)):
            v = line.rep
            coeff_map = {}
            for x, value in zip(ambient.points(), f.values):
                coeff_map.setdefault(dot(x, v, q), value)
            matches = all(
                coeff_map[dot(x, v, q)] == value for x, value in zip(ambient.points(), f.values)
            )
            return LevelWaveletResult(
                True,
                generator=v,
                level=ambient.ell,
                coeffs=tuple(sorted(coeff_map.items())) if matches else None,
                spatial_matches=matches,
            )
    for line in unit_lines:
        base = line.points(ambient)
        for w in ambient.points():
            coset = frozenset(tuple((a + b) % q for a, b in zip(w, pt)) for pt in base)
            if supp <= coset:
                return LevelWaveletResult(
                    True, generator=line.rep, offset=min(coset), level=ambient.ell
                )
    return LevelWaveletResult(False)


def _differential_inputs(a, rng):
    """Random, sparse-spectrum, and on-a-line (through the origin, and
    modulated onto an offset line) functions, and one whose parts mix kinds:
    a rational part on a lower-level line (a unit line on Z_p**d) and a
    cyclotomic one elsewhere."""
    p, ell, q = a.p, a.ell, a.modulus

    def from_spectrum(freqs):
        vals = [Cyclotomic.zero(p, ell)] * a.size
        for m, value in freqs.items():
            vals[a.index_of(m)] = value
        return inverse(GridFunction(a, "cyclotomic", vals))

    def zeta():
        return Cyclotomic.zeta(p, rng.randrange(q), ell)

    yield random_rational_function(a, rng)
    nonzero = [x for x in a.points() if any(x)]
    deep = [x for x in nonzero if vector_valuation(a, x) > 0]
    some = rng.sample(deep, min(2, len(deep))) + rng.sample(nonzero, 2)  # no deep point at ell = 1
    yield from_spectrum({m: zeta() for m in some})
    units = [l for l in enumerate_lines(a) if l.level(a) == ell]
    low = [l for l in enumerate_lines(a) if l.level(a) < ell]
    for offset in ((0,) * a.d, tuple(rng.randrange(q) for _ in range(a.d))):
        pts = rng.choice(units).points(a)
        yield from_spectrum({vadd(offset, m, q): zeta() for m in rng.sample(pts, 3)})
    mixed = {m: Cyclotomic.one(p, ell) for m in rng.choice(low or units).points(a)}
    mixed[rng.choice([x for x in nonzero if x not in deep])] = zeta()
    yield from_spectrum(mixed)


DIFFERENTIAL_GRIDS = [(3, 2, 2), (2, 2, 3), (2, 3, 2), (5, 1, 2), (3, 1, 3), (3, 2, 1), (5, 2, 1)]


@pytest.mark.parametrize("p,d,ell", DIFFERENTIAL_GRIDS)
def test_line_parts_match_full_inverse_reference(p, d, ell):
    a = Ambient(p, d, ell)
    rng = rng_for(705, f"differential/{p},{d},{ell}")
    for f in _differential_inputs(a, rng):
        F = forward(f)
        got = [
            (part.level, part.generator, part.function.kind, part.function.values)
            for part in multiscale_decompose(F)
        ]
        want = [(lv, gen, g.kind, g.values) for lv, gen, g in _reference_decompose(f)]
        assert got == want
        assert is_level_l_wavelet(f, F) == _reference_wavelet(f)


@pytest.mark.parametrize("p,d,ell", DIFFERENTIAL_GRIDS)
def test_multiscale_decompose_makes_one_transform(monkeypatch, p, d, ell):
    """Every part comes from one length-q inverse pass over the stacked
    lines of all parts, however many parts there are."""
    a = Ambient(p, d, ell)
    runs = []
    transform = multiscale._exact_transform

    def counted(*args):
        runs.append(args)
        return transform(*args)

    monkeypatch.setattr(multiscale, "_exact_transform", counted)
    for f in _differential_inputs(a, rng_for(706, f"one-run/{p},{d},{ell}")):
        F = forward(f)
        runs.clear()
        parts = multiscale_decompose(F)
        assert len(runs) == 1
        assert {*map(len, runs[0][0])} == {a.modulus * len(parts)}
        acc = parts[0].function
        for part in parts[1:]:
            acc = acc + part.function
        assert acc == f
