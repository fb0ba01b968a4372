from fractions import Fraction

import pytest

from charkit.corpus import (
    random_complex_function,
    random_cyclotomic_function,
    random_density,
    random_rational_function,
    rng_for,
    staircase_function,
)
from charkit.errors import SinogramError
from charkit.fourier import GridFunction, forward
from charkit.geometry import (
    Ambient,
    ProjectiveLine,
    enumerate_lines,
    hyperplane_points,
    line_through,
    vscale,
)
from charkit.scalars import Cyclotomic, complex_close
from charkit.wavelets import (
    Decomposition,
    MassTable,
    Wavelet,
    associated_wavelet,
    decompose,
    is_wavelet,
    mass_table,
    masses,
    reconstruct_from_masses,
)


def rational_rank(rows):
    """Row rank over Q by fraction-exact Gaussian elimination (test oracle)."""
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [c * inv for c in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_wavelet_with_equal_coefficients_is_constant():
    amb = Ambient(3, 2)
    w = Wavelet(amb, ProjectiveLine((1, 1)), (Fraction(2),) * 3)
    assert w.evaluate() == GridFunction.constant(amb, Fraction(2))


def test_wavelet_single_hyperplane():
    amb = Ambient(3, 2)
    w = Wavelet(amb, ProjectiveLine((1, 0)), (0, Fraction(1), 0))
    assert w.evaluate() == GridFunction.indicator(amb, hyperplane_points(amb, (1, 0), 1))


def test_wavelet_spectrum_lives_on_its_line():
    amb = Ambient(3, 2)
    w = Wavelet(amb, ProjectiveLine((1, 1)), (Fraction(0), Fraction(1, 3), Fraction(2, 3)))
    F = forward(w.evaluate())
    line_pts = {vscale(k, (1, 1), 3) for k in range(3)}
    for m in amb.points():
        if m not in line_pts:
            assert F.value_at(m).is_zero()


def test_wavelet_form_validation():
    amb = Ambient(3, 2)
    with pytest.raises(ValueError):
        Wavelet(amb, ProjectiveLine((1, 0)), (1, 0, 0), form="reduced")
    with pytest.raises(ValueError):
        Wavelet(amb, ProjectiveLine((1, 0)), (1, 1, 0), form="massless")
    with pytest.raises(ValueError):
        Wavelet(amb, ProjectiveLine((1, 0)), (1, 0))


def test_wavelets_are_defined_on_prime_grids_only():
    """On Z_4**2 the labels x.s run over Z_4, and p = 2 coefficients cannot
    cover them."""
    with pytest.raises(ValueError, match="ring grid Z_4"):
        Wavelet(Ambient(2, 2, 2), ProjectiveLine((1, 0)), (0, 1))


def test_masses_of_constant():
    amb = Ambient(3, 2)
    assert masses(GridFunction.constant(amb, Fraction(2)), (1, 2)) == (6, 6, 6)


def test_masses_staircase_direction_1_0():
    assert masses(staircase_function(3), (1, 0)) == (0, 1, 2)


def test_mass_direction_must_be_nonzero():
    with pytest.raises(ValueError):
        masses(staircase_function(3), (0, 0))


def test_wavelet_lemma_identity():
    # F(k*s) = (1/p) sum_t chi(-k t) m_{s,t} / p**(d-1), all s and k, exactly
    for i in range(20):
        rng = rng_for(400, f"lemma/{i}")
        p, d = [(3, 2), (5, 2), (3, 3), (2, 3)][i % 4]
        amb = Ambient(p, d)
        f = random_rational_function(amb, rng)
        F = forward(f)
        cell = Fraction(1, p ** (d - 1))
        for line in enumerate_lines(amb):
            ms = masses(f, line.rep)
            for k in range(p):
                acc = Cyclotomic.zero(p)
                for t, m in enumerate(ms):
                    acc = acc + Cyclotomic.zeta(p, -k * t).scale(cell * m)
                acc = acc.scale(Fraction(1, p))
                assert F.value_at(vscale(k, line.rep, p)) == acc


def test_associated_wavelet_of_wavelet_is_itself():
    amb = Ambient(3, 2)
    w = Wavelet(amb, ProjectiveLine((1, 2)), (Fraction(1, 2), Fraction(0), Fraction(3)))
    again = associated_wavelet(w.evaluate(), (1, 2))
    assert again.coeffs == w.coeffs
    assert again.evaluate() == w.evaluate()


def test_associated_wavelet_of_constant():
    amb = Ambient(3, 2)
    aw = associated_wavelet(GridFunction.constant(amb, Fraction(5)), (0, 1))
    assert aw.coeffs == (Fraction(5),) * 3


def test_associated_wavelet_agrees_on_line():
    rng = rng_for(401, "assoc")
    amb = Ambient(5, 2)
    f = random_rational_function(amb, rng)
    s = (2, 3)
    w = associated_wavelet(f, s)
    assert w.mass == f.total()
    F, W = forward(f), forward(w.evaluate())
    line = line_through(amb, s)
    for k in range(5):
        pt = vscale(k, line.rep, 5)
        assert F.value_at(pt) == W.value_at(pt)


def test_decompose_constant_has_no_parts():
    amb = Ambient(3, 2)
    c = GridFunction.constant(amb, Fraction(4, 3))
    for form in ("plain", "reduced", "massless"):
        dec = decompose(c, form)
        assert dec.parts == () and dec.constant == Fraction(4, 3)
        assert dec.evaluate() == c


def test_decompose_staircase_reduced_closed_form():
    for p in (3, 5, 7):
        f = staircase_function(p)
        dec = decompose(f, "reduced")
        assert dec.constant == 0 and dec.cbw == 3
        expect = {
            (0, 1): tuple(Fraction(i, p) for i in range(p)),
            (1, 0): tuple(Fraction(i, p) for i in range(p)),
            (1, 1): tuple(Fraction(-i, p) for i in range(p)),
        }
        assert {w.direction.rep: w.coeffs for w in dec.parts} == expect
        assert dec.evaluate() == f


def test_decompose_round_trips_all_forms():
    for i in range(60):
        rng = rng_for(402, f"dec/{i}")
        p, d = [(3, 2), (5, 2), (3, 3), (5, 3)][i % 4]
        f = random_rational_function(Ambient(p, d), rng)
        for form in ("plain", "reduced", "massless"):
            dec = decompose(f, form)
            assert dec.evaluate() == f
            assert dec.cbw == len(dec.parts)


def test_massless_parts_have_zero_mass_and_constant_carries_it():
    rng = rng_for(403, "massless")
    f = random_rational_function(Ambient(5, 2), rng)
    dec = decompose(f, "massless")
    for w in dec.parts:
        assert w.mass == 0
    assert dec.constant * 25 == f.total()


def test_reduced_decomposition_unique_perturbation_breaks_it():
    rng = rng_for(404, "perturb")
    f = random_rational_function(Ambient(3, 2), rng)
    dec = decompose(f, "reduced")
    assert dec.parts, "need a non-constant sample"
    w0 = dec.parts[0]
    coeffs = list(w0.coeffs)
    coeffs[1] = coeffs[1] + Fraction(1, 7)
    perturbed = Decomposition(
        dec.ambient,
        "reduced",
        dec.constant,
        (Wavelet(w0.ambient, w0.direction, tuple(coeffs), "reduced"),) + dec.parts[1:],
    )
    assert perturbed.evaluate() != f


def test_wavelet_basis_dimensions():
    # span of the p hyperplane indicators has rank p; the reduced family p-1
    for p, d in [(3, 2), (3, 3), (5, 2), (5, 3)]:
        amb = Ambient(p, d)
        s = enumerate_lines(amb)[-1].rep
        rows = [
            GridFunction.indicator(amb, hyperplane_points(amb, s, t)).values
            for t in range(p)
        ]
        assert rational_rank(rows) == p
        assert rational_rank(rows[1:]) == p - 1


def test_function_space_dimension_accounting():
    # 1 + (p-1) * number_of_lines = p**d, the direct-sum dimension count
    for p, d in [(2, 2), (3, 2), (3, 3), (5, 2)]:
        amb = Ambient(p, d)
        assert 1 + (p - 1) * len(enumerate_lines(amb)) == amb.size


def test_rationality_transfer_through_masses():
    rng = rng_for(405, "ratl")
    amb = Ambient(3, 2)
    f = random_rational_function(amb, rng)
    table = mass_table(f)
    assert all(isinstance(m, Fraction) for _, ms in table.rows for m in ms)
    g = random_cyclotomic_function(amb, rng)
    is_rational = all(v.is_rational() for v in g.values)
    table_rational = all(
        m.is_rational() for _, ms in mass_table(g).rows for m in ms
    )
    assert table_rational == is_rational


def test_density_decomposes_into_density_parts():
    rng = rng_for(406, "density")
    for _ in range(10):
        f = random_density(Ambient(3, 2), rng)
        dec = decompose(f, "plain")
        for w in dec.parts:
            assert all(c >= 0 for c in w.coeffs)
            assert w.mass == 1  # each part carries the full mass of the density
        assert dec.evaluate() == f


def test_mass_table_round_trip_and_consistency():
    rng = rng_for(407, "tomo")
    for i in range(30):
        p, d = [(2, 2), (3, 2), (5, 2), (3, 3)][i % 4]
        f = random_rational_function(Ambient(p, d), rng)
        table = mass_table(f)
        assert len(set(table.totals())) == 1
        assert reconstruct_from_masses(table) == f


def test_tomography_of_staircase():
    f = staircase_function(3)
    assert reconstruct_from_masses(mass_table(f)) == f


def test_corrupted_sinogram_rejected():
    f = staircase_function(3)
    table = mass_table(f)
    rows = list(table.rows)
    line, ms = rows[2]
    rows[2] = (line, (ms[0] + Fraction(1, 2),) + ms[1:])
    with pytest.raises(SinogramError):
        reconstruct_from_masses(MassTable(table.ambient, tuple(rows)))


def _shift_one_mass(table, shift):
    rows = list(table.rows)
    line, ms = rows[-1]
    rows[-1] = (line, ms[:-1] + (ms[-1] + shift,))
    return MassTable(table.ambient, tuple(rows))


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (2, 4)])
def test_inconsistent_sinogram_rejected_for_every_kind(p, d):
    amb = Ambient(p, d)
    rng = rng_for(409, f"incons{p}{d}")
    exact = (
        mass_table(random_rational_function(amb, rng)),
        mass_table(random_cyclotomic_function(amb, rng)),
    )
    z = Cyclotomic.zeta(p)
    for table in exact:
        for shift in (Fraction(1, 7), z, z - 1):
            with pytest.raises(SinogramError) as err:
                reconstruct_from_masses(_shift_one_mass(table, shift))
            assert "totals disagree" in str(err.value)
    table = mass_table(random_complex_function(amb, rng))
    with pytest.raises(SinogramError):
        reconstruct_from_masses(_shift_one_mass(table, 1e-3j))
    with pytest.raises(SinogramError):
        reconstruct_from_masses(_shift_one_mass(table, 1e-6), tol=1e-8)
    assert reconstruct_from_masses(_shift_one_mass(table, 1e-12)).isclose(
        reconstruct_from_masses(table)
    )


def test_incomplete_sinogram_rejected():
    f = staircase_function(3)
    table = mass_table(f)
    with pytest.raises(SinogramError) as err:
        reconstruct_from_masses(MassTable(table.ambient, table.rows[1:]))
    assert "missing" in str(err.value)


def _ramp_table():
    f = GridFunction(Ambient(3, 2), "rational", range(9))
    return f, mass_table(f)


def test_sinogram_with_a_repeated_direction_rejected():
    # The rotated copy keeps the row total, so only the shape check sees it.
    _, table = _ramp_table()
    line, ms = table.rows[0]
    rows = table.rows + ((line, ms[1:] + ms[:1]),)
    with pytest.raises(SinogramError, match=r"direction \[0, 1\] appears twice"):
        reconstruct_from_masses(MassTable(table.ambient, rows))


def test_sinogram_with_a_non_canonical_direction_rejected():
    _, table = _ramp_table()
    rows = table.rows + ((ProjectiveLine((2, 2)), table.rows[0][1]),)
    with pytest.raises(SinogramError, match=r"direction \[2, 2\] is not a canonical line"):
        reconstruct_from_masses(MassTable(table.ambient, rows))


def test_sinogram_row_of_the_wrong_length_rejected():
    _, table = _ramp_table()
    rows = list(table.rows)
    line, ms = rows[1]
    rows[1] = (line, ms + (0,))
    with pytest.raises(SinogramError, match=r"direction \[1, 0\] has 4 masses, not 3"):
        reconstruct_from_masses(MassTable(table.ambient, tuple(rows)))


def test_sinogram_on_a_ring_grid_rejected():
    amb = Ambient(3, 2, 2)
    rows = tuple((line, (0,) * 3) for line in enumerate_lines(amb))
    with pytest.raises(ValueError, match=r"Z_p\*\*d only") as err:
        reconstruct_from_masses(MassTable(amb, rows))
    assert not isinstance(err.value, SinogramError)


def test_all_masses_constant_reconstructs_constant():
    amb = Ambient(3, 2)
    rows = tuple(
        (line, (Fraction(6),) * 3) for line in enumerate_lines(amb)
    )
    f = reconstruct_from_masses(MassTable(amb, rows))
    assert f == GridFunction.constant(amb, Fraction(2))


def test_complex_functions_decompose_and_reconstruct():
    amb = Ambient(3, 2)
    f = random_complex_function(amb, rng_for(408, "cplx"))
    for form in ("plain", "reduced", "massless"):
        assert decompose(f, form).evaluate().isclose(f)
    assert reconstruct_from_masses(mass_table(f)).isclose(f)


def test_is_wavelet_detection():
    amb = Ambient(3, 2)
    h = GridFunction.indicator(amb, hyperplane_points(amb, (1, 2), 0))
    res = is_wavelet(h)
    assert res.line and res.line.rep == (1, 2)
    w1 = Wavelet(amb, ProjectiveLine((1, 0)), (0, Fraction(1), 0)).evaluate()
    w2 = Wavelet(amb, ProjectiveLine((0, 1)), (0, Fraction(1), 0)).evaluate()
    assert is_wavelet(w1 + w2).line is None
    assert is_wavelet(GridFunction.constant(amb, 3)).is_constant


MASS_GRIDS = [(2, 1), (3, 1), (2, 6), (3, 4), (5, 3), (7, 2)]


def _mixed_cyclotomic_function(ambient, rng):
    """Cyclotomic values whose coefficients have mixed denominators."""
    vals = [
        Cyclotomic(
            ambient.p,
            [
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 7)))
                for _ in range(ambient.p - 1)
            ],
        )
        for _ in range(ambient.size)
    ]
    return GridFunction(ambient, "cyclotomic", vals)


MASS_INPUTS = {
    "rational": random_rational_function,
    "cyclotomic": _mixed_cyclotomic_function,
    "complex": random_complex_function,
}


@pytest.mark.parametrize("kind", sorted(MASS_INPUTS))
@pytest.mark.parametrize("p,d", MASS_GRIDS)
def test_mass_table_equals_direct_scan(p, d, kind):
    amb = Ambient(p, d)
    f = MASS_INPUTS[kind](amb, rng_for(409, f"masses/{p}/{d}/{kind}"))
    table = mass_table(f)
    assert table.directions() == enumerate_lines(amb)
    for line, ms in table.rows:
        ref = masses(f, line.rep)
        if kind == "complex":
            assert all(type(m) is complex for m in ms)
            assert all(complex_close(a, b, 1e-9) for a, b in zip(ms, ref))
        else:
            assert ms == ref
            assert [type(m) for m in ms] == [type(m) for m in ref]
    for form in ("plain", "reduced", "massless"):
        back = decompose(f, form).evaluate()
        assert back.isclose(f) if kind == "complex" else back == f


def test_mass_table_of_sparse_complex_function_keeps_complex_masses():
    # Most hyperplanes miss the one nonzero point; their masses are 0j, not 0.
    amb = Ambient(3, 2)
    f = GridFunction.delta(amb, (1, 2), 0.5 + 2j)
    for line, ms in mass_table(f).rows:
        assert ms == masses(f, line.rep)
        assert all(type(m) is complex for m in ms)


def test_mass_code_rejects_ring_grids():
    f = random_rational_function(Ambient(2, 2, 2), rng_for(410, "ring"))
    with pytest.raises(ValueError):
        masses(f, (1, 0))
    with pytest.raises(ValueError):
        mass_table(f)
    for form in ("plain", "reduced", "massless"):
        with pytest.raises(ValueError):
            decompose(f, form)
