"""The exact runs on Z_2**d read one kernel, the Walsh-Hadamard transform
over Z (``fourier._walsh``): at p = 2, zeta_2 = -1 and Q(zeta_2) = Q, so
the exact transform of either kind, the hyperplane masses (T +- W(s))/2 and
the back-projection are ints added and subtracted on one plane.  Each is
held here to its reference: the d lattice passes reduced to the power
basis, the naive transform, the direct scan ``masses``, a direct per-point
back-projection and the inverse of each masked spectrum.  Complex values
and the ring grids Z_{2**ell}**d never reach the kernel."""

import random
from fractions import Fraction

import pytest

from charkit import fourier, geometry
from charkit.bandwidth import inverse_phi
from charkit.corpus import (
    random_complex_function,
    random_cyclotomic_function,
    random_rational_function,
    rng_for,
)
from charkit.fourier import (
    GridFunction,
    Values,
    _back_project,
    _lattice_of,
    _lattice_pass,
    _mass_columns,
    _power_basis,
    _spectrum_and_masses,
    _walsh,
    forward,
    forward_naive,
    inverse,
)
from charkit.geometry import Ambient, CapacityError, dots, enumerate_lines, line_through
from charkit.multiscale import _line_parts
from charkit.wavelets import FORMS, decompose, mass_table, masses, reconstruct_from_masses
from test_line_run import _direct_back_projection

EXACT = [random_rational_function, random_cyclotomic_function]


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("parts", [1, 3])
def test_walsh_is_the_lattice_passes_reduced_to_the_power_basis(d, parts):
    """Int for int, over ``parts`` stacked grids and either sign."""
    rng = random.Random(f"walsh/{d}/{parts}")
    n = parts * 2**d
    A = [rng.randint(-(10**9), 10**9) * rng.randint(0, 1) for _ in range(n)]
    got = _walsh(A, d)
    for sign in (-1, +1):
        L = A + [0] * n  # plane 0 the values, plane 1 zero
        for _ in range(d):
            L = _lattice_pass(L, 2, sign)
        assert _power_basis([L[:n], L[n:]], 2)[0] == got


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("make", EXACT)
def test_forward_is_the_naive_transform_and_inverse_undoes_it(d, make):
    ambient = Ambient(2, d)
    f = make(ambient, rng_for(3101, f"walsh/forward/{d}/{make.__name__}"))
    F = forward(f)
    assert F == forward_naive(f)
    assert (F.kind, F._den) == ("cyclotomic", f._den * ambient.size)
    back = inverse(F)
    assert back == f and back.kind == "rational"


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("make", EXACT)
def test_masses_are_those_of_the_direct_scan(d, make):
    ambient = Ambient(2, d)
    f = make(ambient, rng_for(3102, f"walsh/masses/{d}/{make.__name__}"))
    table = mass_table(f)
    for line, row in table.rows:
        assert row == masses(f, line.rep), line
    assert reconstruct_from_masses(table) == f
    for form in FORMS:
        assert decompose(f, form).evaluate() == f
    spectrum, mass_columns = _spectrum_and_masses(f)
    assert spectrum == forward(f)
    assert mass_columns(table.directions()) == _mass_columns(f, table.directions())


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("make", EXACT)
def test_cells_of_a_shuffled_subset_are_the_masses_of_the_direct_scan(d, make):
    """The masses are read off W at the requested lines alone, in their order."""
    ambient = Ambient(2, d)
    f = make(ambient, rng_for(3107, f"walsh/cells/{d}/{make.__name__}"))
    rng = random.Random(f"walsh/cells/{d}")
    lines = list(enumerate_lines(ambient))
    chosen = rng.sample(lines, rng.randint(1, len(lines)))
    den, cols = _lattice_of(f)
    cells = fourier._Walsh.cells(ambient, fourier._Walsh.planes(cols, ambient), chosen)
    got = Values._from_lattice(ambient, cells, den, f.kind).values
    for k, line in enumerate(chosen):
        assert got[2 * k : 2 * k + 2] == masses(f, line.rep), line


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("width", [1, 2])
def test_back_projection_equals_the_direct_sum_for_lines_in_any_order(d, width):
    ambient = Ambient(2, d)
    rng = random.Random(f"walsh/back/{d}/{width}")
    lines = list(enumerate_lines(ambient))
    for chosen in (rng.sample(lines, len(lines)), rng.sample(lines, rng.randint(1, len(lines)))):
        rows = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(2 * len(chosen))]
        cols = [list(col) for col in zip(*rows)]
        assert _back_project(ambient, chosen, cols) == _direct_back_projection(ambient, chosen, cols)


@pytest.mark.parametrize("p,d", [(2, 6), (3, 4)])
def test_inverse_phi_of_one_seed_enumerates_no_lines(monkeypatch, p, d):
    """A seed's line is placed from its representative alone: with the
    line enumeration capped at one line, f(x) = dc + Tr(c * zeta**(x.s))
    for a rational seed c, which is dc + (p - 1)*c where x.s = 0 and
    dc - c elsewhere."""
    monkeypatch.setattr(geometry, "MAX_LINE_ENUMERATION", 1)
    ambient = Ambient(p, d)
    with pytest.raises(CapacityError):
        enumerate_lines(ambient)
    dc, c = Fraction(1, 7), Fraction(-5, 3)
    line = line_through(ambient, (0, 1) + (1,) * (d - 2))
    f = inverse_phi(ambient, dc, {line: c})
    want = [dc + (p - 1) * c if u == 0 else dc - c for u in dots(ambient, line.rep)]
    assert f == GridFunction(ambient, "rational", want)


@pytest.mark.parametrize("make", EXACT)
def test_multiscale_parts_are_the_inverses_of_the_masked_spectra(make):
    ambient = Ambient(2, 4)
    f = make(ambient, rng_for(3103, f"walsh/parts/{make.__name__}"))
    F = forward(f)
    origin = ambient.origin()
    claims = [(origin, {origin})] + [(line.rep, {line.rep}) for line in enumerate_lines(ambient)]
    parts = _line_parts(F, claims)
    for (_, claimed), part in zip(claims, parts):
        masked = [v if x in claimed else 0 for x, v in zip(ambient.points(), F.values)]
        assert part == inverse(GridFunction(ambient, F.kind, masked))
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    assert total == f


def _refuse(*_):
    raise AssertionError("a run reached a kernel it must not reach")


@pytest.mark.parametrize("ambient", [Ambient(2, 3), Ambient(2, 5)], ids=str)
def test_complex_values_never_reach_the_kernel(monkeypatch, ambient):
    """Complex runs keep their float sums: exp(pi*i) in the root table is
    not -1, so a Walsh-Hadamard route would change their bits."""
    f = random_complex_function(ambient, rng_for(3104, f"walsh/complex/{ambient.d}"))
    monkeypatch.setattr(fourier, "_walsh", _refuse)
    F = forward(f)
    assert F.isclose(forward_naive(f))
    assert inverse(F).isclose(f)
    table = mass_table(f)
    assert reconstruct_from_masses(table).isclose(f)
    for form in FORMS:
        assert decompose(f, form).evaluate().isclose(f)


@pytest.mark.parametrize("ambient", [Ambient(2, 2, 2), Ambient(2, 1, 3)], ids=str)
def test_ring_grids_never_reach_the_kernel(monkeypatch, ambient):
    f = random_rational_function(ambient, rng_for(3105, f"walsh/ring/{ambient.d}/{ambient.ell}"))
    monkeypatch.setattr(fourier, "_walsh", _refuse)
    F = forward(f)
    assert F == forward_naive(f)
    assert inverse(F) == f


@pytest.mark.parametrize("d", [1, 4])
def test_exact_runs_on_the_field_grid_make_no_lattice_pass(monkeypatch, d):
    """Every exact run on Z_2**d is the kernel: no lattice pass is made."""
    ambient = Ambient(2, d)
    f = random_rational_function(ambient, rng_for(3106, f"walsh/route/{d}"))
    g = random_cyclotomic_function(ambient, rng_for(3106, f"walsh/route/cyc/{d}"))
    want = [forward_naive(f), forward_naive(g)]
    monkeypatch.setattr(fourier, "_lattice_pass", _refuse)
    assert [forward(f), forward(g)] == want
    assert inverse(want[0]) == f
    assert reconstruct_from_masses(mass_table(f)) == f
    assert decompose(g, "plain").evaluate() == g
