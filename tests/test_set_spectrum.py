"""``fourier.set_spectrum``: the spectrum of a set's indicator, transformed
for a grid's first sets and then summed from one table of point spectra
per grid.  ``forward`` of the indicator stays the reference; the mass counts of ``wavelets.masses`` (the tomography
lemma) are an independent oracle for the bandwidth read from it."""

import itertools

import pytest

from charkit import fourier
from charkit.bandwidth import classify_small_cbw_set, support_profile, uncertainty_check
from charkit.corpus import rng_for
from charkit.eigen import self_dual_classify
from charkit.fourier import (
    CYCLOTOMIC,
    RATIONAL,
    GridFunction,
    _from_lattice,
    _lattice_of,
    _point_spectra,
    forward,
    forward_naive,
    set_spectrum,
)
from charkit.geometry import MAX_SET_SPECTRUM_TABLE, Ambient, enumerate_lines
from charkit.wavelets import masses


def table_cost(ambient):
    q = ambient.modulus
    return ambient.size ** 2 * (q - q // ambient.p)


def cold(ambient):
    """Forget the sets transformed on the grid: its next set is transformed."""
    fourier._set_transforms.pop(ambient, None)


def warm(ambient):
    """Count enough sets transformed on the grid for its next set to read
    the table, if the table is within the cap."""
    fourier._set_transforms[ambient] = ambient.size


def assert_matches_forward(ambient, E):
    F = forward(GridFunction.indicator(ambient, E))
    for start in (cold, warm):
        start(ambient)
        S = set_spectrum(ambient, E)
        assert (type(S), S.kind, _lattice_of(S)) == (type(F), F.kind, _lattice_of(F)), E


def random_set(ambient, rng):
    """A random set of a random size, so every density is drawn."""
    pts = ambient.points()
    return rng.sample(pts, rng.randrange(len(pts) + 1))


def all_subsets(ambient):
    pts = ambient.points()
    return itertools.chain.from_iterable(
        itertools.combinations(pts, r) for r in range(len(pts) + 1)
    )


@pytest.mark.parametrize("grid", [(2, 2), (2, 3), (3, 2)])
def test_every_subset_matches_forward(grid):
    amb = Ambient(*grid)
    for E in all_subsets(amb):
        assert_matches_forward(amb, E)


@pytest.mark.parametrize("grid", [(3, 3), (5, 2), (7, 2), (2, 6), (2, 2, 2), (3, 1, 2)])
def test_random_sets_match_forward(grid):
    """Ring grids too: a point spectrum there is zeta**(-u) reduced in
    Q(zeta_(p**l)), width phi(p**l)."""
    amb = Ambient(*grid)
    rng = rng_for(2400, f"set-spectrum-{grid}")
    for _ in range(40):
        assert_matches_forward(amb, random_set(amb, rng))


def test_members_pass_the_point_gate():
    """A member is taken mod m and counted once; a wrong length is refused."""
    amb = Ambient(3, 2)
    for start in (cold, warm):
        start(amb)
        assert set_spectrum(amb, [(0, 1), (3, 1), (0, 4), (2, 2)]) == set_spectrum(amb, [(0, 1), (2, 2)])
        with pytest.raises(ValueError, match="coordinates"):
            set_spectrum(amb, [(0, 1, 2)])


@pytest.mark.parametrize("grid", [(3, 2), (2, 2, 2)])
def test_table_rows_are_the_point_spectra_of_the_oracle(grid):
    amb = Ambient(*grid)
    N, q = amb.size, amb.modulus
    for x, entry in zip(amb.points(), _point_spectra(amb)):
        cols = [entry[c * N : (c + 1) * N] for c in range(q - q // amb.p)]
        assert _from_lattice(amb, cols, N, CYCLOTOMIC) == forward_naive(GridFunction.delta(amb, x))


@pytest.mark.parametrize("grid, rent", [((2, 7), 10), ((7, 2), 4), ((3, 4), 7), ((5, 3), 30)])
def test_a_grid_buys_its_table_after_the_transforms_it_would_save(monkeypatch, grid, rent):
    """Of 30 sets on a grid, the first ceil(N / (d*q)) are transformed and
    the rest read the table: 128/14 at (2,7), 49/14 at (7,2), 81/12 at
    (3,4).  (2,7) and (7,2) are the largest tables within the cap; (5,3),
    the smallest grid over it, builds no table and transforms every set."""
    amb = Ambient(*grid)
    tabled = table_cost(amb) <= MAX_SET_SPECTRUM_TABLE
    assert tabled == (grid != (5, 3))
    cold(amb)
    _point_spectra.cache_clear()
    calls = []
    monkeypatch.setattr(fourier, "forward", lambda f: calls.append(f) or forward(f))
    rng = rng_for(2401, f"rent-{grid}")
    sets = [random_set(amb, rng) for _ in range(30)]
    spectra = [set_spectrum(amb, E) for E in sets]
    assert (len(calls), _point_spectra.cache_info().currsize) == (rent, int(tabled))
    for E, S in zip(sets, spectra):
        F = forward(GridFunction.indicator(amb, E))
        assert (S.kind, _lattice_of(S)) == (F.kind, _lattice_of(F))


def test_one_set_statements_build_no_table():
    """A single call of a set statement on a grid transforms its indicator."""
    amb = Ambient(3, 2)
    for statement, E in [
        (uncertainty_check, [(0, 1), (1, 2)]),
        (classify_small_cbw_set, [(0, 1), (1, 2)]),
        (self_dual_classify, [(0, 0), (1, 1)]),
    ]:
        cold(amb)
        _point_spectra.cache_clear()
        statement(amb, E)
        assert _point_spectra.cache_info().currsize == 0


@pytest.mark.parametrize("grid", [(2, 1), (3, 2), (5, 3)])
def test_the_empty_set_has_the_zero_spectrum(grid):
    amb = Ambient(*grid)
    warm(amb)
    S = set_spectrum(amb, [])
    assert (_lattice_of(S)[0], S.is_zero()) == (amb.size, True)
    assert_matches_forward(amb, [])


def mass_cbw(ambient, E) -> int:
    """cbw by the tomography lemma: a line is active exactly when the masses
    of 1_E along it are not all equal."""
    f = GridFunction.indicator(ambient, E)
    return sum(len(set(masses(f, line.rep))) > 1 for line in enumerate_lines(ambient))


@pytest.mark.parametrize("grid", [(2, 3), (3, 2)])
def test_set_bandwidth_equals_the_mass_count_oracle(grid):
    amb = Ambient(*grid)
    warm(amb)
    for E in all_subsets(amb):
        cbw = mass_cbw(amb, E)
        assert support_profile(set_spectrum(amb, E), RATIONAL).cbw == cbw, E
        assert classify_small_cbw_set(amb, E).cbw == cbw, E
        if E:
            assert uncertainty_check(amb, E).cbw == cbw, E
