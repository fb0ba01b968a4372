"""Sinograms and decompositions are line tables, read, checked and written whole.

A ``MassTable`` and a ``Decomposition`` each hold their lines and one
``Values`` of every value, p per line, line after line.  ``decompose``
hands its coefficients over as that one holder and builds no ``Wavelet``
until ``parts`` is read; a decomposition built from parts joins them into
the same table (``test_sinogram_files.py`` holds it equal to the run's).  ``sinogram_dumps`` and ``decomposition_dumps`` share one
writer of line rows, which must write ``canonical_dumps`` of the payload
for every kind and form, a decomposition with no part included.
``reconstruct_from_masses`` checks a table by one compare with the
canonical lines and scans its rows only when that fails (the texts it
refuses a table with are pinned in ``test_sinogram_files.py``), so a
table of every line in another order still passes, and the zero rule
judges only the complex rows whose totals differ.
"""

import random
from fractions import Fraction

import pytest

from charkit import fileio
from charkit.corpus import (
    random_complex_function,
    random_cyclotomic_function,
    random_rational_function,
    rng_for,
    staircase_function,
)
from charkit.errors import SinogramError
from charkit.fourier import GridFunction
from charkit.geometry import Ambient, enumerate_lines
from charkit.scalars import Cyclotomic
from charkit.wavelets import (
    FORMS,
    Decomposition,
    MassTable,
    Wavelet,
    decompose,
    mass_table,
    reconstruct_from_masses,
)

GRIDS = [(2, 1), (3, 1), (5, 2), (2, 8), (3, 5)]
KINDS = ("rational", "cyclotomic", "complex")
RANDOM = {
    "rational": random_rational_function,
    "cyclotomic": random_cyclotomic_function,
    "complex": random_complex_function,
}


def _functions(ambient, kind):
    """A random function of ``kind`` and a constant one, whose decompositions
    have no part."""
    f = RANDOM[kind](ambient, rng_for(3201, f"line-tables/{ambient.p}/{ambient.d}/{kind}"))
    constant = {"rational": Fraction(-5, 3), "cyclotomic": Cyclotomic.zeta(ambient.p), "complex": 0.5 - 2j}
    return [f, GridFunction.constant(ambient, constant[kind])]


@pytest.mark.parametrize("p,d", GRIDS)
@pytest.mark.parametrize("kind", KINDS)
def test_each_writer_writes_the_canonical_text_of_its_payload(p, d, kind):
    ambient = Ambient(p, d)
    f, constant = _functions(ambient, kind)
    table = mass_table(f)
    assert fileio.sinogram_dumps(table) == fileio.canonical_dumps(fileio.sinogram_to_payload(table))
    for g in (f, constant):
        for form in FORMS:
            dec = decompose(g, form)
            text = fileio.decomposition_dumps(dec)
            assert text == fileio.canonical_dumps(fileio.decomposition_to_payload(dec)), form
            if g is constant:
                assert dec.cbw == 0 and '"parts": []' in text


def test_the_writer_writes_value_built_tables_with_rows_of_any_size():
    amb = Ambient(3, 2)
    lines = enumerate_lines(amb)
    for rows in [
        [(lines[0], ()), (lines[1], (Fraction(1, 2),)), (lines[2], (1, 2, 3, 4))],
        [(lines[3], (0.5j, -0.0, 1e300)), (lines[0], ())],
        [],
    ]:
        table = MassTable(amb, rows)
        assert fileio.sinogram_dumps(table) == fileio.canonical_dumps(fileio.sinogram_to_payload(table))


@pytest.mark.parametrize("kind", KINDS)
def test_decompose_builds_no_wavelet_until_the_parts_are_read(kind, monkeypatch):
    calls = []
    init = Wavelet.__init__

    def counted(self, *args, **kwargs):
        calls.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Wavelet, "__init__", counted)
    f = _functions(Ambient(3, 3), kind)[0]
    for form in FORMS:
        calls.clear()
        dec = decompose(f, form)
        fileio.decomposition_dumps(dec)
        assert calls == [] and dec.cbw > 0
        parts = dec.parts
        assert calls == list(dec.directions()) == [w.direction for w in parts]
        assert dec.parts is parts and len(calls) == dec.cbw


def test_parts_of_two_kinds_are_joined_into_one_table():
    amb = Ambient(3, 2)
    lines = enumerate_lines(amb)
    z = Cyclotomic.zeta(3)
    parts = [Wavelet(amb, lines[0], (0, Fraction(1, 2), 1)), Wavelet(amb, lines[1], (z, 0, -z))]
    dec = Decomposition(amb, "plain", 1, parts)
    assert [w.coeffs for w in dec.parts] == [w.coeffs for w in parts]
    assert {type(c) for w in dec.parts for c in w.coeffs} == {Cyclotomic}
    assert dec.evaluate() == GridFunction.constant(amb, 1) + parts[0].evaluate() + parts[1].evaluate()
    assert fileio.decomposition_dumps(dec) == fileio.canonical_dumps(fileio.decomposition_to_payload(dec))


def test_complex_totals_within_the_zero_rule_pass_and_others_are_refused():
    f = staircase_function(3).to_complex()
    rows = list(mass_table(f).rows)
    line, ms = rows[2]
    near = rows[:2] + [(line, ms[:2] + (ms[2] + 1e-15,))] + rows[3:]
    assert reconstruct_from_masses(MassTable(f.ambient, near)).isclose(f)
    with pytest.raises(SinogramError, match=r"direction \[1, 1\] sums to"):
        reconstruct_from_masses(MassTable(f.ambient, near), tol=1e-18)


@pytest.mark.parametrize("p,d", [(3, 2), (2, 4), (5, 2)])
@pytest.mark.parametrize("kind", KINDS)
def test_a_table_of_every_line_in_another_order_reconstructs(p, d, kind):
    ambient = Ambient(p, d)
    f = _functions(ambient, kind)[0]
    rows = list(mass_table(f).rows)
    random.Random(p * 10 + d).shuffle(rows)
    g = reconstruct_from_masses(MassTable(ambient, rows))
    assert g == f if kind != "complex" else g.isclose(f)


def test_a_complex_total_off_by_exactly_the_bound_passes():
    """The zero rule is |s - m| <= bound: on the staircase the largest mass
    is 2, so at tol 2**-20 the bound is 2**-19, and a row total off by it
    passes while one off by twice it is refused."""
    f = staircase_function(3).to_complex()
    rows = list(mass_table(f).rows)
    line, ms = rows[2]
    for gap, passes in ((2.0**-19, True), (2.0**-18, False)):
        table = MassTable(f.ambient, rows[:2] + [(line, (ms[0], ms[1] + gap, ms[2]))] + rows[3:])
        if passes:
            assert reconstruct_from_masses(table, tol=2.0**-20).isclose(f, tol=2.0**-16)
        else:
            with pytest.raises(SinogramError, match=r"direction \[1, 1\] sums to"):
                reconstruct_from_masses(table, tol=2.0**-20)
