"""The line run: the hyperplane masses at the line representatives of Z_p**d,
from which rational spectra, exact mass tables and decompositions are
read, and its adjoint, the back-projection of any lines in any order.  The
masses must equal the direct scan ``masses``, rational spectra the naive
transform and the d-pass kernel, and back-projection a direct per-point
sum; ``test_complex_bits`` holds complex masses to the d-pass mass run bit
for bit."""

import json
import random
from fractions import Fraction

import pytest

from charkit import cli, fileio, fourier, geometry, verify
from charkit.corpus import (
    random_cyclotomic_function,
    random_rational_function,
    rng_for,
)
from charkit.errors import CapacityError, TheoremViolation
from charkit.fourier import (
    GridFunction,
    Values,
    _back_project,
    _exact_transform,
    _lattice_of,
    _mass_rows,
    forward,
    forward_naive,
    inverse,
)
from charkit.geometry import Ambient, dots, enumerate_lines
from charkit.bandwidth import bandwidth
from charkit.wavelets import (
    FORMS,
    MassTable,
    decompose,
    mass_table,
    masses,
    reconstruct_from_masses,
)

GRIDS = [(p, d) for p in (2, 3, 5, 7) for d in (1, 2, 3)] + [(13, 2)]


def _table(f, lines):
    den, cols = _mass_rows(f, lines)
    return Values._from_lattice(f.ambient, cols, den, f.kind).values


@pytest.mark.parametrize("p,d", GRIDS)
@pytest.mark.parametrize("make", [random_rational_function, random_cyclotomic_function])
def test_the_line_run_gives_the_masses_of_the_direct_scan(p, d, make):
    ambient = Ambient(p, d)
    f = make(ambient, rng_for(2701, f"line-run/{p}/{d}/{make.__name__}"))
    lines = enumerate_lines(ambient)
    got = _table(f, lines)
    for k, line in enumerate(lines):
        assert got[k * p : (k + 1) * p] == masses(f, line.rep), line
    # a subset of the lines, in another order, reads the same masses
    some = random.Random(p * 100 + d).sample(lines, max(1, len(lines) // 2))
    got = _table(f, some)
    for k, line in enumerate(some):
        assert got[k * p : (k + 1) * p] == masses(f, line.rep), line


def _rational_cases(ambient):
    rng = rng_for(2703, f"line-run/{ambient.p}/{ambient.d}")
    yield random_rational_function(ambient, rng)
    yield GridFunction(ambient, "rational", [0] * ambient.size)
    yield GridFunction.constant(ambient, Fraction(-7, 3))
    yield GridFunction.delta(ambient, (1,) * ambient.d, Fraction(5, 2))


@pytest.mark.parametrize("p,d", GRIDS)
def test_the_rational_forward_equals_the_naive_transform_and_the_d_passes(p, d):
    ambient = Ambient(p, d)
    for f in _rational_cases(ambient):
        F = forward(f)
        assert F == forward_naive(f)
        den, cols = _lattice_of(f)
        assert _lattice_of(F) == (den * ambient.size, _exact_transform(cols, ambient, d, -1))


def test_the_forward_enumerates_no_lines(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_LINE_ENUMERATION", 1)
    ambient = Ambient(2, 6)
    f = random_rational_function(ambient, rng_for(2704, "line-run/2/6"))
    with pytest.raises(CapacityError):
        enumerate_lines(ambient)
    assert forward(f) == forward_naive(f)


@pytest.mark.parametrize("p,d", [(2, 4), (3, 3), (7, 2)])
@pytest.mark.parametrize("form", FORMS)
def test_a_rational_decompose_makes_one_line_run(monkeypatch, p, d, form):
    """The active lines are read off the spectrum filled from the planes
    that the masses are read off: one line run per decomposition, which at
    p = 2 is one Walsh-Hadamard transform, the spectrum itself."""
    ambient = Ambient(p, d)
    f = random_rational_function(ambient, rng_for(2901, f"line-run/decompose/{p}/{d}"))
    runs = []

    def counted(run):
        def call(*args):
            runs.append(args)
            return run(*args)

        return call

    for name in ("_line_masses", "_walsh"):
        monkeypatch.setattr(fourier, name, counted(getattr(fourier, name)))
    dec = decompose(f, form)
    assert len(runs) == 1
    assert tuple(w.direction for w in dec.parts) == bandwidth(f).lines
    assert dec.evaluate() == f


def _direct_back_projection(ambient, lines, cols):
    """The columns of the sums, per point x, over i of the values
    i*p + x.s_i of ``cols``, point by point and coordinate by coordinate."""
    p = ambient.p
    out = [[0] * ambient.size for _ in cols]
    for i, line in enumerate(lines):
        for x, t in enumerate(dots(ambient, line.rep)):
            for sums, col in zip(out, cols):
                sums[x] = sums[x] + col[i * p + t]
    return out


@pytest.mark.parametrize("p,d", GRIDS)
@pytest.mark.parametrize("kind", ["int", "complex"])
def test_back_projection_equals_the_direct_sum_for_any_lines_in_any_order(p, d, kind):
    ambient = Ambient(p, d)
    rng = random.Random(f"{p}/{d}/{kind}")
    lines = list(enumerate_lines(ambient))
    lines = rng.sample(lines, rng.randint(1, len(lines)))  # a subset, shuffled
    width = 1 if kind == "complex" else rng.randint(1, p)
    if kind == "complex":  # small integer parts: every sum is exact in any order
        rows = [(complex(rng.randint(-9, 9), rng.randint(-9, 9)),) for _ in range(len(lines) * p)]
    else:
        rows = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(len(lines) * p)]
    cols = [list(col) for col in zip(*rows)]
    got = _back_project(ambient, lines, cols)
    assert got == _direct_back_projection(ambient, lines, cols)


def test_a_table_in_another_order_reconstructs_the_same_function():
    ambient = Ambient(3, 3)
    f = random_rational_function(ambient, rng_for(2705, "line-run/order"))
    table = mass_table(f)
    rows = list(table.rows)
    random.Random(5).shuffle(rows)
    assert reconstruct_from_masses(MassTable(ambient, rows)) == f


def test_a_sinogram_file_with_its_directions_permuted_reconstructs_to_the_same_bytes(
    tmp_path, capsys
):
    f = random_cyclotomic_function(Ambient(5, 2), rng_for(2706, "line-run/file"))
    payload = fileio.sinogram_to_payload(mass_table(f))
    texts = []
    for shuffle in (False, True):
        if shuffle:
            random.Random(6).shuffle(payload["masses"])
        path = tmp_path / f"sinogram-{shuffle}.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["tomography", "reconstruct", "--input", str(path)]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert fileio.function_from_payload(json.loads(texts[0])) == f


def test_verify_galois_reads_no_forward(monkeypatch, capsys):
    """Equivariance is checked on spectra of the d axis passes, not on the
    spectra ``forward`` fills from each line's masses."""

    def refuse(f):
        raise TheoremViolation("forward was called")

    for module in (fourier, verify):
        monkeypatch.setattr(module, "forward", refuse)
    assert cli.main(["verify", "galois", "--suite-size", "2", "--seed", "42"]) == 0
    assert "forward was called" not in capsys.readouterr().out


@pytest.mark.parametrize("p,d", GRIDS)
def test_the_inverse_of_the_forward_gives_f_back(p, d):
    ambient = Ambient(p, d)
    for f in _rational_cases(ambient):
        assert inverse(forward(f)) == f
