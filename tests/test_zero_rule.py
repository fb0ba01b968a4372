"""The zero rule for floating values (``scalars.zero_bound``): a complex value
is zero when |v| <= tol * S, S the largest magnitude it is compared with.

In the paper the bandwidth, the active lines and every vanishing statement
depend only on where the spectrum is zero, so scaling f by s != 0 must not
change them.  Each command below ran on a complex wavelet scaled by 10**k;
against an absolute tolerance each gave a wrong answer at some of these
scales (cbw 0 at 1e-10 and 57 at 1e10, a failed oracle check at 1e6, a
refused sinogram at 1e6, a refused massless form at 1e8, an empty
eigen-expansion at 1e-10).
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charkit import cli, fileio
from charkit.bandwidth import bandwidth
from charkit.corpus import rng_for
from charkit.errors import SinogramError
from charkit.fourier import GridFunction, inverse
from charkit.geometry import Ambient, ProjectiveLine, dot, enumerate_lines, line_through
from charkit.wavelets import (
    MassTable,
    Wavelet,
    decompose,
    mass_table,
    reconstruct_from_masses,
)

FIXED = settings(derandomize=True, database=None, deadline=None)
SCALES = [10.0**k for k in (-12, -10, -8, 0, 4, 6, 8, 10)]
DIRECTION = (1, 2, 3)


def plane_wavelet(scale: float) -> GridFunction:
    """A complex wavelet on (7,3), constant on the planes x0 + 2x1 + 3x2 = t."""
    amb = Ambient(7, 3)
    rng = rng_for(1101, "plane-wavelet")
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(7)]
    return GridFunction(
        amb, "complex", [scale * coeffs[dot(x, DIRECTION, 7)] for x in amb.points()]
    )


def run(capsys, *argv):
    """(exit code, parsed stdout or None) of one CLI request."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def wavelet_file(tmp_path, scale: float) -> str:
    path = tmp_path / f"wavelet_{scale:g}.json"
    fileio.save_function(plane_wavelet(scale), path)
    return str(path)


def test_bandwidth_of_a_scaled_wavelet_is_one_line(tmp_path, capsys):
    line = list(line_through(Ambient(7, 3), DIRECTION).rep)
    got = []
    for scale in SCALES:
        code, out = run(capsys, "bandwidth", "--input", wavelet_file(tmp_path, scale))
        got.append((code, out["cbw"], out["lines"]))
    assert got == [(0, 1, [line])] * len(SCALES)


def test_transform_oracle_agrees_at_every_scale(tmp_path, capsys):
    got = [
        run(capsys, "transform", "--oracle", "--input", wavelet_file(tmp_path, scale))
        for scale in SCALES
    ]
    assert got == [(0, {"match": "within tolerance"})] * len(SCALES)


def test_sinogram_of_a_scaled_wavelet_reconstructs_it(tmp_path, capsys):
    got = []
    for scale in SCALES:
        sinogram = tmp_path / f"sinogram_{scale:g}.json"
        source = wavelet_file(tmp_path, scale)
        run(capsys, "tomography", "project", "--input", source, "--output", str(sinogram))
        out = tmp_path / f"back_{scale:g}.json"
        code, _ = run(capsys, "tomography", "reconstruct", "--input", str(sinogram),
                      "--output", str(out))
        got.append(code == 0 and fileio.load_function(out).isclose(plane_wavelet(scale)))
    assert got == [True] * len(SCALES)


def test_massless_decomposition_of_a_scaled_wavelet(tmp_path, capsys):
    got = []
    for scale in SCALES:
        code, out = run(
            capsys, "decompose", "--form", "massless", "--input", wavelet_file(tmp_path, scale)
        )
        got.append((code, out and len(out["parts"])))
    assert got == [(0, 1)] * len(SCALES)


def test_massless_parts_of_a_small_wavelet_on_a_large_constant():
    """The massless coefficients are differences of masses far larger than
    they are; their sum must still be zero by the rule over the coefficients."""
    got = []
    for offset, scale in ((1e3, 1e-3), (1e6, 1e-2), (1e6, 1.0), (1e9, 1e2)):
        wavelet = plane_wavelet(scale)
        f = GridFunction(wavelet.ambient, "complex", [offset + v for v in wavelet.values])
        dec = decompose(f, form="massless")
        got.append((dec.cbw, dec.evaluate().isclose(f)))
    assert got == [(1, True)] * 4


def test_massless_wavelet_with_mixed_coefficients():
    """Exact zeros among floating coefficients: the rule runs over the floats."""
    got = []
    for scale in SCALES:
        coeffs = (0, scale / 3, scale / 7, -scale * (1 / 3 + 1 / 7), Fraction(0))
        try:
            Wavelet(Ambient(5, 2), ProjectiveLine((1, 0)), coeffs, "massless")
            got.append("accepted")
        except ValueError as exc:
            got.append(str(exc))
    assert got == ["accepted"] * len(SCALES)


def test_eigen_expansion_of_a_scaled_wavelet(tmp_path, capsys):
    got = [run(capsys, "eigen", "--input", wavelet_file(tmp_path, scale)) for scale in SCALES]
    want = {"self_dual": None, "expansion": {"terms": 7, "reconstruction": "close"}}
    assert got == [(0, want)] * len(SCALES)


def test_variety_of_a_noisy_constant_is_constant(tmp_path, capsys):
    """p = 3 mod 4: two-circle vanishing forces a constant, and rounding-size
    noise on a constant complex function is judged by the same rule."""
    amb = Ambient(3, 2)
    rng = rng_for(1102, "noisy-constant")
    noise = 1e-12
    f = GridFunction(amb, "complex", [
        complex(1 + rng.uniform(-noise, noise), rng.uniform(-noise, noise))
        for _ in amb.points()
    ])
    path = tmp_path / "noisy_constant.json"
    fileio.save_function(f, path)
    code, out = run(capsys, "variety", "--input", str(path))
    assert (code, out["two_circle"]) == (0, {"kind": "constant", "direction": None})


def test_variety_judges_constancy_within_the_bound_of_its_hypothesis(tmp_path, capsys):
    """F = (1, 0.9e-9, ..., 0.9e-9) on Z_3**2: every F(m), m != 0, is zero by
    the rule, so the hypothesis holds, yet f(0) = 1 + 7.2e-9 and f = 1 - 0.9e-9
    elsewhere differ by more than tol * max|f|.  The hypothesis bounds every
    difference of values by 2(N - 1) * tol * max|F|, and constancy is judged
    within that bound."""
    amb = Ambient(3, 2)
    f = inverse(GridFunction(amb, "complex", [1] + [0.9e-9] * 8))
    path = tmp_path / "near_constant.json"
    fileio.save_function(f, path)
    code, out = run(capsys, "variety", "--input", str(path))
    assert (code, out["two_circle"]) == (0, {"kind": "constant", "direction": None})


def test_sinogram_error_names_one_disagreeing_direction():
    amb = Ambient(2, 10)
    table = mass_table(GridFunction.constant(amb, 1))
    rows = list(table.rows)
    line, ms = rows[700]
    rows[700] = (line, (ms[0] + 1, *ms[1:]))
    with pytest.raises(SinogramError) as err:
        reconstruct_from_masses(MassTable(amb, tuple(rows)))
    first = list(table.rows[0][0].rep)
    assert str(err.value) == (
        f"per-direction totals disagree: direction {list(line.rep)} sums to 1025, "
        f"the first direction {first} to 1024"
    )


@st.composite
def sparse_functions(draw):
    """A complex function whose spectrum lives on a few lines: a sum of one to
    three wavelets on distinct lines, or the inverse of a spectrum with one
    to four nonzero values.  Comes with its grid and its number of lines."""
    p, d = draw(st.sampled_from([(7, 3), (3, 4), (13, 2)]))
    amb = Ambient(p, d)
    lines = enumerate_lines(amb)
    rng = rng_for(draw(st.integers(0, 2**16)), "sparse-function")
    if draw(st.booleans()):
        spectrum = [0j] * amb.size
        for m in draw(st.lists(st.integers(0, amb.size - 1), min_size=1, max_size=4, unique=True)):
            spectrum[m] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pts = amb.points()
        used = {line_through(amb, pts[m]) for m, v in enumerate(spectrum) if m and v}
        return amb, inverse(GridFunction(amb, "complex", spectrum)).values, len(used)
    picks = draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3, unique=True))
    values = [0j] * amb.size
    for i in picks:
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(p)]
        for k, x in enumerate(amb.points()):
            values[k] += coeffs[dot(x, lines[i].rep, p)]
    return amb, values, len(picks)


@settings(FIXED, max_examples=16)
@given(sparse_functions())
@example((Ambient(7, 3), [0j] * 343, 0))
def test_bandwidth_and_decomposition_lines_are_invariant_under_scaling(case):
    amb, values, count = case

    def verdict(scale):
        f = GridFunction(amb, "complex", [scale * v for v in values])
        dec = decompose(f, form="massless")
        return bandwidth(f).cbw, [w.direction for w in dec.parts]

    want = verdict(1.0)
    assert want[0] == count
    assert [verdict(10.0**k) for k in range(-8, 13)] == [want] * 21


@pytest.mark.parametrize("tol", [-1.0, float("nan"), 0.0, float("inf")])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused(tol):
    # the constant has cbw 0: -1.0, NaN and 0.0 gave cbw 4 (every value
    # counted as nonzero), and inf would count every value as zero
    f = GridFunction(Ambient(3, 2), "complex", [1] * 9)
    assert bandwidth(f, 1e-9).cbw == 0
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        bandwidth(f, tol)
