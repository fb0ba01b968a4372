"""Sinogram and decomposition files on the lattice rows.

``sinogram_from_payload`` reads masses straight onto rows, and
``sinogram_dumps`` and ``decomposition_dumps`` write from rows.  Each must
agree with the per-value path it replaced: the reader gives the kind, rows
and denominator of a ``MassTable`` built from per-value masses, the writers
write ``canonical_dumps`` of the payloads (``sinogram_to_payload``,
``decomposition_to_payload``), every fault of a sinogram file is reported
with the text and in the order the per-value reader found it, and the exact
CLI requests decode no value.  ``MassTable``, ``Wavelet`` and
``Decomposition`` built from values keep working as before.
"""

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charkit import cli, fileio
from charkit.corpus import random_rational_function, rng_for, staircase_function
from charkit.errors import SinogramError
from charkit.fourier import GridFunction, _lattice_of
from charkit.geometry import Ambient, ProjectiveLine, dot, enumerate_lines, grid_point, line_through
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

FIXED = settings(derandomize=True, database=None, deadline=None)
GOLDEN = Path(__file__).parent / "golden"
GRIDS = [Ambient(2, 2), Ambient(2, 3), Ambient(3, 2), Ambient(3, 3), Ambient(5, 2), Ambient(7, 1)]
KINDS = ["rational", "cyclotomic", "complex"]
POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3), Fraction(5, 12), Fraction(11, 6)]


def run_cli(capsys, *argv) -> tuple:
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _same_text(got: str, want: str) -> None:
    """Fail at the first line where two texts differ."""
    for i, (a, b) in enumerate(itertools.zip_longest(got.splitlines(), want.splitlines())):
        if a != b:
            pytest.fail(f"line {i + 1}: {a!r} != {b!r}")
    assert got == want


# --- the writers write the canonical payloads


def _value(rng, ambient, kind):
    if kind == "complex":
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if kind == "rational":
        return rng.choice(POOL)
    return Cyclotomic(ambient.p, [rng.choice(POOL) for _ in range(ambient.p - 1)])


@st.composite
def functions(draw) -> GridFunction:
    """A function of each kind on one of GRIDS: random values, zero, a
    constant (both of bandwidth 0), or a sum of wavelets on a few lines (so
    that some lines are active and the others vanish)."""
    ambient = draw(st.sampled_from(GRIDS))
    kind = draw(st.sampled_from(KINDS))
    shape = draw(st.sampled_from(["random", "zero", "constant", "wavelets"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    points = ambient.points()
    if shape == "random":
        values = [_value(rng, ambient, kind) for _ in points]
    elif shape == "zero":
        values = [0] * ambient.size
    elif shape == "constant":
        values = [_value(rng, ambient, kind)] * ambient.size
    else:
        lines = enumerate_lines(ambient)
        values = [0] * ambient.size
        for line in rng.sample(lines, rng.randint(1, min(3, len(lines)))):
            coeffs = [_value(rng, ambient, kind) for _ in range(ambient.p)]
            values = [v + coeffs[dot(x, line.rep, ambient.p)] for v, x in zip(values, points)]
    return GridFunction(ambient, kind, values)


@settings(FIXED, max_examples=120)
@given(functions(), st.sampled_from(FORMS))
def test_the_decomposition_writer_writes_the_canonical_payload(f, form):
    dec = decompose(f, form)
    want = fileio.canonical_dumps(fileio.decomposition_to_payload(dec))
    _same_text(fileio.decomposition_dumps(dec), want)


@settings(FIXED, max_examples=80)
@given(functions())
def test_the_sinogram_writer_writes_the_canonical_payload(f):
    table = mass_table(f)
    want = fileio.canonical_dumps(fileio.sinogram_to_payload(table))
    _same_text(fileio.sinogram_dumps(table), want)


def test_the_writers_write_tables_and_decompositions_built_from_values():
    amb = Ambient(3, 2)
    line = ProjectiveLine((1, 2))
    z = Cyclotomic(3, [Fraction(1, 2), Fraction(-3)])
    for kind, coeffs, constant in [
        ("rational", (0, Fraction(1, 3), Fraction(-2, 9)), Fraction(5, 4)),
        ("cyclotomic", (z, z * z, z.conjugate()), z),
        ("complex", (0.5j, -1.25, 2 + 0j), -0.0 + 1j),
    ]:
        dec = Decomposition(amb, "plain", constant, (Wavelet(amb, line, coeffs),))
        want = fileio.canonical_dumps(fileio.decomposition_to_payload(dec))
        assert fileio.decomposition_dumps(dec) == want, kind
        table = MassTable(amb, [(line, coeffs), (ProjectiveLine((0, 1)), coeffs[::-1])])
        assert fileio.sinogram_dumps(table) == fileio.canonical_dumps(fileio.sinogram_to_payload(table))
    empty = MassTable(amb, ())
    assert fileio.sinogram_dumps(empty) == fileio.canonical_dumps(fileio.sinogram_to_payload(empty))


# Parts whose text float.__repr__ must keep: signed zeros, subnormals, the
# largest float and short decimals.
SPECIAL_PARTS = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, 0.1, -1e-310]


@pytest.mark.parametrize("special", ["finite", "with NaN and infinities"])
def test_the_writers_write_complex_tables_of_signed_zeros_and_subnormals(special):
    """Finite complex values are written by float.__repr__ after one pass
    over the finiteness of all of them, the others one by one."""
    amb = Ambient(3, 2)
    rng = random.Random(2801)
    parts = SPECIAL_PARTS + ([math.nan, math.inf, -math.inf] if special != "finite" else [])
    rows = [
        (line, tuple(complex(rng.choice(parts), rng.choice(parts)) for _ in range(amb.p)))
        for line in enumerate_lines(amb)
    ]
    table = MassTable(amb, rows)
    _same_text(fileio.sinogram_dumps(table), fileio.canonical_dumps(fileio.sinogram_to_payload(table)))
    dec = Decomposition(amb, "plain", complex(-0.0, 5e-324), tuple(Wavelet(amb, line, ms) for line, ms in rows))
    _same_text(fileio.decomposition_dumps(dec), fileio.canonical_dumps(fileio.decomposition_to_payload(dec)))


# --- the row reader gives the rows of the per-value reader


def _per_value_mass(m, p):
    if isinstance(m, dict):
        return fileio.scalar_from_payload(m, "cyclotomic", p)
    if isinstance(m, list):
        return fileio.scalar_from_payload(m, "complex", p)
    return fileio.parse_rational(m)


def per_value_table(payload) -> MassTable:
    """The table the per-value reader built: each mass parsed into a value,
    rebased by the Fermat inverse, and the values put on the lattice by
    ``MassTable``."""
    ambient = Ambient(payload["p"], payload["d"])
    p = ambient.p
    rows = {}
    for entry in payload["masses"]:
        s = grid_point(ambient, entry["s"])
        first = next(c for c in s if c)
        ms = [_per_value_mass(m, p) for m in entry["m"]]
        rebased = [None] * p
        for t in range(p):
            rebased[t * pow(first, p - 2, p) % p] = ms[t]
        rows[line_through(ambient, s)] = tuple(rebased)
    return MassTable(ambient, [(line, rows[line]) for line in enumerate_lines(ambient) if line in rows])


LITERALS = ["0", "1", "-1", "+04/6", "-12/8", "7/3", "0/5", "10/10", "-5/12"]


@st.composite
def sinogram_payloads(draw) -> dict:
    """A sinogram file on one of GRIDS, in one of two shapes: every line by
    its canonical generator in canonical order, as charkit writes it, or
    some of the lines in a shuffled order, each written through a random
    nonzero multiple of its canonical generator.  Its masses are rational
    literals, alone or mixed with cyclotomic objects or with complex pairs
    (some with an int part), or masses of one kind only."""
    ambient = draw(st.sampled_from(GRIDS))
    p = ambient.p
    mix = draw(st.sampled_from(["rational", "cyclotomic", "complex"]))
    one_kind, canonical = draw(st.booleans()), draw(st.booleans())
    share, imag = (1.0, [0.0, -0.0]) if one_kind else (0.6, [0.0, -0.0, 0])
    rng = random.Random(draw(st.integers(0, 2**32)))

    def mass():
        if mix == "cyclotomic" and rng.random() < share:
            return {"p": p, "coeffs": [rng.choice(LITERALS) for _ in range(p - 1)]}
        if mix == "complex" and rng.random() < share:
            return [rng.uniform(-2, 2), rng.choice(imag + [rng.uniform(-2, 2)])]
        return rng.choice(LITERALS)

    lines = list(enumerate_lines(ambient))
    if not canonical:
        rng.shuffle(lines)
        lines = lines[: rng.randint(0, len(lines))]
    masses = []
    for line in lines:
        s = list(line.rep)
        if not canonical:
            c = rng.randrange(1, p)
            s = [c * a % p + p * rng.randint(-1, 1) for a in s]
        masses.append({"s": s, "m": [mass() for _ in range(p)]})
    return {"p": p, "d": ambient.d, "masses": masses}


@settings(FIXED, max_examples=150)
@given(sinogram_payloads())
def test_the_row_reader_gives_the_rows_of_the_per_value_reader(payload):
    table = fileio.sinogram_from_payload(payload)
    reference = per_value_table(payload)
    held, want = table._masses, reference._masses
    assert table.directions() == reference.directions()
    assert (held.kind, _lattice_of(held)) == (want.kind, _lattice_of(want))
    if held.kind != "complex":  # a rational mass among complex ones is read as its complex value
        assert table.rows == reference.rows and table == reference


def test_a_non_canonical_direction_is_rebased_by_its_inverse():
    # masses seen through s = 2*(1, 2) on Z_5^2: label t of s is label 3t of (1, 2)
    payload = {"p": 5, "d": 2, "masses": [{"s": [2, 4], "m": ["0", "1", "2", "3", "4"]}]}
    [(line, ms)] = fileio.sinogram_from_payload(payload).rows
    assert line == ProjectiveLine((1, 2))
    assert ms == tuple(Fraction(t * 2 % 5) for t in range(5))


# A mass of another kind, or a complex pair with an int part, put into a
# canonical file of masses of one kind.
MIXED = {
    "rational": [{"p": 3, "coeffs": ["1/2", "0"]}, [0.5, 0.0]],
    "cyclotomic": ["1/2"],
    "complex": ["1/2", [1, 0], [0.5, 0]],
}


@pytest.mark.parametrize("kind, mixed", [(kind, m) for kind in KINDS for m in MIXED[kind]])
def test_one_kind_masses_are_read_whole_and_mixed_ones_value_by_value(kind, mixed):
    ambient, rng = Ambient(3, 2), rng_for(3, "one-kind")
    f = GridFunction(ambient, kind, [_value(rng, ambient, kind) for _ in ambient.points()])
    payload = fileio.sinogram_to_payload(mass_table(f))
    assert fileio._sinogram_whole(ambient, payload["masses"]) is not None
    payload["masses"][-1]["m"][0] = mixed
    assert fileio._sinogram_whole(ambient, payload["masses"]) is None
    table, reference = fileio.sinogram_from_payload(payload), per_value_table(payload)
    held, want = table._masses, reference._masses
    assert table.directions() == reference.directions()
    assert (held.kind, _lattice_of(held)) == (want.kind, _lattice_of(want))


# --- every fault of a sinogram file, with the per-value reader's text and order

GOOD = {"p": 3, "coeffs": ["1", "2"]}
ROW = ["1", "0", "-1/2"]


def _sinogram(*rows, p=3, d=2) -> dict:
    return {"p": p, "d": d, "masses": [{"s": s, "m": m} for s, m in rows]}


SINOGRAM_FAULTS = {
    "not an object": ([1, 2], "sinogram file must contain a JSON object"),
    "missing fields": ({"p": 3}, "sinogram file is missing field(s): d, masses"),
    "p a bool": ({"p": True, "d": 2, "masses": []}, "p must be an integer, got True"),
    "d a float": ({"p": 3, "d": 2.0, "masses": []}, "d must be an integer, got 2.0"),
    "p not prime": ({"p": 4, "d": 2, "masses": []}, "base modulus must be prime, got 4"),
    "masses not a list": ({"p": 3, "d": 2, "masses": {"s": [1, 0]}}, "sinogram masses must be a list of rows"),
    "row not an object": ({"p": 3, "d": 2, "masses": [7]}, "sinogram row must be an object, got 7"),
    "row missing m": ({"p": 3, "d": 2, "masses": [{"s": [1, 0]}]}, "sinogram row is missing field(s): m"),
    "direction of floats": (
        _sinogram(([1.5, 0], ROW)), "sinogram direction must be a list of 2 integers, got [1.5, 0]"
    ),
    "direction with a bool": (
        _sinogram(([True, 0], ROW)), "sinogram direction must be a list of 2 integers, got [True, 0]"
    ),
    "direction too long": (
        _sinogram(([1, 0, 0], ROW)), "sinogram direction must be a list of 2 integers, got [1, 0, 0]"
    ),
    "direction a string": (
        _sinogram(("10", ROW)), "sinogram direction must be a list of 2 integers, got '10'"
    ),
    "zero direction": (_sinogram(([3, 0], ROW)), "sinogram direction must be nonzero"),
    "too few masses": (_sinogram(([1, 0], ["1", "0"])), "direction [1, 0] needs a list of 3 masses"),
    "row masses not a list": (_sinogram(([1, 0], "1")), "direction [1, 0] needs a list of 3 masses"),
    "bad literal": (_sinogram(([1, 0], ["1", "x", "0"])), "bad rational literal 'x'"),
    "literal a number": (_sinogram(([1, 0], ["1", 2, "0"])), "bad rational literal 2"),
    "cyclotomic coeffs not a list": (
        _sinogram(([1, 0], ["1", {"p": 3, "coeffs": 7}, "0"])),
        "bad cyclotomic value {'p': 3, 'coeffs': 7}: coeffs must be a list",
    ),
    "cyclotomic p a float": (
        _sinogram(([1, 0], ["1", {"p": 3.0, "coeffs": ["1", "2"]}, "0"])),
        "bad cyclotomic value {'p': 3.0, 'coeffs': ['1', '2']}: p and ell must be integers",
    ),
    "cyclotomic conductor": (
        _sinogram(([1, 0], ["1", {"p": 5, "coeffs": ["1"] * 4}, "0"])),
        "value conductor 5**1 does not match grid conductor 3**1",
    ),
    "cyclotomic conductor with the grid's count": (
        _sinogram(([1, 0], ["1", {"p": 5, "coeffs": ["1", "2"]}, "0"])),
        "value conductor 5**1 does not match grid conductor 3**1",
    ),
    "cyclotomic exponent": (
        _sinogram(([1, 0], ["1", {"p": 3, "ell": 2, "coeffs": ["1", "2"]}, "0"])),
        "value conductor 3**2 does not match grid conductor 3**1",
    ),
    "cyclotomic coefficient count": (
        _sinogram(([1, 0], ["1", {"p": 3, "coeffs": ["1"]}, "0"])),
        "need 2 coefficients for conductor 3**1, got 1",
    ),
    "cyclotomic bad coefficient": (
        _sinogram(([1, 0], ["1", {"p": 3, "coeffs": ["1", "y"]}, "0"])), "bad rational literal 'y'"
    ),
    "complex with a bool": (
        _sinogram(([1, 0], [[True, 0], [0.5, 0.0], [0.0, 0.0]])),
        "bad complex value [True, 0]: need [re, im] JSON numbers",
    ),
    "complex of three parts": (
        _sinogram(([1, 0], [[1, 2, 3], [0.5, 0.0], [0.0, 0.0]])),
        "bad complex value [1, 2, 3]: need [re, im] JSON numbers",
    ),
    "complex overflow": (
        _sinogram(([1, 0], [[10**400, 0], [0.5, 0.0], [0.0, 0.0]])),
        f"bad complex value [{10**400}, 0]",
    ),
    "duplicate direction": (
        _sinogram(([1, 0], ROW), ([2, 0], ROW)), "duplicate sinogram direction through (1, 0)"
    ),
    "complex and cyclotomic": (
        _sinogram(([1, 0], [GOOD, "0", "0"]), ([0, 1], [[1.0, 0.0], "0", "0"])),
        "a sinogram cannot mix complex and cyclotomic masses",
    ),
    # the order in which faults are found
    "missing fields before the grid": ({"p": 4}, "sinogram file is missing field(s): d, masses"),
    "grid before the masses": ({"p": 4, "d": 2, "masses": 7}, "base modulus must be prime, got 4"),
    "earlier row first": (_sinogram(([1, 0], ["x", "0", "0"]), ([0, 0], ROW)), "bad rational literal 'x'"),
    "direction before masses": (_sinogram(([0, 0], ["x"])), "sinogram direction must be nonzero"),
    "masses before the duplicate": (
        _sinogram(([1, 0], ROW), ([2, 0], ["1", "x", "0"])), "bad rational literal 'x'"
    ),
    "duplicate before a later row": (
        _sinogram(([1, 0], ROW), ([2, 0], ROW), ([0, 1], ["x", "0", "0"])),
        "duplicate sinogram direction through (1, 0)",
    ),
    "a later literal before the mix": (
        _sinogram(([1, 0], [GOOD, "0", "0"]), ([0, 1], [[1.0, 0.0], "0", "0"]), ([1, 1], ["x", "0", "0"])),
        "bad rational literal 'x'",
    ),
    "coefficients before their count": (
        _sinogram(([1, 0], ["1", {"p": 3, "coeffs": ["z"]}, "0"])), "bad rational literal 'z'"
    ),
    "a literal before a later row's cyclotomic count": (
        _sinogram(([1, 0], ["1", "x", "0"]), ([0, 1], [{"p": 3, "coeffs": ["1"]}, "0", "0"])),
        "bad rational literal 'x'",
    ),
    "nested too deeply": (
        '{"p": 3, "d": 2, "masses": [{"s": [1, 0], "m": ' + "[" * 100_000 + "]" * 100_000 + "}]}",
        "{path}: not valid JSON (nested too deeply)",
    ),
}


@pytest.mark.parametrize("fault", SINOGRAM_FAULTS)
def test_cli_reports_each_sinogram_file_fault(tmp_path, capsys, fault):
    """A fault given as a string is the file's text; "{path}" in its
    message stands for the file's path."""
    payload, message = SINOGRAM_FAULTS[fault]
    fn = tmp_path / "sinogram.json"
    fn.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    message = message.replace("{path}", str(fn))
    assert run_cli(capsys, "tomography", "reconstruct", "--input", str(fn)) == (2, "", f"data error: {message}\n")


def _staircase_sinogram(**extra) -> dict:
    return {**fileio.sinogram_to_payload(mass_table(staircase_function(3))), **extra}


RING_SINOGRAMS = {
    "staircase": _staircase_sinogram,
    # a direction whose first nonzero entry is no unit mod 9, then a bad row
    "non-unit direction": lambda **extra: {
        **_sinogram(([3, 1], ["1", "0", "0"]), ([1, 0], "x")), **extra
    },
}


@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("sinogram", RING_SINOGRAMS)
def test_cli_reconstruct_refuses_a_ring_sinogram(tmp_path, capsys, sinogram, ell):
    """A sinogram's modulus exponent names its grid; masses are defined on
    Z_p**d only, so a ring grid is refused before any row is read, not read
    as Z_p**d."""
    fn = tmp_path / "ring.json"
    fn.write_text(json.dumps(RING_SINOGRAMS[sinogram](modulus_exponent=ell)))
    assert run_cli(capsys, "tomography", "reconstruct", "--input", str(fn)) == (
        2,
        "",
        "data error: this analysis is defined on Z_p**d only, "
        f"not on the ring grid Z_{3**ell}**2\n",
    )


@pytest.mark.parametrize(
    "ell,message",
    [(True, "ell must be an integer, got True"), (2.0, "ell must be an integer, got 2.0"),
     (0, "exponent must be >= 1, got 0")],
    ids=["bool", "float", "zero"],
)
def test_cli_reconstruct_checks_the_modulus_exponent(tmp_path, capsys, ell, message):
    fn = tmp_path / "bad.json"
    fn.write_text(json.dumps(_staircase_sinogram(modulus_exponent=ell)))
    assert run_cli(capsys, "tomography", "reconstruct", "--input", str(fn)) == (2, "", f"data error: {message}\n")


def test_an_exponent_of_one_names_the_prime_grid(tmp_path, capsys):
    fn = tmp_path / "prime.json"
    fn.write_text(json.dumps(_staircase_sinogram(modulus_exponent=1)))
    code, out, err = run_cli(capsys, "tomography", "reconstruct", "--input", str(fn))
    assert (code, err) == (0, "")
    assert fileio.function_from_payload(json.loads(out)) == staircase_function(3)


def test_a_rational_mass_too_large_for_a_complex_table_is_a_data_error(tmp_path, capsys):
    big = str(10**400)
    fn = tmp_path / "big.json"
    fn.write_text(json.dumps(_sinogram(([1, 0], [big, [0.5, 0.0], "0"]))))
    assert run_cli(capsys, "tomography", "reconstruct", "--input", str(fn)) == (
        2, "", f"data error: rational mass {big!r} is too large for a complex value\n"
    )


# --- the exact requests decode nothing


def _count_decodes(monkeypatch) -> list:
    """Count the calls of ``fourier._decode`` at every charkit binding of it."""
    from charkit import fourier

    calls = []
    decode = fourier._decode

    def counting(*args, **kwargs):
        calls.append(args[0])
        return decode(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("charkit") and getattr(module, "_decode", None) is decode:
            monkeypatch.setattr(module, "_decode", counting)
    return calls


EXACT = [f"{name}_{p}_{d}" for name in ("banded", "cyclotomic", "rational") for p, d in ((2, 8), (3, 5), (7, 3))]


@pytest.mark.parametrize("source", EXACT)
def test_cli_decompose_project_and_reconstruct_decode_nothing(monkeypatch, capsys, source):
    """The function and sinogram files are read into rows, and the
    decompositions, sinograms and functions are written from rows."""
    calls = _count_decodes(monkeypatch)
    base = GOLDEN / "exact" / source
    requests = [(f"decompose-{form}", ("decompose", "--form", form), f"{base}.json") for form in FORMS]
    requests += [
        ("project", ("tomography", "project"), f"{base}.json"),
        ("reconstruct", ("tomography", "reconstruct"), f"{base}.project.out.json"),
    ]
    for name, argv, path in requests:
        code, out, _ = run_cli(capsys, *argv, "--input", path)
        assert code == 0
        assert out == Path(f"{base}.{name}.out.json").read_text(), name
    assert calls == []


def test_cli_reconstruct_of_the_tomography_goldens_decodes_nothing(monkeypatch, capsys):
    calls = _count_decodes(monkeypatch)
    for path in sorted((GOLDEN / "tomography").glob("*_?_?.json")):
        code, out, _ = run_cli(capsys, "tomography", "reconstruct", "--input", str(path))
        assert code == 0
        assert out == path.with_name(f"{path.stem}.reconstruct.out.json").read_text()
    assert calls == []


# --- library callers: tables, wavelets and decompositions built from values


def test_a_mass_table_built_from_values_equals_the_projected_one():
    f = staircase_function(5)
    table = mass_table(f)
    rows = tuple((line, tuple(ms)) for line, ms in table.rows)
    built = MassTable(f.ambient, rows)
    assert built.rows == rows and built == table and hash(built) == hash(table)
    assert built.directions() == table.directions() and built.totals() == table.totals()
    assert reconstruct_from_masses(built) == f
    # rational masses among cyclotomic ones, as the per-value reader left them
    z = [Cyclotomic.from_rational(5, m) if i % 2 else m for i, m in enumerate(rows[0][1])]
    mixed = MassTable(f.ambient, ((rows[0][0], tuple(z)),) + rows[1:])
    assert mixed.rows[0][1] == tuple(z)
    assert reconstruct_from_masses(mixed) == f


def test_a_table_of_two_kinds_has_one_text_through_either_writer():
    """The payload writes the masses the table holds, joined to one kind, as
    ``sinogram_dumps`` does: every t = 1 mass of the staircase on Z_3^2 made
    cyclotomic makes every mass a cyclotomic object in both."""
    rows = tuple(
        (line, tuple(Cyclotomic.from_rational(3, m) if t == 1 else m for t, m in enumerate(ms)))
        for line, ms in mass_table(staircase_function(3)).rows
    )
    table = MassTable(Ambient(3, 2), rows)
    text = fileio.sinogram_dumps(table)
    assert text == fileio.canonical_dumps(fileio.sinogram_to_payload(table))
    assert {*map(type, itertools.chain.from_iterable(e["m"] for e in json.loads(text)["masses"]))} == {dict}
    assert fileio.sinogram_from_payload(json.loads(text)) == table


# Hand-built tables of the staircase on Z_3^2 and the texts they are refused with.
SINOGRAM_ERRORS = {
    "not canonical": "sinogram direction [2, 1] is not a canonical line",
    "twice": "sinogram direction [0, 1] appears twice",
    "short row": "sinogram direction [1, 1] has 2 masses, not 3",
    "long row": "sinogram direction [1, 0] has 4 masses, not 3",
    "missing": "sinogram is missing directions: [(0, 1)]",
    "missing two": "sinogram is missing directions: [(1, 0), (1, 2)]",
    "totals": "per-direction totals disagree: direction [1, 2] sums to 7/2, the first direction [0, 1] to 3",
    "totals cyclotomic": (
        "per-direction totals disagree: direction [1, 2] sums to Cyclotomic(3^1: 2 + 1*z^1), "
        "the first direction [0, 1] to 3"
    ),
    "totals complex": (
        "per-direction totals disagree: direction [1, 2] sums to 1j, the first direction [0, 1] to (3+0j)"
    ),
    "totals complex, one value off": (
        "per-direction totals disagree: direction [1, 1] sums to (3+0.001j), the first direction [0, 1] to (3+0j)"
    ),
}


def _hand_built(case: str) -> MassTable:
    rows = list(mass_table(staircase_function(3)).rows)
    line, ms = rows[3]
    complex_rows = [(ln, tuple(map(complex, m))) for ln, m in rows]
    off = complex_rows[2]
    return MassTable(Ambient(3, 2), {
        "not canonical": rows[:1] + [(ProjectiveLine((2, 1)), rows[1][1])] + rows[2:],
        "twice": rows + rows[:1],
        "short row": rows[:2] + [(rows[2][0], rows[2][1][:2])] + rows[3:],
        "long row": rows[:1] + [(rows[1][0], rows[1][1] + (0,))] + rows[2:],
        "missing": rows[1:],
        "missing two": [rows[0], rows[2]],
        "totals": rows[:3] + [(line, ms[:2] + (ms[2] + Fraction(1, 2),))],
        "totals cyclotomic": rows[:3] + [(line, ms[:2] + (Cyclotomic(3, [0, 1]),))],
        "totals complex": complex_rows[:3] + [(line, (1j, 0, 0))],
        "totals complex, one value off": complex_rows[:2] + [(off[0], off[1][:2] + (off[1][2] + 1e-3j,))]
        + complex_rows[3:],
    }[case])


@pytest.mark.parametrize("case", SINOGRAM_ERRORS)
def test_hand_built_tables_are_refused_with_the_same_text(case):
    with pytest.raises(SinogramError) as err:
        reconstruct_from_masses(_hand_built(case))
    assert str(err.value) == SINOGRAM_ERRORS[case]


def test_a_non_finite_mass_is_refused_after_the_table_checks():
    rows = list(mass_table(staircase_function(3).to_complex()).rows)
    line, ms = rows[0]
    rows[0] = (line, (complex("nan"),) + ms[1:])
    with pytest.raises(SinogramError, match="missing directions"):
        reconstruct_from_masses(MassTable(Ambient(3, 2), rows[:-1]))
    with pytest.raises(ValueError, match="complex values must be finite"):
        reconstruct_from_masses(MassTable(Ambient(3, 2), rows))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("source", ["staircase", "constant", (2, 1), (3, 1), (5, 2), (2, 8), (3, 5)])
def test_wavelets_and_decompositions_built_from_values_equal_decompose(kind, source):
    if source == "staircase":
        f = staircase_function(3)
    elif source == "constant":  # no part at all
        f = GridFunction.constant(Ambient(3, 2), Fraction(-5, 3))
    else:
        f = random_rational_function(Ambient(*source), rng_for(3202, f"built/{source}"))
    f = {"rational": f, "cyclotomic": f.to_cyclotomic(), "complex": f.to_complex()}[kind]
    for form in FORMS:
        dec = decompose(f, form)
        parts = tuple(Wavelet(w.ambient, w.direction, w.coeffs, form) for w in dec.parts)
        built = Decomposition(dec.ambient, form, dec.constant, parts)
        assert built == dec and hash(built) == hash(dec)
        assert built.directions() == dec.directions() and built.cbw == dec.cbw
        assert [w.coeffs for w in built.parts] == [w.coeffs for w in dec.parts]
        assert built.evaluate() == dec.evaluate()
        assert fileio.decomposition_dumps(built) == fileio.decomposition_dumps(dec)
        assert repr(built) == repr(dec)
