"""Property tests of the JSON request path against the references it replaced.

``canonical_dumps`` must refuse what JSON cannot hold, ``parse_rational``
must read what ``Fraction(str)`` reads on every literal it accepts, the
row writer ``function_dumps`` must write what
``canonical_dumps(function_to_payload(f))`` writes, the row reader
``function_from_payload`` must give the kind, rows and denominator of the
function built from ``scalar_from_payload`` of each value (complex values
bit for bit), and no mutated input file may get past the CLI's exit codes.
"""

import contextlib
import copy
import io
import itertools
import json
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from charkit import cli, fileio
from charkit.corpus import (
    random_complex_function,
    random_cyclotomic_function,
    random_rational_function,
    rng_for,
)
from charkit.errors import DataFormatError
from charkit.fourier import GridFunction, _lattice_of, forward, inverse
from charkit.geometry import Ambient
from charkit.scalars import Cyclotomic
from charkit.wavelets import mass_table

FIXED = settings(derandomize=True, database=None, deadline=None)

# --- canonical_dumps


def test_canonical_dumps_rejects_values_json_cannot_hold():
    with pytest.raises(TypeError):
        fileio.canonical_dumps([Fraction(1, 2)])


# --- parse_rational == Fraction(str) on the literal syntax

LITERAL = re.compile(r"[-+]?[0-9]+(/[0-9]*[1-9][0-9]*)?", re.ASCII)

literals = st.from_regex(LITERAL, fullmatch=True)
near_literals = st.text(alphabet="0123456789+-/ ._eE٣²", max_size=12)


@settings(FIXED, max_examples=200)
@given(literals | near_literals)
def test_parse_rational_accepts_exactly_the_literal_syntax(text):
    if LITERAL.fullmatch(text):
        assert fileio.parse_rational(text) == Fraction(text)
    else:
        with pytest.raises(DataFormatError):
            fileio.parse_rational(text)


@settings(FIXED, max_examples=300)
@given(st.integers() | st.fractions())
def test_format_rational_round_trips(x):
    text = fileio.format_rational(x)
    assert LITERAL.fullmatch(text)
    assert fileio.parse_rational(text) == x
    assert text == fileio.format_rational(Fraction(x))


# --- function files read into rows and written from rows

# Prime and ring grids: (2,3), (3,2), (7,2), Z_9^2, Z_8^2 and Z_25.
GRIDS = [Ambient(2, 3), Ambient(3, 2), Ambient(7, 2), Ambient(3, 2, 2), Ambient(2, 2, 3),
         Ambient(5, 1, 2)]
# Zero, denominator 1, negative and multi-digit values.
fractions = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3)]) | st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=60
)


@st.composite
def exact_functions(draw):
    """A rational or cyclotomic function on one of GRIDS whose coefficients
    are drawn from a small pool: the zero function when the pool is [0],
    denominator 1 when it holds ints.  The coefficients are placed by a
    seeded generator, so that a failing example shrinks to a small pool."""
    ambient = draw(st.sampled_from(GRIDS))
    kind = draw(st.sampled_from(["rational", "cyclotomic"]))
    pool = draw(st.lists(fractions, min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    width = ambient.modulus - ambient.modulus // ambient.p if kind == "cyclotomic" else 1
    rows = [[rng.choice(pool) for _ in range(width)] for _ in range(ambient.size)]
    if kind == "rational":
        return GridFunction(ambient, kind, [row[0] for row in rows])
    return GridFunction(ambient, kind, [Cyclotomic(ambient.p, row, ambient.ell) for row in rows])


def _same_text(got: str, want: str) -> None:
    """Fail at the first line where two texts differ: a full diff of two
    long files, on every failing example the shrinker tries, takes minutes."""
    for i, (a, b) in enumerate(itertools.zip_longest(got.splitlines(), want.splitlines())):
        if a != b:
            pytest.fail(f"line {i + 1}: {a!r} != {b!r}")


@settings(FIXED, max_examples=80)
@given(exact_functions(), st.sampled_from(["function", "forward", "inverse"]))
def test_the_row_writer_writes_the_canonical_payload(f, transform):
    f = {"function": f, "forward": forward(f), "inverse": inverse(f)}[transform]
    _same_text(fileio.function_dumps(f), fileio.canonical_dumps(fileio.function_to_payload(f)))


def test_the_row_writer_writes_complex_functions_from_their_payload():
    f = random_complex_function(Ambient(3, 2), rng_for(811, "complex-dumps"))
    assert fileio.function_dumps(f) == fileio.canonical_dumps(fileio.function_to_payload(f))


# Literals as a file may hold them: unreduced, signed, zero over any denominator.
UNREDUCED = ["+04/6", "-0", "0/5", "007", "-12/8", "+3", "10/10"]


@st.composite
def literals(draw) -> str:
    """A literal of a random value, sometimes unreduced or signed."""
    x = draw(fractions)
    k = draw(st.sampled_from([1, 1, 2, 7]))
    sign = "+" if x >= 0 and draw(st.booleans()) else ""
    if x.denominator == 1 and k == 1:
        return f"{sign}{x.numerator}"
    return f"{sign}{x.numerator * k}/{x.denominator * k}"


# Parts of complex values as a file may hold them: ints, signed zeros,
# subnormals and the largest float.
PARTS = [0, -3, 2**60, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
parts = st.sampled_from(PARTS) | st.integers(-(10**20), 10**20) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def function_payloads(draw):
    """A function file of each kind on one of GRIDS, its literals or
    complex parts drawn from a small pool.  A cyclotomic file mixes value
    objects (with and without "p" and "ell") and rational strings; a
    complex file mixes int and float parts."""
    ambient = draw(st.sampled_from(GRIDS))
    kind = draw(st.sampled_from(["rational", "cyclotomic", "complex"]))
    pool = draw(st.lists(parts if kind == "complex" else st.sampled_from(UNREDUCED) | literals(),
                         min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    width = ambient.modulus - ambient.modulus // ambient.p
    values = []
    for _ in range(ambient.size):
        if kind == "complex":
            values.append([rng.choice(pool), rng.choice(pool)])
            continue
        if kind == "rational" or rng.random() < 0.3:
            values.append(rng.choice(pool))
            continue
        value = {"coeffs": [rng.choice(pool) for _ in range(width)]}
        if rng.random() < 0.5:
            value["p"] = ambient.p
        if ambient.ell != 1 or rng.random() < 0.5:
            value["ell"] = ambient.ell
        values.append(value)
    payload = {"p": ambient.p, "d": ambient.d, "kind": kind, "values": values}
    if ambient.ell != 1:
        payload["modulus_exponent"] = ambient.ell
    return payload


@settings(FIXED, max_examples=80)
@given(function_payloads())
@example({"p": 2, "d": 2, "kind": "complex", "values": [
    [-0.0, 5e-324], [1.7976931348623157e308, -0.0], [3, -5e-324], [0, -1.7976931348623157e308]
]})
def test_the_row_reader_gives_the_rows_of_the_per_value_reader(payload):
    ambient = Ambient(payload["p"], payload["d"], payload.get("modulus_exponent", 1))
    kind, p, ell = payload["kind"], ambient.p, ambient.ell
    reference = GridFunction(
        ambient, kind, [fileio.scalar_from_payload(v, kind, p, ell) for v in payload["values"]]
    )
    f = fileio.function_from_payload(payload)
    assert (f.ambient, f.kind) == (ambient, kind)
    assert _lattice_of(f) == _lattice_of(reference)
    assert f.values == reference.values
    if kind == "complex":  # bit for bit: -0.0 == 0.0 would pass the checks above
        def bits(g):
            return [(z.real.hex(), z.imag.hex()) for z in g.values]

        assert bits(f) == bits(reference)


# --- the exit-code contract on mutated input files


def _valid_payloads() -> list:
    rng = rng_for(810, "fuzz")
    rational = random_rational_function(Ambient(3, 2), rng)
    return [
        fileio.function_to_payload(rational),
        fileio.function_to_payload(random_cyclotomic_function(Ambient(3, 1), rng)),
        fileio.function_to_payload(random_complex_function(Ambient(2, 2), rng)),
        fileio.function_to_payload(random_rational_function(Ambient(2, 1, 2), rng)),
        fileio.sinogram_to_payload(mass_table(rational)),
        fileio.sinogram_to_payload(mass_table(random_cyclotomic_function(Ambient(3, 1), rng))),
    ]


VALID = _valid_payloads()
FILE_COMMANDS = [
    ("transform",),
    ("transform", "--inverse"),
    ("bandwidth",),
    ("decompose",),
    ("tomography", "project"),
    ("tomography", "reconstruct"),
    ("eigen",),
    ("variety",),
    ("zpl",),
]
FIELDS = ["p", "d", "kind", "values", "modulus_exponent", "coeffs", "ell", "masses", "s", "m"]
junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats()
    | st.sampled_from(["", "1", "-1/2", "1/0", "1.5", "x", "rational", "cyclotomic", "complex"]),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.sampled_from(FIELDS), children, max_size=3)
    ),
    max_leaves=5,
)


def _slots(obj, out: list) -> list:
    """Every (container, key) in a JSON tree, children before parents, so
    that the simplest mutation hypothesis tries is at a leaf."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return out
    for key, value in reversed(list(items)):
        _slots(value, out)
        out.append((obj, key))
    return out


@st.composite
def mutated_payloads(draw):
    payload = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(payload, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["copy", "replace", "delete", "repeat", "bool"]))
        if action == "copy":  # often still a valid file: another value of the same tree
            other, other_key = draw(st.sampled_from(slots))
            container[key] = copy.deepcopy(other[other_key])
        elif action == "delete":
            del container[key]
        elif action == "repeat" and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        elif action == "bool" and type(container[key]) is int:
            container[key] = bool(container[key] % 2)
        else:
            container[key] = draw(junk)
    return payload


@settings(FIXED, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_payloads())
def test_cli_exit_codes_hold_for_mutated_files(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        for command in FILE_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*command, "--input", str(path)])
            assert code in (0, 1, 2), (command, payload, err.getvalue())
            assert "Traceback" not in err.getvalue()
