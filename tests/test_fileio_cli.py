import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from charkit import cli, fileio
from charkit.bandwidth import bandwidth
from charkit.corpus import (
    random_complex_function,
    random_cyclotomic_function,
    random_rational_function,
    rng_for,
    staircase_function,
)
from charkit.eigen import eigen_expand, self_dual_classify
from charkit.errors import CapacityError, DataFormatError, HypothesisNotMet, TheoremViolation
from charkit.fourier import GridFunction, forward, inverse
from charkit.geometry import Ambient, line_through
from charkit.scalars import Cyclotomic
from charkit.wavelets import Decomposition, Wavelet, decompose, mass_table

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    return cli.main(list(argv))


# Every literal that a rational value, cyclotomic coefficient or mass rejects.
LOOSE_LITERALS = [0.1, 2, True, None, "1.5", " 3", "--3", "3/-4", "1/0", "\u0663", "1e3"]


def test_rational_formatting():
    assert fileio.format_rational(Fraction(3, 4)) == "3/4"
    assert fileio.format_rational(Fraction(-2)) == "-2"
    assert fileio.format_rational(-5) == "-5"
    assert fileio.format_rational(True) == "1"
    assert fileio.parse_rational("-7/2") == Fraction(-7, 2)
    assert fileio.parse_rational("+04/6") == Fraction(2, 3)
    assert fileio.parse_rational("-0") == 0
    for text in LOOSE_LITERALS + ["x", "", "+", "1/", "/2", "1/00", "1_000", "1/2/3", "3 "]:
        with pytest.raises(DataFormatError) as err:
            fileio.parse_rational(text)
        assert repr(text) in str(err.value)


def _with_literal(where: str, literal):
    """A valid file with one rational literal replaced by ``literal``."""
    coeffs = {"p": 3, "coeffs": ["1", literal]}
    if where == "rational value":
        return "transform", {"p": 3, "d": 1, "kind": "rational", "values": ["1", literal, "0"]}
    if where == "cyclotomic coeff":
        return "transform", {"p": 3, "d": 1, "kind": "cyclotomic", "values": ["1", coeffs, "0"]}
    masses = ["1", literal, "0"] if where == "mass" else ["1", coeffs, "0"]
    return "tomography reconstruct", {"p": 3, "d": 1, "masses": [{"s": [1], "m": masses}]}


@pytest.mark.parametrize("literal", LOOSE_LITERALS, ids=repr)
@pytest.mark.parametrize("where", ["rational value", "cyclotomic coeff", "mass", "mass coeff"])
def test_cli_rejects_a_loose_rational_literal(tmp_path, capsys, where, literal):
    command, payload = _with_literal(where, literal)
    fn = tmp_path / "input.json"
    fn.write_text(json.dumps(payload))
    assert run_cli(*command.split(), "--input", str(fn)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: bad rational literal {literal!r}\n"


@pytest.mark.parametrize(
    "value",
    [[True, 0], [0, False], ["1.5", 0], [None, 0], [10**400, 0], [1, 2, 3]],
    ids=["bool-re", "bool-im", "string", "null", "overflow", "three-parts"],
)
@pytest.mark.parametrize("file_kind", ["function", "sinogram"])
def test_cli_rejects_a_complex_value_that_is_not_two_numbers(tmp_path, capsys, value, file_kind):
    if file_kind == "function":
        argv = ("transform",)
        payload = {"p": 2, "d": 1, "kind": "complex", "values": [[1, 0.5], value]}
    else:
        argv = ("tomography", "reconstruct")
        payload = {"p": 2, "d": 1, "masses": [{"s": [1], "m": [[1, 0.5], value]}]}
    fn = tmp_path / "input.json"
    fn.write_text(json.dumps(payload))
    assert run_cli(*argv, "--input", str(fn)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: bad complex value")


# A JSON text nested deeper than the decoder's recursion limit.
NESTED = "[" * 100_000 + "]" * 100_000

# Every fault the function reader finds, with the text it reports.
FUNCTION_FAULTS = {
    "bad literal": (
        {"p": 3, "d": 1, "kind": "rational", "values": ["1", "1/x", "0"]},
        "bad rational literal '1/x'",
    ),
    "non-list coeffs": (
        {"p": 3, "d": 1, "kind": "cyclotomic", "values": ["1", {"p": 3, "coeffs": "1"}, "0"]},
        "bad cyclotomic value {'p': 3, 'coeffs': '1'}: coeffs must be a list",
    ),
    "bool ell": (
        {"p": 3, "d": 1, "kind": "cyclotomic",
         "values": [{"p": 3, "ell": True, "coeffs": ["1", "0"]}, "1", "0"]},
        "bad cyclotomic value {'p': 3, 'ell': True, 'coeffs': ['1', '0']}: p and ell must be integers",
    ),
    "conductor mismatch": (
        {"p": 3, "d": 1, "kind": "cyclotomic",
         "values": ["1", {"p": 5, "coeffs": ["1", "0", "0", "0"]}, "0"]},
        "value conductor 5**1 does not match grid conductor 3**1",
    ),
    "conductor mismatch with the grid's count": (
        {"p": 3, "d": 1, "kind": "cyclotomic", "values": ["1", {"p": 5, "coeffs": ["1", "0"]}, "0"]},
        "value conductor 5**1 does not match grid conductor 3**1",
    ),
    "exponent mismatch with the grid's count": (
        {"p": 2, "d": 1, "kind": "cyclotomic", "values": [{"p": 2, "ell": 2, "coeffs": ["1"]}, "0"]},
        "value conductor 2**2 does not match grid conductor 2**1",
    ),
    "coefficient count": (
        {"p": 3, "d": 1, "kind": "cyclotomic", "values": ["1", "0", {"p": 3, "coeffs": ["1", "2", "3"]}]},
        "need 2 coefficients for conductor 3**1, got 3",
    ),
    "wrong length": (
        {"p": 3, "d": 1, "kind": "rational", "values": ["1", "0"]},
        "values must be a list of length 3, got 2",
    ),
    "unknown kind": (
        {"p": 3, "d": 1, "kind": "real", "values": ["1", "0", "0"]},
        "unknown kind 'real'",
    ),
    "not an object": (["1", "0", "0"], "function file must contain a JSON object"),
    "nested too deeply": (
        '{"p": 3, "d": 1, "kind": "rational", "values": ["1", ' + NESTED + ', "0"]}',
        "{path}: not valid JSON (nested too deeply)",
    ),
    # two faults: the lists are checked whole, and the first in file order is named
    "complex: a pair of three parts before a bool": (
        {"p": 3, "d": 1, "kind": "complex", "values": [[1, 0], [1, 2, 3], [True, 0]]},
        "bad complex value [1, 2, 3]: need [re, im] JSON numbers",
    ),
    "complex: an overflow before a string part": (
        {"p": 2, "d": 1, "kind": "complex", "values": [[10**400, 0], ["1", 0]]},
        f"bad complex value [{10**400}, 0]",
    ),
    "cyclotomic: a coefficient count before a float p": (
        {"p": 3, "d": 1, "kind": "cyclotomic",
         "values": ["1", {"p": 3, "coeffs": ["1", "2", "3"]}, {"p": 3.0, "coeffs": ["1", "2"]}]},
        "need 2 coefficients for conductor 3**1, got 3",
    ),
}


@pytest.mark.parametrize("fault", FUNCTION_FAULTS)
def test_cli_reports_each_function_file_fault(tmp_path, capsys, fault):
    """A fault given as a string is the file's text; "{path}" in its
    message stands for the file's path."""
    payload, message = FUNCTION_FAULTS[fault]
    fn = tmp_path / "input.json"
    fn.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert run_cli("transform", "--input", str(fn)) == 2
    assert capsys.readouterr() == ("", f"data error: {message.replace('{path}', str(fn))}\n")


def test_a_cyclotomic_value_reports_its_first_fault_first():
    """Literals are read in order before the coefficient count is checked,
    and values in order, as the per-value reader found them, though the
    values are checked whole (the float p of the second value would fail
    the check of every p first)."""
    for values, error, message in [
        ([{"coeffs": ["1", "x", "y"]}, {"coeffs": ["1"]}, "z"], DataFormatError, "bad rational literal 'x'"),
        ([{"coeffs": ["1"]}, "z", "0"], ValueError, "need 2 coefficients for conductor 3**1, got 1"),
        ([{"coeffs": ["1"]}, {"p": 3.0, "coeffs": ["1", "2"]}, "0"], ValueError,
         "need 2 coefficients for conductor 3**1, got 1"),
    ]:
        with pytest.raises(error) as err:
            fileio.function_from_payload({"p": 3, "d": 1, "kind": "cyclotomic", "values": values})
        assert str(err.value) == message


TABLE_FUNCTIONS = {
    "rational": {"p": 3, "d": 1, "kind": "rational", "values": ["1", "-1/2", "0"]},
    "cyclotomic": {"p": 2, "d": 1, "kind": "cyclotomic", "modulus_exponent": 2,
                   "values": [{"p": 2, "ell": 2, "coeffs": ["0", "1/2"]}, "1", "0", "-3"]},
    "complex": {"p": 2, "d": 1, "kind": "complex", "values": [[1.0, 0.5], [-0.25, 0.0]]},
}
TABLE_SINOGRAMS = {
    "rational": {"p": 3, "d": 1, "masses": [{"s": [1], "m": ["1", "-1/2", "0"]}]},
    "cyclotomic": {"p": 3, "d": 1, "masses": [{"s": [1], "m": [{"p": 3, "coeffs": ["0", "1/2"]}, "1", "0"]}]},
    "complex": {"p": 2, "d": 1, "masses": [{"s": [1], "m": [[1.0, 0.5], [-0.25, 0.0]]}]},
}
# What ``--format table`` prints for them: a complex value is one line, its
# real and imaginary parts in brackets, and "- " marks the first line of each
# cyclotomic value.
TABLES = {
    ("rational", "transform"): (
        "p: 3\n"
        "d: 1\n"
        "kind: cyclotomic\n"
        "values:\n"
        "  - p: 3\n"
        "    coeffs:\n"
        "      - 1/6\n"
        "      - 0\n"
        "  - p: 3\n"
        "    coeffs:\n"
        "      - 1/2\n"
        "      - 1/6\n"
        "  - p: 3\n"
        "    coeffs:\n"
        "      - 1/3\n"
        "      - -1/6\n"
    ),
    ("rational", "transform --inverse"): (
        "p: 3\n"
        "d: 1\n"
        "kind: cyclotomic\n"
        "values:\n"
        "  - p: 3\n"
        "    coeffs:\n"
        "      - 1/2\n"
        "      - 0\n"
        "  - p: 3\n"
        "    coeffs:\n"
        "      - 1\n"
        "      - -1/2\n"
        "  - p: 3\n"
        "    coeffs:\n"
        "      - 3/2\n"
        "      - 1/2\n"
    ),
    ("rational", "tomography reconstruct"): (
        "p: 3\n"
        "d: 1\n"
        "kind: rational\n"
        "values:\n"
        "  - 1\n"
        "  - -1/2\n"
        "  - 0\n"
    ),
    ("cyclotomic", "transform"): (
        "p: 2\n"
        "d: 1\n"
        "kind: cyclotomic\n"
        "values:\n"
        "  - p: 2\n"
        "    coeffs:\n"
        "      - -1/2\n"
        "      - 1/8\n"
        "    ell: 2\n"
        "  - p: 2\n"
        "    coeffs:\n"
        "      - 0\n"
        "      - -7/8\n"
        "    ell: 2\n"
        "  - p: 2\n"
        "    coeffs:\n"
        "      - 1/2\n"
        "      - 1/8\n"
        "    ell: 2\n"
        "  - p: 2\n"
        "    coeffs:\n"
        "      - 0\n"
        "      - 9/8\n"
        "    ell: 2\n"
        "modulus_exponent: 2\n"
    ),
    ("cyclotomic", "transform --inverse"): (
        "p: 2\n"
        "d: 1\n"
        "kind: cyclotomic\n"
        "values:\n"
        "  - p: 2\n"
        "    coeffs:\n"
        "      - -2\n"
        "      - 1/2\n"
        "    ell: 2\n"
        "  - p: 2\n"
        "    coeffs:\n"
        "      - 0\n"
        "      - 9/2\n"
        "    ell: 2\n"
        "  - p: 2\n"
        "    coeffs:\n"
        "      - 2\n"
        "      - 1/2\n"
        "    ell: 2\n"
        "  - p: 2\n"
        "    coeffs:\n"
        "      - 0\n"
        "      - -7/2\n"
        "    ell: 2\n"
        "modulus_exponent: 2\n"
    ),
    ("cyclotomic", "tomography reconstruct"): (
        "p: 3\n"
        "d: 1\n"
        "kind: cyclotomic\n"
        "values:\n"
        "  - p: 3\n"
        "    coeffs:\n"
        "      - 0\n"
        "      - 1/2\n"
        "  - p: 3\n"
        "    coeffs:\n"
        "      - 1\n"
        "      - 0\n"
        "  - p: 3\n"
        "    coeffs:\n"
        "      - 0\n"
        "      - 0\n"
    ),
    ("complex", "transform"): (
        "p: 2\n"
        "d: 1\n"
        "kind: complex\n"
        "values:\n"
        "  - [0.375, 0.25]\n"
        "  - [0.625, 0.24999999999999997]\n"
    ),
    ("complex", "transform --inverse"): (
        "p: 2\n"
        "d: 1\n"
        "kind: complex\n"
        "values:\n"
        "  - [0.75, 0.5]\n"
        "  - [1.25, 0.49999999999999994]\n"
    ),
    ("complex", "tomography reconstruct"): (
        "p: 2\n"
        "d: 1\n"
        "kind: complex\n"
        "values:\n"
        "  - [1.0, 0.5]\n"
        "  - [-0.25, 0.0]\n"
    ),
}


@pytest.mark.parametrize("kind, command", TABLES)
def test_cli_function_results_as_tables(tmp_path, capsys, kind, command):
    inputs = TABLE_SINOGRAMS if command == "tomography reconstruct" else TABLE_FUNCTIONS
    fn = tmp_path / "input.json"
    fn.write_text(json.dumps(inputs[kind]))
    assert run_cli(*command.split(), "--input", str(fn), "--format", "table") == 0
    assert capsys.readouterr() == (TABLES[kind, command], "")


def _text_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter writes integers of any length as text")
    return limit


@pytest.mark.parametrize("command", ["transform", "tomography project", "decompose"])
def test_cli_reports_an_output_integer_over_the_text_limit(tmp_path, capsys, command):
    """Two values whose denominators have half the limit's digits each give
    outputs with denominators over the limit."""
    limit = _text_limit()
    e = limit // 2 + 50
    values = [f"1/{10**e + 1}", f"1/{10**e + 3}"] + ["0"] * 7
    fn = tmp_path / "input.json"
    fn.write_text(json.dumps({"p": 3, "d": 2, "kind": "rational", "values": values}))
    assert run_cli(*command.split(), "--input", str(fn)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(
        rf"data error: cannot write an integer of (\d+) digits: "
        rf"the limit for integer text is {limit} digits\n",
        err,
    )
    assert int(re.search(r"\d+", err).group()) > limit


def test_cli_reports_a_literal_over_the_text_limit(tmp_path, capsys):
    literal = "1/" + "7" * (_text_limit() + 1)
    fn = tmp_path / "input.json"
    fn.write_text(json.dumps({"p": 2, "d": 1, "kind": "rational", "values": ["0", literal]}))
    assert run_cli("transform", "--input", str(fn)) == 2
    assert capsys.readouterr() == ("", f"data error: bad rational literal {literal!r}\n")


def test_format_rational_reports_an_integer_over_the_text_limit():
    limit = _text_limit()
    with pytest.raises(CapacityError, match=f"integer of {limit + 1} digits: .* is {limit} digits"):
        fileio.format_rational(Fraction(1, 10**limit))
    assert fileio.format_rational(Fraction(-1, 10**limit - 1)) == f"-1/{'9' * limit}"


def test_function_payload_round_trip(tmp_path):
    rng = rng_for(800, "io")
    for amb in (Ambient(3, 2), Ambient(5, 1), Ambient(2, 2, 2)):
        f = random_rational_function(amb, rng)
        path = tmp_path / "f.json"
        fileio.save_function(f, path)
        assert fileio.load_function(path) == f
    g = random_complex_function(Ambient(3, 2), rng)
    path = tmp_path / "g.json"
    fileio.save_function(g, path)
    assert fileio.load_function(path).isclose(g)


def test_spectrum_payload_round_trip(tmp_path):
    F = forward(staircase_function(3))
    path = tmp_path / "spec.json"
    fileio.save_function(F, path)
    back = fileio.load_function(path)
    assert back.values == F.values
    assert inverse(back) == staircase_function(3)


def test_payload_schema_errors():
    with pytest.raises(DataFormatError) as err:
        fileio.function_from_payload({"p": 3, "values": []})
    assert "d" in str(err.value) and "kind" in str(err.value)
    with pytest.raises(DataFormatError):
        fileio.function_from_payload({"p": 3, "d": 2, "kind": "rational", "values": ["1"]})
    with pytest.raises(DataFormatError):
        fileio.function_from_payload(
            {"p": 3, "d": 1, "kind": "rational", "values": ["1", "?", "0"]}
        )
    with pytest.raises(DataFormatError):
        fileio.function_from_payload(
            {"p": 3, "d": 1, "kind": "cyclotomic", "values": [{"p": 5, "coeffs": ["1"] * 4}] * 3}
        )


def test_sinogram_round_trip_and_rebasing(tmp_path):
    f = staircase_function(3)
    table = mass_table(f)
    path = tmp_path / "sino.json"
    fileio.save_sinogram(table, path)
    again = fileio.load_sinogram(path)
    assert again.rows == table.rows
    # a non-canonical direction is rebased onto its canonical generator
    payload = fileio.sinogram_to_payload(table)
    row = payload["masses"][1]  # direction (1,0)
    assert row["s"] == [1, 0]
    row["s"] = [2, 0]  # same line, generator doubled
    row["m"] = [row["m"][t * 2 % 3] for t in range(3)]  # masses seen by s=(2,0)
    rebased = fileio.sinogram_from_payload(payload)
    assert rebased.rows == table.rows
    # duplicate directions rejected
    payload["masses"].append(payload["masses"][0])
    with pytest.raises(DataFormatError):
        fileio.sinogram_from_payload(payload)


def test_decomposition_payload_round_trip():
    dec = decompose(staircase_function(3), "reduced")
    payload = fileio.decomposition_to_payload(dec)
    assert (payload["p"], payload["d"], payload["form"]) == (3, 2, "reduced")
    parts = tuple(
        Wavelet(
            dec.ambient,
            line_through(dec.ambient, part["s"]),
            tuple(map(fileio.parse_rational, part["coeffs"])),
            "reduced",
        )
        for part in payload["parts"]
    )
    constant = fileio.parse_rational(payload["constant"])
    assert Decomposition(dec.ambient, "reduced", constant, parts) == dec


def test_cyclotomic_scalar_payload():
    z = Cyclotomic(3, [Fraction(1, 2), Fraction(-1)])
    payload = fileio.scalar_to_payload(z)
    assert payload == {"p": 3, "coeffs": ["1/2", "-1"]}
    assert fileio.scalar_from_payload(payload, "cyclotomic", 3) == z
    z4 = Cyclotomic.zeta(2, 1, ell=2)
    payload4 = fileio.scalar_to_payload(z4)
    assert payload4["ell"] == 2
    assert fileio.scalar_from_payload(payload4, "cyclotomic", 2, 2) == z4


def test_cli_transform_round_trip(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    spec = tmp_path / "spec.json"
    back = tmp_path / "back.json"
    fileio.save_function(staircase_function(3), fn)
    assert run_cli("transform", "--input", str(fn), "--output", str(spec)) == 0
    assert run_cli("transform", "--inverse", "--input", str(spec), "--output", str(back)) == 0
    assert fn.read_bytes() == back.read_bytes()


def test_cli_transform_oracle(tmp_path, capsys):
    rng = rng_for(801, "cli-oracle")
    for i in range(10):
        f = random_rational_function(Ambient((2, 3, 5)[i % 3], 2), rng)
        fn = tmp_path / f"fn{i}.json"
        fileio.save_function(f, fn)
        assert run_cli("transform", "--input", str(fn), "--oracle") == 0
        assert json.loads(capsys.readouterr().out)["match"] == "exact"


def test_cli_bandwidth_golden(tmp_path, capsys):
    for p in (3, 5, 7):
        fn = tmp_path / f"stair{p}.json"
        out = tmp_path / f"bw{p}.json"
        fileio.save_function(staircase_function(p), fn)
        assert run_cli("bandwidth", "--input", str(fn), "--output", str(out)) == 0
        assert out.read_bytes() == (GOLDEN / f"staircase_bandwidth_p{p}.json").read_bytes()


def test_cli_decompose_forms(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fileio.save_function(staircase_function(3), fn)
    for form in ("plain", "reduced", "massless"):
        assert run_cli("decompose", "--input", str(fn), "--form", form) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["form"] == form and len(payload["parts"]) == 3
    # constant input has no parts
    cfn = tmp_path / "const.json"
    fileio.save_function(GridFunction.constant(Ambient(3, 2), Fraction(2)), cfn)
    assert run_cli("decompose", "--input", str(cfn), "--form", "massless") == 0
    assert json.loads(capsys.readouterr().out)["parts"] == []


def test_cli_tomography_round_trip_and_corruption(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    sino = tmp_path / "sino.json"
    back = tmp_path / "back.json"
    fileio.save_function(staircase_function(3), fn)
    assert run_cli("tomography", "project", "--input", str(fn), "--output", str(sino)) == 0
    assert run_cli("tomography", "reconstruct", "--input", str(sino), "--output", str(back)) == 0
    assert fn.read_bytes() == back.read_bytes()
    payload = json.loads(sino.read_text())
    payload["masses"][0]["m"][2] = "41"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("tomography", "reconstruct", "--input", str(bad)) == 2


def test_cli_eigen_variety_zpl(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fileio.save_function(staircase_function(3), fn)
    assert run_cli("eigen", "--input", str(fn)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expansion"]["reconstruction"] == "exact"
    assert run_cli("variety", "--input", str(fn)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["good"] is False
    zfn = tmp_path / "zfn.json"
    rng = rng_for(802, "cli-zpl")
    fileio.save_function(random_rational_function(Ambient(2, 2, 2), rng), zfn)
    assert run_cli("zpl", "--input", str(zfn)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["multiscale"]["reconstruction"] == "exact"


def test_cli_verify_exhaustive_flags(capsys):
    assert run_cli("verify", "uncertainty", "--p", "2", "--d", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"]
    detail = payload["suites"][0]["checks"][0]["detail"]
    assert "15/15" in detail


def test_cli_transform_oracle_complex(tmp_path, capsys):
    f = random_complex_function(Ambient(3, 2), rng_for(803, "cli-cplx"))
    fn = tmp_path / "cfn.json"
    fileio.save_function(f, fn)
    assert run_cli("transform", "--input", str(fn), "--oracle") == 0
    assert json.loads(capsys.readouterr().out)["match"] == "within tolerance"


def test_cli_verify_table_format(capsys):
    assert run_cli("verify", "zpl", "--format", "table") == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS zpl:") and "multiscale" in out


def test_cli_verify_deterministic(capsys):
    assert run_cli("verify", "dichotomy", "--seed", "42") == 0
    first = capsys.readouterr().out
    assert run_cli("verify", "dichotomy", "--seed", "42") == 0
    assert capsys.readouterr().out == first


def test_cli_exit_codes(tmp_path, capsys):
    assert run_cli("bandwidth") == 1  # usage
    missing = tmp_path / "missing.json"
    assert run_cli("bandwidth", "--input", str(missing)) == 2  # data
    bad = tmp_path / "bad.json"
    bad.write_text("{\"p\": 3}")
    assert run_cli("bandwidth", "--input", str(bad)) == 2


def test_cli_table_format(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fileio.save_function(staircase_function(3), fn)
    assert run_cli("bandwidth", "--input", str(fn), "--format", "table") == 0
    out = capsys.readouterr().out
    assert "cbw: 3" in out


def test_cli_mass_commands_reject_ring_grids(tmp_path, capsys):
    fn = tmp_path / "ring.json"
    rng = rng_for(804, "cli-ring")
    fileio.save_function(random_rational_function(Ambient(2, 2, 2), rng), fn)
    capsys.readouterr()
    for argv in (
        ("tomography", "project", "--input", str(fn)),
        ("decompose", "--input", str(fn)),
        ("decompose", "--input", str(fn), "--form", "massless"),
        ("eigen", "--input", str(fn)),
    ):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:")
        assert "Traceback" not in captured.err


def test_cli_field_commands_reject_ring_grids(tmp_path, capsys):
    fn = tmp_path / "z4.json"
    fileio.save_function(random_rational_function(Ambient(2, 2, 2), rng_for(809, "z4")), fn)
    capsys.readouterr()
    for argv in (
        ("bandwidth", "--input", str(fn)),
        ("decompose", "--input", str(fn)),
        ("tomography", "project", "--input", str(fn)),
        ("eigen", "--input", str(fn)),
        ("variety", "--input", str(fn)),
    ):
        assert run_cli(*argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:") and "Z_p**d only" in captured.err
        assert "Traceback" not in captured.err
    for argv in (("transform", "--input", str(fn)), ("zpl", "--input", str(fn))):
        assert run_cli(*argv) == 0, argv
        capsys.readouterr()


@pytest.mark.parametrize(
    "change",
    [
        {"p": 3.0},
        {"p": "3"},
        {"p": True},
        {"d": True},
        {"d": 1.0},
        {"modulus_exponent": 1.0},
        {"modulus_exponent": True},
    ],
    ids=lambda c: "-".join(f"{k}={v!r}" for k, v in c.items()),
)
def test_cli_rejects_non_integer_grid_fields(tmp_path, capsys, change):
    # one-dimensional, so that "d": true read as d = 1 would be a valid file
    payload = fileio.function_to_payload(GridFunction.constant(Ambient(3, 1), Fraction(1)))
    payload.update(change)
    fn = tmp_path / "bad.json"
    fn.write_text(json.dumps(payload))
    assert run_cli("bandwidth", "--input", str(fn)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "s", [[1.5, 0], [True, 0], [1, 0, 0], "10", [1, "0"]], ids=repr
)
def test_cli_rejects_non_integer_sinogram_directions(tmp_path, capsys, s):
    payload = fileio.sinogram_to_payload(mass_table(staircase_function(3)))
    payload["masses"][1]["s"] = s
    fn = tmp_path / "bad.json"
    fn.write_text(json.dumps(payload))
    assert run_cli("tomography", "reconstruct", "--input", str(fn)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert "Traceback" not in captured.err


def test_cli_rejects_a_sinogram_with_a_non_finite_complex_mass(tmp_path, capsys):
    payload = fileio.sinogram_to_payload(mass_table(staircase_function(3).to_complex()))
    payload["masses"][0]["m"][0] = [math.nan, 0.0]
    fn = tmp_path / "nan.json"
    fn.write_text(json.dumps(payload))
    assert run_cli("tomography", "reconstruct", "--input", str(fn)) == 2
    assert capsys.readouterr().err == "data error: complex values must be finite\n"


def test_cli_refuses_to_project_a_complex_function_whose_masses_overflow(tmp_path, capsys):
    fn = tmp_path / "huge.json"
    fn.write_text(json.dumps({"p": 3, "d": 2, "kind": "complex", "values": [[1e308, 0]] * 9}))
    assert run_cli("tomography", "project", "--input", str(fn)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "data error: complex values must be finite\n"


def test_cli_verify_reports_a_suite_that_raises(monkeypatch, capsys):
    from charkit import verify

    def broken(config):
        raise TheoremViolation("planted counterexample")

    monkeypatch.setitem(verify.SUITES, "spheres", broken)
    assert run_cli("verify", "all", "--seed", "42", "--suite-size", "2") == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert [r["suite"] for r in payload["suites"]] == list(verify.SUITE_ORDER)
    assert payload["passed"] is False
    for r in payload["suites"]:
        if r["suite"] == "spheres":
            assert r["passed"] is False
            assert r["checks"] == [
                {"name": "raised TheoremViolation", "passed": False,
                 "detail": "planted counterexample"}
            ]
            assert r["counterexamples"] == ["planted counterexample"]
        else:
            assert r["passed"] is True, r["suite"]


def test_cli_verify_reports_every_suite_when_one_is_refused(capsys):
    from charkit import verify

    assert run_cli("verify", "all", "--p", "3", "--d", "3", "--suite-size", "2") == 2
    captured = capsys.readouterr()
    # the exhaustive suites refuse 2**27 subsets; the planar suites refuse d = 3
    refused = {
        "wavelet": ("ValueError", "the staircase example is defined on Z_p**2 only, not on (3,3)"),
        "uncertainty": ("CapacityError", "2**27 subsets of (3,3) exceed the limit 65536"),
        "dichotomy": ("CapacityError", "2**27 subsets of (3,3) exceed the limit 65536"),
        "spheres": ("ValueError", "the sphere analysis is defined on Z_p**2 only, not on (3,3)"),
        "selfdual": ("CapacityError", "2**27 subsets of (3,3) exceed the limit 65536"),
    }
    assert captured.err.splitlines() == [
        f"data error: verify {suite}: {reason}" for suite, (_, reason) in refused.items()
    ]
    payload = json.loads(captured.out)
    assert [r["suite"] for r in payload["suites"]] == list(verify.SUITE_ORDER)
    assert payload["passed"] is False
    for r in payload["suites"]:
        if r["suite"] in refused:
            error, reason = refused[r["suite"]]
            assert r["checks"] == [
                {"name": f"raised {error}", "passed": False, "detail": reason}
            ]
            assert r["counterexamples"] == []
        else:
            assert r["passed"] is True, r["suite"]


PARABOLOID_AT_D1 = [
    {"name": "raised ValueError", "passed": False,
     "detail": "the slicing statement requires dimension >= 2"}
]


def test_cli_verify_reports_every_suite_when_one_cannot_take_the_grid(capsys):
    from charkit import verify

    assert run_cli("verify", "all", "--d", "1", "--suite-size", "2") == 2
    captured = capsys.readouterr()
    # the planar suites, the dichotomy and the slicing statement need d >= 2
    refused = {
        "wavelet": "the staircase example is defined on Z_p**2 only, not on (3,1)",
        "dichotomy": "the dichotomy requires dimension >= 2",
        "paraboloid": "the slicing statement requires dimension >= 2",
        "spheres": "the sphere analysis is defined on Z_p**2 only, not on (3,1)",
    }
    assert captured.err.splitlines() == [
        f"data error: verify {suite}: {reason}" for suite, reason in refused.items()
    ]
    payload = json.loads(captured.out)
    assert [r["suite"] for r in payload["suites"]] == list(verify.SUITE_ORDER)
    assert payload["passed"] is False
    for r in payload["suites"]:
        if r["suite"] in refused:
            assert r["checks"] == [
                {"name": "raised ValueError", "passed": False, "detail": refused[r["suite"]]}
            ]
            assert r["counterexamples"] == []
        else:
            assert r["passed"] is True, r["suite"]


def test_cli_verify_paraboloid_alone_at_d1_prints_its_report(capsys):
    assert run_cli("verify", "paraboloid", "--d", "1") == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert [r["checks"] for r in payload["suites"]] == [PARABOLOID_AT_D1]
    assert captured.err.startswith("data error: verify paraboloid:")


def _noisy_wavelet_file(tmp_path):
    """A complex wavelet on (3,2) plus 1e-4 noise: every line is active at
    the default tolerance, only the wavelet's line at tolerance 0.01."""
    amb = Ambient(3, 2)
    rng = rng_for(805, "noisy")
    vals = [
        (1.0, -2.0, 0.5)[x[0]] + complex(rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4))
        for x in amb.points()
    ]
    fn = tmp_path / "noisy.json"
    fileio.save_function(GridFunction(amb, "complex", vals), fn)
    return fn


def test_cli_tolerance_applies_to_one_request_only(tmp_path, capsys):
    fn = _noisy_wavelet_file(tmp_path)
    assert run_cli("bandwidth", "--input", str(fn)) == 0
    before = capsys.readouterr().out
    assert json.loads(before)["cbw"] == 4
    assert run_cli("bandwidth", "--input", str(fn), "--tolerance", "0.01") == 0
    assert json.loads(capsys.readouterr().out)["cbw"] == 1
    assert run_cli("bandwidth", "--input", str(fn)) == 0
    assert capsys.readouterr().out == before


def _fresh_process(*argv):
    """(exit code, stdout, stderr) of one request in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "charkit.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result.returncode, result.stdout, result.stderr


def test_cli_parser_carries_no_state_between_requests(tmp_path, capsys):
    noisy = str(_noisy_wavelet_file(tmp_path))
    fn = tmp_path / "fn.json"
    fileio.save_function(staircase_function(3), fn)
    fn = str(fn)
    pairs = [
        (("bandwidth", "--input", noisy, "--tolerance", "0.01"), ("bandwidth", "--input", noisy)),
        (("bandwidth", "--input", fn, "--format", "table"), ("bandwidth", "--input", fn)),
        (
            ("transform", "--input", fn, "--output", str(tmp_path / "out.json")),
            ("transform", "--input", fn),
        ),
        (("bandwidth", "--input", fn, "--format", "xml"), ("bandwidth", "--input", fn)),
    ]
    for first, second in pairs:
        run_cli(*first)
        capsys.readouterr()
        code = run_cli(*second)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(*second), first


def test_cli_builds_its_parser_at_most_once(tmp_path, monkeypatch, capsys):
    fn = tmp_path / "fn.json"
    fileio.save_function(staircase_function(3), fn)
    trees = []
    add_subparsers = cli._Parser.add_subparsers

    def counting(self, **kwargs):
        trees.append(self)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_subparsers", counting)
    for i in range(20):
        argv = ("bandwidth", "--input", str(fn)) if i % 2 else ("bandwidth",)
        assert run_cli(*argv) == (0 if i % 2 else 1)
    capsys.readouterr()
    assert len(trees) <= 1


@pytest.mark.parametrize("value", ["-1", "nan", "0", "abc", "inf"])
def test_cli_rejects_bad_tolerance(tmp_path, capsys, value):
    fn = _noisy_wavelet_file(tmp_path)
    capsys.readouterr()
    assert run_cli("bandwidth", "--input", str(fn), "--tolerance", value) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "option,value",
    [("--p", "0"), ("--d", "0"), ("--l", "0"), ("--suite-size", "0"),
     ("--suite-size", "-3"), ("--p", "-5"), ("--d", "two")],
)
def test_cli_verify_rejects_non_positive_grid_and_size_options(capsys, option, value):
    assert run_cli("verify", "galois", option, value) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and "positive integer" in captured.err
    assert "Traceback" not in captured.err


def test_ring_function_built_in_code_equals_its_file(tmp_path):
    amb = Ambient(3, 2, 2)
    f = random_rational_function(amb, rng_for(806, "z9"))
    path = tmp_path / "z9.json"
    fileio.save_function(f, path)
    g = fileio.load_function(path)
    assert g.ambient == amb and g == f
    assert (g - f).is_zero()
    h = fileio.function_from_payload(
        {"p": 3, "d": 2, "kind": "rational", "values": ["1"] * 9, "modulus_exponent": 1}
    )
    assert h == GridFunction.constant(Ambient(3, 2), Fraction(1))


@pytest.mark.parametrize("p,d", [(2, 5), (3, 3)])
def test_cli_eigen_cyclotomic_at_odd_dimension(tmp_path, capsys, p, d):
    fn = tmp_path / "cyc.json"
    fileio.save_function(random_cyclotomic_function(Ambient(p, d), rng_for(807, "eig")), fn)
    assert run_cli("eigen", "--input", str(fn)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expansion"]["reconstruction"] in ("exact", "close")


@pytest.mark.parametrize("big", [8388609.0, 1e8])
def test_cli_eigen_tolerance_is_relative_to_the_largest_value(tmp_path, capsys, big):
    # Against the absolute tolerance 1e-9 the rounding in this expansion
    # was reported as a failed reconstruction (exit 3).
    values = [
        [0.9331857023435548, -0.8194478953311046],
        [0.12943767486794577, 0.5244882644387632],
        [0, big],
        [0.877857771829814, -0.45350107315318744],
    ]
    fn = tmp_path / "big.json"
    fn.write_text(json.dumps({"p": 2, "d": 2, "kind": "complex", "values": values}))
    assert run_cli("eigen", "--input", str(fn)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expansion"]["reconstruction"] == "close"


def test_cli_eigen_refuses_a_rational_beyond_the_float_range_at_odd_dimension(tmp_path, capsys):
    # At odd d the expansion is floating, and 10**400 has no complex value.
    fn = tmp_path / "huge.json"
    fn.write_text(json.dumps({"p": 3, "d": 3, "kind": "rational", "values": [str(10**400)] + ["0"] * 26}))
    assert run_cli("eigen", "--input", str(fn)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "data error: complex values must be finite\n")


@pytest.mark.parametrize("grid", [{"p": 2**61 - 1, "d": 2}, {"p": 2, "d": 10**9}], ids=str)
def test_cli_refuses_a_huge_grid_at_once(tmp_path, capsys, grid):
    # Neither the primality test of p nor the power p**d may run first.
    fn = tmp_path / "huge.json"
    fn.write_text(json.dumps({**grid, "kind": "rational", "values": []}))
    start = time.perf_counter()
    assert run_cli("bandwidth", "--input", str(fn)) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the enumeration limit" in capsys.readouterr().err


@pytest.mark.parametrize("p,d", [(2, 5), (3, 3), (5, 2)])
def test_cli_tomography_round_trip_of_cyclotomic_function(tmp_path, capsys, p, d):
    f = random_cyclotomic_function(Ambient(p, d), rng_for(808, f"tomo{p}{d}"))
    fn, sino, back = tmp_path / "f.json", tmp_path / "sino.json", tmp_path / "back.json"
    fileio.save_function(f, fn)
    assert run_cli("tomography", "project", "--input", str(fn), "--output", str(sino)) == 0
    assert run_cli("tomography", "reconstruct", "--input", str(sino), "--output", str(back)) == 0
    assert fileio.load_function(back) == f


def test_sinogram_mass_shapes():
    z = Cyclotomic.zeta(3)
    payload = {
        "p": 3,
        "d": 1,
        "masses": [{"s": [1], "m": ["1/2", fileio.scalar_to_payload(z), "0"]}],
    }
    table = fileio.sinogram_from_payload(payload)
    assert table.rows[0][1] == (Fraction(1, 2), z, Fraction(0))
    for bad in (
        {"p": 3, "d": 1, "masses": [7]},
        {"p": 3, "d": 1, "masses": ["s"]},
        {"p": 3, "d": 1, "masses": 7},
        {"p": 3, "d": 1, "masses": [{"s": [1], "m": 7}]},
        {"p": 3, "d": 1, "masses": [{"s": [1], "m": ["1", 2, "0"]}]},
        {"p": 3, "d": 1, "masses": [{"s": [1], "m": ["1", [{}, 0], "0"]}]},
        {"p": 3, "d": 1, "masses": [{"s": [1], "m": ["1", {"p": 5, "coeffs": ["1"] * 4}, "0"]}]},
        {"p": 3, "d": 1, "masses": [{"s": [1], "m": [[1, 0], fileio.scalar_to_payload(z), "0"]}]},
    ):
        with pytest.raises(DataFormatError):
            fileio.sinogram_from_payload(bad)


@pytest.mark.parametrize(
    "value,reason",
    [
        ({"p": 3, "coeffs": 7}, "coeffs must be a list"),
        ({"p": 3, "coeffs": "12"}, "coeffs must be a list"),
        ({"p": 3.0, "coeffs": ["1", "2"]}, "p and ell must be integers"),
        ({"p": 3, "ell": "1", "coeffs": ["1", "2"]}, "p and ell must be integers"),
        ({"p": True, "coeffs": ["1", "2"]}, "p and ell must be integers"),
    ],
    ids=["coeffs-int", "coeffs-string", "p-float", "ell-string", "p-bool"],
)
@pytest.mark.parametrize("file_kind", ["function", "sinogram"])
def test_cli_rejects_a_malformed_cyclotomic_value(tmp_path, capsys, value, reason, file_kind):
    good = {"p": 3, "coeffs": ["1", "2"]}
    if file_kind == "function":
        payload = {"p": 3, "d": 1, "kind": "cyclotomic", "values": [good, value, good]}
        argv = ("transform",)
    else:
        payload = {"p": 3, "d": 1, "masses": [{"s": [1], "m": [good, value, good]}]}
        argv = ("tomography", "reconstruct")
    fn = tmp_path / "input.json"
    fn.write_text(json.dumps(payload))
    assert run_cli(*argv, "--input", str(fn)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: bad cyclotomic value") and reason in captured.err


def test_cli_reconstruct_rejects_non_object_mass_rows(tmp_path, capsys):
    fn = tmp_path / "sino.json"
    fn.write_text(json.dumps({"p": 3, "d": 1, "masses": [1, 2]}))
    assert run_cli("tomography", "reconstruct", "--input", str(fn)) == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_cli_zpl_rejects_complex_input(tmp_path, capsys, monkeypatch):
    fn = tmp_path / "cz4.json"
    fileio.save_function(random_complex_function(Ambient(2, 2, 2), rng_for(809, "cz4")), fn)
    capsys.readouterr()
    calls = _count_transforms(monkeypatch)
    assert run_cli("zpl", "--input", str(fn)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("data error:")
    assert calls == {"forward": 0, "inverse": 0}


def _count_transforms(monkeypatch) -> dict:
    """Count forward and inverse calls made through any charkit module."""
    from charkit import fourier

    originals = {"forward": fourier.forward, "inverse": fourier.inverse}
    calls = dict.fromkeys(originals, 0)

    def counting(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "charkit"]
    for module in modules:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name))
    return calls


def test_field_analyses_reject_ring_grids_before_any_transform(monkeypatch):
    amb = Ambient(2, 2, 2)
    f = random_rational_function(amb, rng_for(810, "z4"))
    calls = _count_transforms(monkeypatch)
    for call in (
        lambda: bandwidth(f),
        lambda: decompose(f),
        lambda: eigen_expand(f),
        lambda: self_dual_classify(amb, [(0, 0), (0, 2)]),
    ):
        with pytest.raises(ValueError, match="Z_p\\*\\*d only"):
            call()
    assert calls == {"forward": 0, "inverse": 0}


def test_cli_zpl_runs_one_forward_and_no_inverse(monkeypatch, capsys):
    ring = GOLDEN / "ring"
    inputs = sorted(p for p in ring.glob("z9_2_*.json") if not p.name.endswith(".out.json"))
    assert [p.stem for p in inputs] == ["z9_2_hyperplane", "z9_2_random", "z9_2_sparse"]
    for path in inputs:
        calls = _count_transforms(monkeypatch)
        assert run_cli("zpl", "--input", str(path)) == 0
        capsys.readouterr()
        assert calls == {"forward": 1, "inverse": 0}, path.stem
        monkeypatch.undo()


def test_cli_reconstruct_runs_no_forward_and_no_inverse(monkeypatch, capsys, tmp_path):
    tomography = GOLDEN / "tomography"
    complex_sinogram = tmp_path / "complex_3_3.json"
    f = random_complex_function(Ambient(3, 3), rng_for(811, "reconstruct"))
    fileio.save_sinogram(mass_table(f), complex_sinogram)
    for path in (
        tomography / "rational_5_3.json",
        tomography / "cyclotomic_5_2.json",
        tomography / "rational_as_cyclotomic_3_3.json",
        complex_sinogram,
    ):
        calls = _count_transforms(monkeypatch)
        assert run_cli("tomography", "reconstruct", "--input", str(path)) == 0
        capsys.readouterr()
        assert calls == {"forward": 0, "inverse": 0}, path.stem
        monkeypatch.undo()


def test_cli_verify_round_trips_use_only_the_requested_grid(monkeypatch, capsys):
    from charkit import verify

    built = []

    def recording(p, d, ell=1):
        built.append((p, d, ell))
        return Ambient(p, d, ell)

    monkeypatch.setattr(verify, "Ambient", recording)
    names = {}
    for suite in ("equidist", "tomography"):
        argv = ("verify", suite, "--p", "7", "--d", "2", "--suite-size", "3")
        assert run_cli(*argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]
        names[suite] = payload["suites"][0]["checks"][0]["name"]
    assert len(built) == 6 and set(built) == {(7, 2, 1)}
    assert names == {
        "equidist": "biconditional held on 3 pairs at (7,2)",
        "tomography": "exact round trip on 3 functions at (7,2)",
    }
    assert run_cli("verify", "equidist", "--p", "7", "--suite-size", "4") == 0
    check = json.loads(capsys.readouterr().out)["suites"][0]["checks"][0]
    assert check["name"] == "biconditional held on 4 pairs at (7,1), (7,2), (7,3)"
    built.clear()
    assert run_cli("verify", "zpl", "--p", "3", "--d", "2", "--l", "2", "--suite-size", "2") == 0
    checks = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
    assert built == [(3, 2, 2)]
    assert [c["name"] for c in checks] == [
        "unit count mod 9 is p**l - p**(l-1) at (3,2,2)",
        "hyperplane sizes match for all 80 nonzero directions at (3,2,2)",
        "line cardinality p**(l - valuation) for every generator at (3,2,2)",
        "multiscale decomposition round-trips 2 random functions at (3,2,2)",
    ]
    assert run_cli("verify", "zpl", "--l", "3", "--suite-size", "1") == 0
    checks = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
    assert all(c["name"].endswith(" at (2,2,3)") for c in checks)


# (suite, the library call it makes once per work item, the check that
# item 2 feeds, where item 2 is)
_ITEM_CALLS = (
    ("tomography", "reconstruct_from_masses", "exact round trip on 6 functions",
     "(2,3), seed 42/tomography/2"),
    ("equidist", "equidistribution_check", "biconditional held on 6 pairs",
     "(2,3), seed 42/equidist/2"),
    ("paraboloid", "check_paraboloid_theorem",
     "6 constructed functions at (5,3): every slice difference good",
     "(5,3), seed 42/paraboloid/2"),
    ("zpl", "multiscale_decompose", "multiscale decomposition round-trips 6 random functions",
     "(2,2,2), seed 42/zpl/2"),
    ("dichotomy", "classify_small_cbw_set", "exhaustive at (2,2)", "(2,2), E=((0, 1),)"),
)


@pytest.mark.parametrize(
    "suite,call,affected,where", _ITEM_CALLS, ids=[c[0] for c in _ITEM_CALLS]
)
def test_cli_verify_a_raising_item_fails_alone(
    monkeypatch, capsys, suite, call, affected, where
):
    from charkit import verify

    argv = ("verify", suite, "--seed", "42", "--suite-size", "6")
    assert run_cli(*argv) == 0
    clean = json.loads(capsys.readouterr().out)["suites"][0]
    real = getattr(verify, call)
    calls = []

    def planted(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:  # the call of item 2
            raise TheoremViolation("planted")
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, call, planted)
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)["suites"][0]
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in clean["checks"]]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [affected]
    assert report["counterexamples"] == [f"item 2 at {where}: planted"]
    failing = next(c for c in report["checks"] if not c["passed"])
    assert failing["detail"] == f"item 2 at {where}: planted"


def test_cli_verify_a_hypothesis_not_met_fails_like_a_violation(monkeypatch, capsys):
    """A HypothesisNotMet inside a suite means a constructed input missed the
    hypothesis it was built to meet: in a work item or outside one it fails a
    check with a counterexample, the other suites still run, the full report
    prints, and verify exits 3 with nothing on stderr."""
    from charkit import verify

    def planted_suite(*args, **kwargs):
        raise HypothesisNotMet("planted")

    real = verify.equidistribution_check
    calls = []

    def planted_item(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:  # the call of item 1
            raise HypothesisNotMet("planted")
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "sphere_equidistribution_check", planted_suite)
    monkeypatch.setattr(verify, "equidistribution_check", planted_item)
    assert run_cli("verify", "all", "--seed", "42", "--suite-size", "2") == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    suites = {r["suite"]: r for r in json.loads(captured.out)["suites"]}
    assert tuple(suites) == verify.SUITE_ORDER
    failing = {
        name: [c for c in r["checks"] if not c["passed"]]
        for name, r in suites.items()
        if not r["passed"]
    }
    assert failing == {
        "equidist": [{"name": "biconditional held on 2 pairs", "passed": False,
                      "detail": "item 1 at (2,2), seed 42/equidist/1: planted"}],
        "spheres": [{"name": "raised HypothesisNotMet", "passed": False, "detail": "planted"}],
    }
    assert suites["equidist"]["counterexamples"] == ["item 1 at (2,2), seed 42/equidist/1: planted"]
    assert suites["spheres"]["counterexamples"] == ["planted"]


_GRID_OPTIONS = {"--p": ("3", 0), "--d": ("1", 1), "--l": ("2", 2)}


@pytest.mark.parametrize("option", sorted(_GRID_OPTIONS))
@pytest.mark.parametrize("suite", ["galois", "wavelet", "tomography", "equidist",
                                   "uncertainty", "dichotomy", "paraboloid", "spheres",
                                   "selfdual", "eigen", "zpl"])
def test_cli_verify_runs_exactly_the_requested_coordinate_or_refuses(
    monkeypatch, capsys, suite, option
):
    """Each grid a suite builds or names carries the requested coordinate, or
    the suite is refused: exit 2 and one failing check giving the reason."""
    from charkit import verify

    value, axis = _GRID_OPTIONS[option]
    built = []

    def recording(p, d, ell=1):
        built.append((p, d, ell))
        return Ambient(p, d, ell)

    monkeypatch.setattr(verify, "Ambient", recording)
    code = run_cli("verify", suite, option, value, "--suite-size", "1")
    [report] = json.loads(capsys.readouterr().out)["suites"]
    if code == 2:
        [check] = report["checks"]
        assert check["name"].startswith("raised ") and not check["passed"]
        assert check["detail"]
        return
    assert code == 0 and report["passed"]
    assert all(grid[axis] == int(value) for grid in built), built
    for check in report["checks"]:
        named = re.findall(r"\((\d+),(\d+)(?:,(\d+))?\)", check["name"].rsplit(" at ", 1)[-1])
        assert named, check["name"]
        assert all(int(grid[axis] or 1) == int(value) for grid in named), check["name"]


def test_cli_verify_zpl_refuses_a_quadratic_scan_before_it_starts(capsys):
    # (13,2,2) has 28,561 points: the direction scan would visit 8.2e8 of
    # them, about four minutes, before the suite's first check
    start = time.perf_counter()
    assert run_cli("verify", "zpl", "--p", "13", "--suite-size", "1") == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    reason = "28560 directions times 28561 points of (13,2,2) exceed the scan limit 8388608"
    assert captured.err.splitlines() == [f"data error: verify zpl: {reason}"]
    [report] = json.loads(captured.out)["suites"]
    assert report["checks"] == [
        {"name": "raised CapacityError", "passed": False, "detail": reason}
    ]


def test_cli_verify_refusals_of_each_grid_option(capsys):
    expected = {
        "--p": {"uncertainty", "dichotomy", "selfdual"},  # 2**27 subsets of (3,3)
        "--d": {"wavelet", "dichotomy", "paraboloid", "spheres"},
        "--l": {"wavelet", "tomography", "equidist", "uncertainty", "dichotomy",
                "paraboloid", "spheres", "selfdual", "eigen"},
    }
    for option, (value, _) in _GRID_OPTIONS.items():
        assert run_cli("verify", "all", option, value, "--suite-size", "1") == 2
        captured = capsys.readouterr()
        suites = json.loads(captured.out)["suites"]
        assert {r["suite"] for r in suites if not r["passed"]} == expected[option], option
        assert len(captured.err.splitlines()) == len(expected[option])


@pytest.mark.parametrize("p,d,ell", [(3, 2, 2), (2, 3, 2)])
def test_cli_verify_galois_runs_on_ring_grids(monkeypatch, capsys, p, d, ell):
    from charkit.fourier import GridFunction

    argv = ("verify", "galois", "--p", str(p), "--d", str(d), "--l", str(ell))
    assert run_cli(*argv, "--suite-size", "2") == 0
    [check] = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
    assert check == {"name": f"equivariance on 2 functions at ({p},{d},{ell})",
                     "passed": True, "detail": "exact"}
    # every unit mod p**l is tested: an action that ignores the units above
    # p (at (2,3,2) every unit but 1) is caught
    galois = GridFunction.galois
    monkeypatch.setattr(GridFunction, "galois",
                        lambda self, r: self if r > p else galois(self, r))
    assert run_cli(*argv, "--suite-size", "2") == 3
    [check] = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
    assert not check["passed"] and check["detail"].endswith(f", r={p + 1}")


def test_cli_verify_spheres_classifies_the_isotropic_lines_at_each_requested_p(capsys):
    # 13 = 1 mod 4: i = 5 and the least non-residue is 2
    assert run_cli("verify", "spheres", "--p", "13") == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["suites"][0]["checks"]]
    assert names == [
        "p=13, d=2: nonzero-radius spheres equinumerous at (13,2)",
        "p=13: equidistributed on spheres about 5 random centers at (13,2)",
        "p=13: two parallel isotropic lines classify as Lplus_union at (13,2)",
        "p=13: a line parallel to (1,-i) classifies as Lminus_union at (13,2)",
    ]
    assert run_cli("verify", "spheres", "--p", "7") == 0  # 7 = 3 mod 4: no isotropic line
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["suites"][0]["checks"]]
    assert not any("isotropic" in name or "(1,-i)" in name for name in names)


def test_cli_verify_dichotomy_refuses_dimension_one(capsys):
    assert run_cli("verify", "dichotomy", "--p", "2", "--d", "1") == 2
    captured = capsys.readouterr()
    assert captured.err == "data error: verify dichotomy: the dichotomy requires dimension >= 2\n"
    [check] = json.loads(captured.out)["suites"][0]["checks"]
    assert check["name"] == "raised ValueError"


def test_cli_transform_inverse_and_oracle_are_exclusive(capsys):
    argv = ("transform", "--input", str(GOLDEN / "exact" / "rational_7_3.json"))
    assert run_cli(*argv, "--inverse", "--oracle") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and "not allowed with" in captured.err


def test_cli_verify_selfdual_expects_the_lagrangian_subspaces_at_even_d(capsys):
    # (2,4) holds 3 Lagrangian subspaces, each with eigenvalue 2**-2; about 10 s.
    assert run_cli("verify", "selfdual", "--p", "2", "--d", "4") == 0
    [check] = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
    assert check["passed"]
    assert check["name"] == "exhaustive over all 65536 subsets at (2,4)"
    assert check["detail"].count("('lagrangian', Fraction(1, 4))") == 3


@pytest.mark.parametrize(
    "suite,classifier",
    [
        ("dichotomy", "classify_small_cbw_set"),
        ("uncertainty", "uncertainty_check"),
        ("selfdual", "self_dual_classify"),
    ],
)
def test_cli_verify_refuses_a_grid_with_too_many_subsets(monkeypatch, capsys, suite, classifier):
    from charkit import verify

    calls = []

    def classify(*args):
        calls.append(args)
        raise TheoremViolation("the classifier ran")

    monkeypatch.setattr(verify, classifier, classify)
    assert run_cli("verify", suite, "--p", "3", "--d", "3") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and "2**27 subsets" in captured.err
    assert "Traceback" not in captured.err
    assert calls == []


def _count_calls(monkeypatch):
    """Count calls of ``fourier._decode`` (at every charkit binding of it)
    and of ``Cyclotomic.galois``; returns the live counter."""
    from charkit import fourier

    calls = {"decode": 0, "galois": 0}
    decode, galois = fourier._decode, Cyclotomic.galois

    def counting_decode(*args, **kwargs):
        calls["decode"] += 1
        return decode(*args, **kwargs)

    def counting_galois(self, r):
        calls["galois"] += 1
        return galois(self, r)

    for name, module in list(sys.modules.items()):
        if name.startswith("charkit") and getattr(module, "_decode", None) is decode:
            monkeypatch.setattr(module, "_decode", counting_decode)
    monkeypatch.setattr(Cyclotomic, "galois", counting_galois)
    return calls


@pytest.mark.parametrize("source", ["rational_7_3", "cyclotomic_7_3", "rational_3_5", "cyclotomic_3_5"])
def test_cli_bandwidth_reads_the_lattice_rows_and_decodes_nothing(monkeypatch, capsys, source):
    calls = _count_calls(monkeypatch)
    assert run_cli("bandwidth", "--input", str(GOLDEN / "exact" / f"{source}.json")) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "exact" / f"{source}.bandwidth.out.json").read_text()
    assert calls == {"decode": 0, "galois": 0}


def test_cli_verify_galois_runs_on_the_lattice_rows(monkeypatch, capsys):
    calls = _count_calls(monkeypatch)
    assert run_cli("verify", "galois", "--suite-size", "3") == 0
    capsys.readouterr()
    assert calls == {"decode": 0, "galois": 0}


@pytest.mark.parametrize("suite", ["paraboloid", "spheres"])
def test_cli_verify_builds_equivariant_spectra_on_the_lattice_rows(monkeypatch, capsys, suite):
    # these suites build their inputs with inverse_phi
    calls = _count_calls(monkeypatch)
    assert run_cli("verify", suite, "--suite-size", "3") == 0
    capsys.readouterr()
    assert calls["galois"] == 0


def test_cli_transform_decodes_nothing(monkeypatch, capsys):
    """The file is read into rows and the spectrum written from its rows."""
    calls = _count_calls(monkeypatch)
    sources = ["rational_7_3", "cyclotomic_7_3", "rational_3_5", "cyclotomic_3_5"]
    for source in sources:
        assert run_cli("transform", "--input", str(GOLDEN / "exact" / f"{source}.json")) == 0
        assert run_cli("transform", "--inverse", "--input", str(GOLDEN / "exact" / f"{source}.transform.out.json")) == 0
    assert calls["decode"] == 0
    capsys.readouterr()


def test_cli_verify_galois_names_the_first_point_that_breaks_equivariance(monkeypatch, capsys):
    from charkit import verify

    passes = verify._exact_transform  # the spectra that galois checks

    def broken(cols, ambient, *args):  # F(0,2) no longer equals sigma_2(F(0,1))
        cols = passes(cols, ambient, *args)
        cols[0][ambient.index_of((0, 2))] += 1
        return cols

    monkeypatch.setattr(verify, "_exact_transform", broken)
    assert run_cli("verify", "galois", "--suite-size", "1", "--p", "3", "--d", "2") == 3
    out = capsys.readouterr().out
    assert "m=(0, 1), r=2" in out
