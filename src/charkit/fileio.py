"""JSON interchange formats.

Function file:      {"p": 3, "d": 2, "kind": "rational", "values": ["0", "1/3", ...]}
                    values in lexicographic point order, length p**d; grids over
                    Z_{p**ell} add "modulus_exponent": ell.  p, d and ell are
                    JSON integers (not floats, not booleans).
Spectrum values:    {"p": 3, "coeffs": ["a/b", ...]} with exactly p-1 entries
                    (cyclotomic; conductor p**ell carries "ell" and phi entries);
                    "coeffs" is a list, "p" and "ell" are JSON integers.
Complex values:     [re, im], two JSON numbers (not booleans, not strings).
Sinogram:           {"p": ..., "d": ..., "masses": [{"s": [...], "m": [...]}, ...]};
                    each direction s is a list of d integers and each mass
                    is a rational string, a cyclotomic object of
                    conductor p, or a complex [re, im] pair.
Decomposition:      {"p", "d", "form", "constant", "parts": [{"s", "coeffs"}]}.

A rational literal ("a/b" above, every rational value, coefficient and mass)
is a JSON string of the form [-+]?digits or [-+]?digits/digits, with ASCII
digits and a nonzero denominator: "3", "-7/2", "+04/6".  JSON numbers,
booleans, null, decimals ("1.5"), exponents ("1e3"), spaces (" 3") and
non-ASCII digits are data errors.

Writers emit canonical bytes (sorted keys, two-space indent, trailing
newline) so that identical inputs produce identical files.

Exact function files (rational and cyclotomic) are read into lattice rows
and written from them, with no value built on the way.
``function_from_payload`` checks each literal once, reads it once into a
reduced ratio and scales the rows once by the lcm of the denominators;
``function_dumps`` writes each coefficient c of the rows over den as the
literal c/den reduced by one gcd, one per distinct c, in the shape of
``canonical_dumps(function_to_payload(f))``.  Other paths stay per value:
complex function files, ``function_to_payload`` (the ``--format table``
view), and sinogram and decomposition payloads.  An integer whose decimal
text is over the interpreter's limit (``sys.get_int_max_str_digits``) is a
bad literal when read and a ``CapacityError`` when written.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import CapacityError, DataFormatError
from .fourier import COMPLEX, CYCLOTOMIC, RATIONAL, GridFunction, _from_lattice, _lattice_of
from .geometry import Ambient, enumerate_lines, grid_point, line_through
from .scalars import Cyclotomic
from .wavelets import Decomposition, MassTable


def format_rational(value) -> str:
    if type(value) is not int and type(value) is not Fraction:
        value = Fraction(value)
    num, den = value.numerator, value.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise _text_limit_error(num, den) from None


def _text_limit_error(*ints) -> CapacityError:
    """The error for integers one of which has more decimal digits than the
    interpreter writes as text (``sys.get_int_max_str_digits``)."""
    n = max(map(abs, ints))
    digits = max(1, int((n.bit_length() - 1) * math.log10(2)))
    while 10**digits <= n:
        digits += 1
    return CapacityError(
        f"cannot write an integer of {digits} digits: the limit for integer text "
        f"is {sys.get_int_max_str_digits()} digits"
    )


def _literal_ratio(text) -> tuple:
    """(num, den), reduced with den > 0, of a rational literal; the one
    reader of the literal syntax."""
    if type(text) is str and text.isascii():
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] in ("-", "+") else num
        try:
            if digits.isdigit():
                if not slash:
                    return int(num), 1
                if den.isdigit() and den.strip("0"):
                    num, den = int(num), int(den)
                    g = math.gcd(num, den)
                    return num // g, den // g
        except ValueError:  # over the interpreter's limit for integer text
            pass
    raise DataFormatError(f"bad rational literal {text!r}")


def parse_rational(text) -> Fraction:
    """A rational literal: a JSON string ``[-+]?digits`` or ``[-+]?digits/digits``
    of ASCII digits with a nonzero denominator; anything else is a DataFormatError."""
    return Fraction(*_literal_ratio(text))


def scalar_to_payload(value):
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, Cyclotomic):
        payload = {"p": value.p, "coeffs": [format_rational(c) for c in value.coeffs]}
        if value.ell != 1:
            payload["ell"] = value.ell
        return payload
    z = complex(value)
    return [z.real, z.imag]


def scalar_from_payload(payload, kind: str, p: int, ell: int = 1):
    if kind == RATIONAL:
        return parse_rational(payload)
    if kind == CYCLOTOMIC:
        if isinstance(payload, str):
            return Cyclotomic.from_rational(p, parse_rational(payload), ell)
        return Cyclotomic(p, _cyclotomic_coeffs(payload, p, ell, parse_rational), ell)
    if (
        not isinstance(payload, (list, tuple))
        or len(payload) != 2
        or any(type(part) not in (int, float) for part in payload)
    ):
        raise DataFormatError(f"bad complex value {payload!r}: need [re, im] JSON numbers")
    try:
        return complex(float(payload[0]), float(payload[1]))
    except OverflowError as exc:
        raise DataFormatError(f"bad complex value {payload!r}") from exc


def _cyclotomic_coeffs(payload, p: int, ell: int, parse) -> list:
    """``parse`` of each coefficient of a cyclotomic value object on the grid
    conductor p**ell, in order, after the object's checks: a "coeffs" list,
    integer "p" and "ell" (defaults p and 1) equal to the grid's, and then
    exactly phi coefficients."""
    if not isinstance(payload, dict) or not isinstance(payload.get("coeffs"), list):
        raise DataFormatError(f"bad cyclotomic value {payload!r}: coeffs must be a list")
    vp = payload.get("p", p)
    vell = payload.get("ell", 1)
    if type(vp) is not int or type(vell) is not int:
        raise DataFormatError(f"bad cyclotomic value {payload!r}: p and ell must be integers")
    if vp != p or vell != ell:
        raise DataFormatError(
            f"value conductor {vp}**{vell} does not match grid conductor {p}**{ell}"
        )
    coeffs = [parse(c) for c in payload["coeffs"]]
    phi = p ** (ell - 1) * (p - 1)
    if len(coeffs) != phi:
        raise ValueError(
            f"need {phi} coefficients for conductor {p}**{ell}, got {len(coeffs)}"
        )
    return coeffs


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` for a tree of dicts
    with string keys, lists, tuples, strings, ints, floats, bools and None."""
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, newline: str, out: list) -> None:
    """Append the JSON text of obj, whose lines are indented by ``newline``."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if all(isinstance(v, str) for v in obj):
            out.append(f"[{inner}{(',' + inner).join(map(_quote, obj))}{newline}]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, v in sorted(obj.items()):
            out.append(f"{sep}{_quote(key)}: ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _require_fields(payload: dict, fields, where: str) -> None:
    missing = [name for name in fields if name not in payload]
    if missing:
        raise DataFormatError(f"{where} is missing field(s): {', '.join(missing)}")


def function_to_payload(f: GridFunction) -> dict:
    payload = {
        "p": f.ambient.p,
        "d": f.ambient.d,
        "kind": f.kind,
        "values": [scalar_to_payload(v) for v in f.values],
    }
    if f.ambient.ell != 1:
        payload["modulus_exponent"] = f.ambient.ell
    return payload


def function_dumps(f: GridFunction) -> str:
    """``canonical_dumps(function_to_payload(f))``, the text of f's function
    file.  An exact f is written from its lattice rows over den: coefficient
    c becomes the literal c/den reduced by one gcd, each distinct c once."""
    if f.kind == COMPLEX:
        return canonical_dumps(function_to_payload(f))
    den, rows = _lattice_of(f)
    ambient = f.ambient
    memo = {}

    def literal(c):
        text = memo.get(c)
        if text is None:
            g = math.gcd(c, den)
            try:
                text = memo[c] = f'"{c // g}"' if g == den else f'"{c // g}/{den // g}"'
            except ValueError:
                raise _text_limit_error(c // g, den // g) from None
        return text

    if f.kind == RATIONAL:
        values = [literal(c) for (c,) in rows]
    else:
        ell = f'      "ell": {ambient.ell},\n' if ambient.ell != 1 else ""
        tail = f'\n      ],\n{ell}      "p": {ambient.p}\n    }}'
        values = [
            '{\n      "coeffs": [\n        ' + ",\n        ".join(map(literal, row)) + tail
            for row in rows
        ]
    exponent = f'  "modulus_exponent": {ambient.ell},\n' if ambient.ell != 1 else ""
    return (
        f'{{\n  "d": {ambient.d},\n  "kind": "{f.kind}",\n{exponent}  "p": {ambient.p},\n'
        '  "values": [\n    ' + ",\n    ".join(values) + "\n  ]\n}\n"
    )


def function_from_payload(payload) -> GridFunction:
    """The function of a function file's parsed JSON.  Exact values go
    straight onto lattice rows: each distinct literal is checked and read
    into a reduced ratio once, and the rows are scaled once by the lcm L of
    the denominators; complex values are read one by one."""
    if not isinstance(payload, dict):
        raise DataFormatError("function file must contain a JSON object")
    _require_fields(payload, ("p", "d", "kind", "values"), "function file")
    p, d, kind = payload["p"], payload["d"], payload["kind"]
    if kind not in (RATIONAL, CYCLOTOMIC, COMPLEX):
        raise DataFormatError(f"unknown kind {kind!r}")
    ell = payload.get("modulus_exponent", 1)
    ambient = Ambient(p, d, ell)
    values = payload["values"]
    if not isinstance(values, list) or len(values) != ambient.size:
        raise DataFormatError(
            f"values must be a list of length {ambient.size}, got {len(values) if isinstance(values, list) else type(values).__name__}"
        )
    if kind == COMPLEX:
        return GridFunction(ambient, kind, [scalar_from_payload(v, kind, p, ell) for v in values])
    memo = {"0": (0, 1)}  # literal -> (num, den)

    def literal(text):
        if type(text) is not str or text not in memo:
            memo[text] = _literal_ratio(text)
        return text

    if kind == RATIONAL:
        rows = [(literal(v),) for v in values]
    else:
        pad = ("0",) * (ambient.modulus - ambient.modulus // p - 1)
        rows = [
            (literal(v), *pad) if isinstance(v, str) else _cyclotomic_coeffs(v, p, ell, literal)
            for v in values
        ]
    L = math.lcm(*{den for _, den in memo.values()})
    ints = {text: num * (L // den) for text, (num, den) in memo.items()}
    rows = [tuple(map(ints.__getitem__, row)) for row in rows]
    return _from_lattice(ambient, rows, L, kind)


def save_function(f: GridFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(function_dumps(f))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc


def load_function(path) -> GridFunction:
    return function_from_payload(_read_json(path))


def sinogram_to_payload(table: MassTable) -> dict:
    return {
        "p": table.ambient.p,
        "d": table.ambient.d,
        "masses": [
            {"s": list(line.rep), "m": [scalar_to_payload(m) for m in ms]}
            for line, ms in table.rows
        ],
    }


def sinogram_from_payload(payload) -> MassTable:
    if not isinstance(payload, dict):
        raise DataFormatError("sinogram file must contain a JSON object")
    _require_fields(payload, ("p", "d", "masses"), "sinogram file")
    ambient = Ambient(payload["p"], payload["d"])
    p = ambient.p
    if not isinstance(payload["masses"], list):
        raise DataFormatError("sinogram masses must be a list of rows")
    rows: dict = {}
    for entry in payload["masses"]:
        if not isinstance(entry, dict):
            raise DataFormatError(f"sinogram row must be an object, got {entry!r}")
        _require_fields(entry, ("s", "m"), "sinogram row")
        s = entry["s"]
        if not isinstance(s, list) or len(s) != ambient.d or any(type(c) is not int for c in s):
            raise DataFormatError(
                f"sinogram direction must be a list of {ambient.d} integers, got {s!r}"
            )
        s = grid_point(ambient, s)
        if not any(s):
            raise DataFormatError("sinogram direction must be nonzero")
        if not isinstance(entry["m"], list) or len(entry["m"]) != p:
            raise DataFormatError(f"direction {entry['s']} needs a list of {p} masses")
        ms = [_mass_from_payload(m, p) for m in entry["m"]]
        line = line_through(ambient, s)
        # Rebase the masses onto the canonical generator: x.s = t is the
        # same plane as x.rep = t/c where c is the first nonzero entry of s.
        first = next(c for c in s if c)
        rebased = [None] * p
        for t in range(p):
            rebased[t * pow(first, p - 2, p) % p] = ms[t]
        if line in rows:
            raise DataFormatError(f"duplicate sinogram direction through {line.rep}")
        rows[line] = tuple(rebased)
    ordered = tuple(
        (line, rows[line]) for line in enumerate_lines(ambient) if line in rows
    )
    kinds = {type(m) for _, ms in ordered for m in ms}
    if complex in kinds and Cyclotomic in kinds:
        raise DataFormatError("a sinogram cannot mix complex and cyclotomic masses")
    return MassTable(ambient, ordered)


def _mass_from_payload(m, p: int):
    """A mass in any of the three scalar forms: a rational literal, a
    cyclotomic object of conductor p, or a complex [re, im] pair."""
    if isinstance(m, dict):
        return scalar_from_payload(m, CYCLOTOMIC, p)
    if isinstance(m, list):
        return scalar_from_payload(m, COMPLEX, p)
    return parse_rational(m)


def save_sinogram(table: MassTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(sinogram_to_payload(table)))


def load_sinogram(path) -> MassTable:
    return sinogram_from_payload(_read_json(path))


def decomposition_to_payload(dec: Decomposition) -> dict:
    return {
        "p": dec.ambient.p,
        "d": dec.ambient.d,
        "form": dec.form,
        "constant": scalar_to_payload(dec.constant),
        "parts": [
            {
                "s": list(w.direction.rep),
                "coeffs": [scalar_to_payload(c) for c in w.coeffs],
            }
            for w in dec.parts
        ],
    }


def bandwidth_report_payload(report) -> dict:
    return {
        "cbw": report.cbw,
        "bw": format_rational(report.bw),
        "bwd": report.bwd,
        "lines": [list(line.rep) for line in report.lines],
        "approximate": report.approximate,
    }
