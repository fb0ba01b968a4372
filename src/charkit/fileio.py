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
                    conductor p, or a complex [re, im] pair.  Masses are
                    defined on Z_p**d: a "modulus_exponent" above 1 is a
                    ring grid, which the reader rejects.
Decomposition:      {"p", "d", "form", "constant", "parts": [{"s", "coeffs"}]}.

A rational literal ("a/b" above, every rational value, coefficient and mass)
is a JSON string of the form [-+]?digits or [-+]?digits/digits, with ASCII
digits and a nonzero denominator: "3", "-7/2", "+04/6".  JSON numbers,
booleans, null, decimals ("1.5"), exponents ("1e3"), spaces (" 3") and
non-ASCII digits are data errors.

Writers emit canonical bytes (sorted keys, two-space indent, trailing
newline) so that identical inputs produce identical files.

Files are read into lattice rows and written from them, with no value
built on the way: a function, a mass table, a wavelet's coefficients and a
decomposition's constant each hold one ``fourier.Values``, built from rows
by ``_from_lattice`` and read through ``_lattice_of``.  The readers
``function_from_payload`` and ``sinogram_from_payload`` check each distinct
literal once, read it once into a reduced ratio and scale the rows once by
the lcm of the denominators; the sinogram reader rebases each direction's
masses onto its canonical generator by one modular inverse.  The writers
``function_dumps``, ``sinogram_dumps`` and ``decomposition_dumps`` write
in the fixed shape of ``canonical_dumps`` of the payload, each value by one
helper, ``_value_texts``: the coefficient c of a row over den becomes the
literal c/den reduced by one gcd, once per distinct c, and complex values
their [re, im] pairs.  Complex values are read and written one by one.
``function_to_payload``, ``sinogram_to_payload`` and
``decomposition_to_payload`` remain the per-value view (``--format
table``) and the reference the writers are tested against.  An integer
whose decimal text is over the interpreter's limit
(``sys.get_int_max_str_digits``) is a bad literal when read and a
``CapacityError`` when written.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote

from .errors import CapacityError, DataFormatError
from .fourier import COMPLEX, CYCLOTOMIC, RATIONAL, GridFunction, Values, _from_lattice, _lattice_of
from .geometry import Ambient, enumerate_lines, grid_point, require_prime_grid
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
        types = set(map(type, obj))
        if types == {str}:
            out.append(_list_text(map(_quote, obj), newline))
            return
        if types <= {int, float}:  # not bools: type(True) is bool
            out.append(_list_text(map(_number_text, obj), newline))
            return
        inner = newline + "  "
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


def _list_text(texts, newline: str) -> str:
    """The JSON text of a list whose items have the JSON texts ``texts``,
    its lines indented by ``newline``, as ``canonical_dumps`` writes it."""
    inner = newline + "  "
    body = ("," + inner).join(texts)
    return f"[{inner}{body}{newline}]" if body else "[]"


# The line starts of a file's top-level items and of the items of a row of
# its top-level list (a sinogram row, a decomposition part).
_TOP, _ROW = "\n  ", "\n      "


def _number_text(x) -> str:
    return int.__repr__(x) if type(x) is int else _float_text(x)


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


def _value_texts(kind: str, den: int, ambient, newline: str):
    """texts(rows): the JSON texts of the values whose lattice rows over den
    are ``rows``, as ``canonical_dumps`` writes a value whose lines are
    indented by ``newline``.  Coefficient c becomes the rational literal
    c/den reduced by one gcd, each distinct c once over every call; a
    cyclotomic row becomes the object of its literals.  A complex row holds
    its value, written as its [re, im] pair."""
    inner = newline + "  "
    if kind == COMPLEX:
        return lambda rows: [
            f"[{inner}{_float_text(z.real)},{inner}{_float_text(z.imag)}{newline}]" for (z,) in rows
        ]
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

    if kind == RATIONAL:
        return lambda rows: [literal(c) for (c,) in rows]
    head, sep = f'{{{inner}"coeffs": [{inner}  ', f",{inner}  "
    ell = f'{inner}"ell": {ambient.ell},' if ambient.ell != 1 else ""
    tail = f'{inner}],{ell}{inner}"p": {ambient.p}{newline}}}'
    return lambda rows: [head + sep.join(map(literal, row)) + tail for row in rows]


def _lattice_texts(held, newline: str) -> list:
    """For each ``Values`` in ``held``, the JSON texts of its values by
    ``_value_texts`` from its lattice rows, one writer per kind and
    denominator."""
    writers, texts = {}, []
    for values in held:
        den, rows = _lattice_of(values)
        key = (values.kind, den)
        if key not in writers:
            writers[key] = _value_texts(values.kind, den, values.ambient, newline)
        texts.append(writers[key](rows))
    return texts


def function_dumps(f: GridFunction) -> str:
    """``canonical_dumps(function_to_payload(f))``, the text of f's function
    file, written from the lattice rows of an exact f and from the values
    of a complex one."""
    ambient = f.ambient
    den, rows = _lattice_of(f)
    values = _list_text(_value_texts(f.kind, den, ambient, "\n    ")(rows), _TOP)
    exponent = f'  "modulus_exponent": {ambient.ell},\n' if ambient.ell != 1 else ""
    return (
        f'{{\n  "d": {ambient.d},\n  "kind": "{f.kind}",\n{exponent}  "p": {ambient.p},\n'
        f'  "values": {values}\n}}\n'
    )


class _Literals(dict):
    """The rational literals of one file, each checked and read once:
    self[text] = (num, den), reduced."""

    def __init__(self):
        super().__init__({"0": (0, 1)})

    def read(self, text):
        """Read the literal ``text`` unless it was read before; return the
        text, the key of its value."""
        if type(text) is not str or text not in self:
            self[text] = _literal_ratio(text)
        return text

    def scale(self, rows) -> tuple:
        """(L, rows): rows of literals as int rows over the lcm L of the
        denominators of every literal read."""
        L = math.lcm(*{den for _, den in self.values()})
        ints = {text: num * (L // den) for text, (num, den) in self.items()}
        return L, [tuple(map(ints.__getitem__, row)) for row in rows]


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
    literals = _Literals()
    literal = literals.read
    if kind == RATIONAL:
        rows = [(literal(v),) for v in values]
    else:
        pad = ("0",) * (ambient.modulus - ambient.modulus // p - 1)
        rows = [
            (literal(v), *pad) if isinstance(v, str) else _cyclotomic_coeffs(v, p, ell, literal)
            for v in values
        ]
    L, rows = literals.scale(rows)
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
    """The mass table of a sinogram file's parsed JSON, read straight onto
    lattice rows the way ``function_from_payload`` reads values.  The
    masses of each direction are rebased onto its canonical generator by
    one modular inverse, and the table takes the kind they join to: a
    rational mass among cyclotomic ones gets zero coordinates above degree
    zero, one among complex ones its complex value.  Complex masses are
    read one by one, and their table holds them as values."""
    if not isinstance(payload, dict):
        raise DataFormatError("sinogram file must contain a JSON object")
    _require_fields(payload, ("p", "d", "masses"), "sinogram file")
    ambient = Ambient(payload["p"], payload["d"], payload.get("modulus_exponent", 1))
    require_prime_grid(ambient)
    p = ambient.p
    if not isinstance(payload["masses"], list):
        raise DataFormatError("sinogram masses must be a list of rows")
    literals, kinds = _Literals(), set()
    literal = literals.read

    def mass(m):
        """The row of a mass's literals, or its complex value."""
        if isinstance(m, dict):
            kinds.add(CYCLOTOMIC)
            return tuple(_cyclotomic_coeffs(m, p, 1, literal))
        if isinstance(m, list):
            kinds.add(COMPLEX)
            return scalar_from_payload(m, COMPLEX, p)
        return (literal(m),)

    rows: dict = {}
    for entry in payload["masses"]:
        if not isinstance(entry, dict):
            raise DataFormatError(f"sinogram row must be an object, got {entry!r}")
        _require_fields(entry, ("s", "m"), "sinogram row")
        s = entry["s"]
        if not isinstance(s, list) or len(s) != ambient.d or {*map(type, s)} != {int}:
            raise DataFormatError(
                f"sinogram direction must be a list of {ambient.d} integers, got {s!r}"
            )
        s = grid_point(ambient, s)
        if not any(s):
            raise DataFormatError("sinogram direction must be nonzero")
        if not isinstance(entry["m"], list) or len(entry["m"]) != p:
            raise DataFormatError(f"direction {entry['s']} needs a list of {p} masses")
        ms = [mass(m) for m in entry["m"]]
        # The canonical generator of the line through s is rep = s/c, c the
        # first nonzero entry of s, and x.s = t is the plane x.rep = t/c.
        inverse = pow(next(c for c in s if c), -1, p)
        rep = tuple([c * inverse % p for c in s])
        rebased = [None] * p
        for t, m in enumerate(ms):
            rebased[t * inverse % p] = m
        if rep in rows:
            raise DataFormatError(f"duplicate sinogram direction through {rep}")
        rows[rep] = rebased
    if COMPLEX in kinds and CYCLOTOMIC in kinds:
        raise DataFormatError("a sinogram cannot mix complex and cyclotomic masses")
    lines = [line for line in enumerate_lines(ambient) if line.rep in rows]
    cells = [m for line in lines for m in rows[line.rep]]
    if COMPLEX in kinds:
        masses = Values(ambient, COMPLEX, [
            m if type(m) is complex else _complex_mass(m[0], literals[m[0]]) for m in cells
        ])
    else:
        kind = CYCLOTOMIC if kinds else RATIONAL
        pad = ("0",) * (p - 2) if kinds else ()
        L, cells = literals.scale([m + pad if len(m) == 1 else m for m in cells])
        masses = Values._from_lattice(ambient, cells, L, kind)
    return MassTable(ambient, lines, masses)


def _complex_mass(text: str, ratio: tuple) -> complex:
    """The complex value of the rational literal ``text`` read as (num, den),
    the value ``complex(Fraction(num, den))``."""
    try:
        return complex(ratio[0] / ratio[1])
    except OverflowError:
        raise DataFormatError(f"rational mass {text!r} is too large for a complex value") from None


def sinogram_dumps(table: MassTable) -> str:
    """``canonical_dumps(sinogram_to_payload(table))``, the text of the
    table's sinogram file, written from its lattice rows."""
    ambient = table.ambient
    masses = iter(_lattice_texts([table._masses], _ROW + "  ")[0])
    rows = [
        f'{{{_ROW}"m": {_list_text(islice(masses, size), _ROW)},'
        f'{_ROW}"s": {_list_text(map(str, line.rep), _ROW)}\n    }}'
        for line, size in zip(table.directions(), table._sizes)
    ]
    return f'{{\n  "d": {ambient.d},\n  "masses": {_list_text(rows, _TOP)},\n  "p": {ambient.p}\n}}\n'


def save_sinogram(table: MassTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sinogram_dumps(table))


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


def decomposition_dumps(dec: Decomposition) -> str:
    """``canonical_dumps(decomposition_to_payload(dec))``, the text of the
    decomposition's file, written from the lattice rows of its constant
    and of its coefficients."""
    ambient = dec.ambient
    [[constant]] = _lattice_texts([dec._constant], _TOP)
    coeffs = _lattice_texts([w._coefficients for w in dec.parts], _ROW + "  ")
    parts = [
        f'{{{_ROW}"coeffs": {_list_text(texts, _ROW)},'
        f'{_ROW}"s": {_list_text(map(str, w.direction.rep), _ROW)}\n    }}'
        for w, texts in zip(dec.parts, coeffs)
    ]
    return (
        f'{{\n  "constant": {constant},\n  "d": {ambient.d},\n  "form": {_quote(dec.form)},\n'
        f'  "p": {ambient.p},\n  "parts": {_list_text(parts, _TOP)}\n}}\n'
    )


def bandwidth_report_payload(report) -> dict:
    return {
        "cbw": report.cbw,
        "bw": format_rational(report.bw),
        "bwd": report.bwd,
        "lines": [list(line.rep) for line in report.lines],
        "approximate": report.approximate,
    }
