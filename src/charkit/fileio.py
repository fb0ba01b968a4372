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
Bandwidth report:   {"approximate", "bw", "bwd", "cbw", "lines": [[...], ...]},
                    the active lines by their canonical generators.

A rational literal ("a/b" above, every rational value, coefficient and mass)
is a JSON string of the form [-+]?digits or [-+]?digits/digits, with ASCII
digits and a nonzero denominator: "3", "-7/2", "+04/6".  JSON numbers,
booleans, null, decimals ("1.5"), exponents ("1e3"), spaces (" 3") and
non-ASCII digits are data errors.

Writers emit canonical bytes (sorted keys, two-space indent, trailing
newline) so that identical inputs produce identical files.
``canonical_dumps``, the standard library's encoder with those settings,
writes the small payloads (verify reports, ``zpl``, ``eigen``,
``variety``, ``--oracle``) and is the reference for the writers below.

Files are read into lattice columns and written from them, with no value
built on the way: a function, a mass table's masses, a decomposition's
coefficients and its constant each hold one ``fourier.Values``, built from
columns by ``_from_lattice`` and read through ``_lattice_of``.  The readers
``function_from_payload`` and ``sinogram_from_payload`` check whole a list
of one kind, as charkit writes it: all rational literals, all cyclotomic
objects, or all [re, im] pairs of floats.  Each check is one pass over the
list (the types of its items, their lengths, the p and ell of every
cyclotomic object); each distinct literal is read once into a reduced
ratio, the columns are scaled once by the lcm of the denominators and complex
values are built in one pass.  The sinogram reader reads whole a file of
every canonical generator in canonical order, as charkit writes it, found
by one compare of the file's directions with ``geometry.line_coordinates``
after their int check, and takes its masses as they are.  Any other
sinogram, a list that mixes kinds or has an int part in a complex pair,
and any file where a check fails, is read by the per-value reader from the
start, which reads every shape of the format above, rebases each direction
onto its canonical generator, orders the rows by line and names the file's
first fault in file order, with the same text whichever check failed.
The writers ``function_dumps``, ``sinogram_dumps``,
``decomposition_dumps`` and ``bandwidth_report_dumps`` write in the fixed
shape of ``canonical_dumps`` of the payload, the values of each holder
by one call of ``_value_texts``: a coefficient c over den becomes the
literal c/den reduced by one gcd, once per distinct c, and finite complex
values their [re, im] pairs by ``float.__repr__``.  A
sinogram and a decomposition are line tables, and one writer,
``_line_rows``, writes the rows {key: [p texts], "s": rep} of either from
the texts of its whole table, joined a column at a time with no call per
row.  The directions "s" of those rows and the "lines" of
``bandwidth_report_dumps`` are read from ``_DIRECTION_TEXTS``: each
generator's coordinates joined as the file indents them, made on the
first write of that generator and looked up by its tuple.
``function_to_payload``, ``sinogram_to_payload``,
``decomposition_to_payload`` and ``bandwidth_report_payload`` remain the
per-value view (``--format table``) and the reference the writers are
tested against.  An integer whose decimal text is over the interpreter's
limit (``sys.get_int_max_str_digits``) is a bad literal when read and a
``CapacityError`` when written.  A file nested too deeply for the JSON
decoder is a data error.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from fractions import Fraction
from itertools import chain, filterfalse, islice, repeat
from operator import attrgetter

from .bandwidth import BandwidthReport
from .errors import CapacityError, DataFormatError
from .fourier import COMPLEX, CYCLOTOMIC, RATIONAL, GridFunction, Values, _from_lattice, _lattice_of
from .geometry import (
    Ambient,
    enumerate_lines,
    grid_point,
    line_coordinates,
    line_count,
    require_prime_grid,
)
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
    """The canonical text of a JSON payload: sorted keys, two-space indent
    and a trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_REAL, _IMAG = attrgetter("real"), attrgetter("imag")

# The line starts of a file's top-level items and of the items of a row of
# its top-level list (a sinogram row, a decomposition part).
_TOP, _ROW = "\n  ", "\n      "


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


def _value_texts(held: Values, newline: str) -> list:
    """The JSON texts of the values ``held``, written from their lattice
    columns as ``canonical_dumps`` writes a value whose lines are indented
    by ``newline``.  Coefficient c over the denominator den becomes the
    rational literal c/den reduced by one gcd, each distinct c once; a
    cyclotomic value, read across the columns, the object of its literals.
    Complex values are written as [re, im] pairs, by ``float.__repr__``
    when every value is finite."""
    inner = newline + "  "
    ambient, kind, (den, cols) = held.ambient, held.kind, _lattice_of(held)
    rows = list(zip(*cols)) if kind == CYCLOTOMIC else None
    coeffs = list(chain.from_iterable(rows)) if rows is not None else cols[0]
    if kind == COMPLEX:
        # NaN and the infinities are written as json.dumps writes them
        text = float.__repr__ if all(map(cmath.isfinite, coeffs)) else json.dumps
        parts = zip(map(text, map(_REAL, coeffs)), map(text, map(_IMAG, coeffs)))
        return [f"[{inner}{re},{inner}{im}{newline}]" for re, im in parts]
    texts = {}
    for c in filterfalse(texts.__contains__, coeffs):
        g = math.gcd(c, den)
        try:
            texts[c] = f'"{c // g}"' if g == den else f'"{c // g}/{den // g}"'
        except ValueError:
            raise _text_limit_error(c // g, den // g) from None
    literal = texts.__getitem__
    if kind == RATIONAL:
        return list(map(literal, coeffs))
    head, sep = f'{{{inner}"coeffs": [{inner}  ', f",{inner}  "
    ell = f'{inner}"ell": {ambient.ell},' if ambient.ell != 1 else ""
    tail = f'{inner}],{ell}{inner}"p": {ambient.p}{newline}}}'
    return [head + sep.join(map(literal, row)) + tail for row in rows]


# The text between two coordinates of a direction "s", and between two
# values of a row, in a row of a line table.
_ITEM = "," + _ROW + "  "

# The text of every generator written so far, its coordinates joined by the
# separator: separator -> {rep tuple: text}, filled on a miss and kept for
# the process, so it holds the lines of the grids written.
_DIRECTION_TEXTS: dict = {}


def _direction_texts(lines, sep: str) -> list:
    """The coordinates of the generator of each of ``lines``, joined by
    ``sep``, read from ``_DIRECTION_TEXTS``; only the texts it misses are
    made."""
    known = _DIRECTION_TEXTS.setdefault(sep, {})
    reps = list(map(attrgetter("rep"), lines))
    texts = list(map(known.get, reps))
    if None in texts:
        known.update((rep, sep.join(map(int.__repr__, rep))) for rep in reps if rep not in known)
        texts = list(map(known.__getitem__, reps))
    return texts


def _line_rows(key: str, lines, sizes, held: Values) -> str:
    """The JSON text of a line table's list of rows, {key: [its values],
    "s": rep} per line, as ``canonical_dumps`` writes it in a file's
    top-level object: line i holds the next sizes[i] of the values
    ``held``.  Every value text comes from one ``_value_texts`` call, and
    the rows are joined a whole column at a time, with no call per row."""
    inner = _ROW + "  "
    texts = iter(_value_texts(held, inner))
    bodies = map(_ITEM.join, map(islice, repeat(texts), sizes))
    values = [f"[{inner}{body}{_ROW}]" if body else "[]" for body in bodies]
    reps = _direction_texts(lines, _ITEM)
    # a row is {key: values, "s": [rep]}; the text between two rows closes one and opens the next
    head, tail = f'{{{_ROW}"{key}": ', f"{_ROW}]\n    }}"
    rows = f"{tail},{_TOP}  {head}".join(map(f',{_ROW}"s": [{inner}'.join, zip(values, reps)))
    return f"[{_TOP}  {head}{rows}{tail}{_TOP}]" if rows else "[]"


def function_dumps(f: GridFunction) -> str:
    """``canonical_dumps(function_to_payload(f))``, the text of f's function
    file, written from the lattice columns of an exact f and from the values
    of a complex one."""
    ambient = f.ambient
    values = ",\n    ".join(_value_texts(f, "\n    "))  # a grid has at least one point
    exponent = f'  "modulus_exponent": {ambient.ell},\n' if ambient.ell != 1 else ""
    return (
        f'{{\n  "d": {ambient.d},\n  "kind": "{f.kind}",\n{exponent}  "p": {ambient.p},\n'
        f'  "values": [\n    {values}\n  ]\n}}\n'
    )


class _Literals(dict):
    """The rational literals of one file, each checked and read once:
    self[text] = (num, den), reduced."""

    def __init__(self):
        super().__init__({"0": (0, 1)})

    def read(self, text):
        """Read the literal ``text`` unless it was read before; return the
        text, the key of its value.  The per-value reader, which names a
        file's first fault."""
        if type(text) is not str or text not in self:
            self[text] = _literal_ratio(text)
        return text

    def read_all(self, texts) -> bool:
        """Read every literal of the list ``texts`` not read before, each
        once, in file order; False, with none of them kept, when one of
        them is not a string or not a literal."""
        if not {*map(type, texts)} <= {str}:
            return False
        new = list(filterfalse(self.__contains__, dict.fromkeys(texts)))
        try:
            self.update(dict(zip(new, map(_literal_ratio, new))))
        except DataFormatError:
            return False
        return True

    def scale(self, texts, width: int) -> tuple:
        """(L, cols): the literals ``texts``, width to a value, as int
        columns over the lcm L of the denominators of every literal read."""
        L = math.lcm(*{den for _, den in self.values()})
        ints = {text: num * (L // den) for text, (num, den) in self.items()}
        ints = list(map(ints.__getitem__, texts))
        return L, [ints[c::width] for c in range(width)]


def _complex_values(pairs) -> list | None:
    """The complex values of the list ``pairs``, each an [re, im] list of
    two floats, checked and read whole; None when a check fails."""
    if {*map(type, pairs)} != {list} or {*map(len, pairs)} != {2}:
        return None
    parts = list(chain.from_iterable(pairs))
    if {*map(type, parts)} != {float}:
        return None
    return list(map(complex, parts[0::2], parts[1::2]))


def _cyclotomic_literals(values, p: int, ell: int, width: int) -> list | None:
    """The coefficient literals of ``values``, ``width`` (phi) to a value,
    when every one of them is a cyclotomic value object that passes the
    checks of ``_cyclotomic_coeffs`` on the grid conductor p**ell; None
    otherwise."""
    if {*map(type, values)} != {dict}:
        return None
    coeffs = list(map(dict.get, values, repeat("coeffs")))
    ps = list(map(dict.get, values, repeat("p"), repeat(p)))
    ells = list(map(dict.get, values, repeat("ell"), repeat(1)))
    if (
        {*map(type, coeffs)} != {list} or {*map(type, ps + ells)} != {int}
        or {*ps} != {p} or {*ells} != {ell} or {*map(len, coeffs)} != {width}
    ):
        return None
    return list(chain.from_iterable(coeffs))


def function_from_payload(payload) -> GridFunction:
    """The function of a function file's parsed JSON.  Values of one kind
    are checked whole, and exact ones go straight onto lattice columns: each
    distinct literal is read into a reduced ratio once, and the columns are
    scaled once by the lcm L of the denominators.  When a check fails, the
    per-value reader runs from the first value and names the first fault
    in file order."""
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
        z = _complex_values(values)
        if z is None:
            z = [scalar_from_payload(v, kind, p, ell) for v in values]
        return GridFunction(ambient, kind, z)
    literals = _Literals()
    width = 1 if kind == RATIONAL else ambient.modulus - ambient.modulus // p
    texts = values if kind == RATIONAL else _cyclotomic_literals(values, p, ell, width)
    if texts is None or not literals.read_all(texts):
        literal = literals.read
        if kind == RATIONAL:
            texts = list(map(literal, values))
        else:
            pad = ("0",) * (width - 1)
            texts = [
                c for v in values
                for c in ((literal(v), *pad) if isinstance(v, str) else _cyclotomic_coeffs(v, p, ell, literal))
            ]
    L, cols = literals.scale(texts, width)
    return _from_lattice(ambient, cols, L, kind)


def save_function(f: GridFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(function_dumps(f))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError:
            raise DataFormatError(f"{path}: not valid JSON (nested too deeply)") from None


def load_function(path) -> GridFunction:
    return function_from_payload(_read_json(path))


def sinogram_to_payload(table: MassTable) -> dict:
    masses = iter(table._masses.values)  # as held, cut by line as sinogram_dumps cuts them
    return {
        "p": table.ambient.p,
        "d": table.ambient.d,
        "masses": [
            {"s": list(line.rep), "m": [scalar_to_payload(m) for m in islice(masses, size)]}
            for line, size in zip(table.directions(), table._sizes)
        ],
    }


def sinogram_from_payload(payload) -> MassTable:
    """The mass table of a sinogram file's parsed JSON, read straight onto
    lattice columns the way ``function_from_payload`` reads values: its rows
    and masses of one kind are checked whole, and when a check fails the
    per-value reader runs from the first row and names the first fault in
    file order.  The masses of each direction are rebased onto its canonical
    generator by one modular inverse, and the table takes the kind they
    join to: a rational mass among cyclotomic ones gets zero coordinates
    above degree zero, one among complex ones its complex value.  A table
    of complex masses holds them as values."""
    if not isinstance(payload, dict):
        raise DataFormatError("sinogram file must contain a JSON object")
    _require_fields(payload, ("p", "d", "masses"), "sinogram file")
    ambient = Ambient(payload["p"], payload["d"], payload.get("modulus_exponent", 1))
    require_prime_grid(ambient)
    p = ambient.p
    if not isinstance(payload["masses"], list):
        raise DataFormatError("sinogram masses must be a list of rows")
    table = _sinogram_whole(ambient, payload["masses"])
    if table is not None:
        return table
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
        kind, width = (CYCLOTOMIC, p - 1) if kinds else (RATIONAL, 1)
        pad = ("0",) * (width - 1)
        L, cols = literals.scale([c for m in cells for c in (m + pad if len(m) == 1 else m)], width)
        masses = Values._from_lattice(ambient, cols, L, kind)
    return MassTable(ambient, lines, masses)


def _sinogram_whole(ambient, entries) -> MassTable | None:
    """The mass table of a sinogram's rows ``entries``, checked and read
    whole, the rows as they are: None when the directions are not every
    canonical generator in canonical order, found by one compare, or when
    a check of the masses fails."""
    p, d = ambient.p, ambient.d
    if {*map(type, entries)} != {dict}:
        return None
    ss = list(map(dict.get, entries, repeat("s")))
    ms = list(map(dict.get, entries, repeat("m")))
    if (
        {*map(type, ss)} != {list} or {*map(len, ss)} != {d}
        or {*map(type, ms)} != {list} or {*map(len, ms)} != {p}
    ):
        return None
    coords = tuple(chain.from_iterable(ss))
    if {*map(type, coords)} != {int}:  # not bools: [True, False] == [1, 0]
        return None
    if len(ss) != line_count(ambient) or coords != line_coordinates(ambient):
        return None
    literals = _Literals()
    read = _mass_cells(list(chain.from_iterable(ms)), p, literals)
    if read is None:
        return None
    cells, kind = read
    lines = enumerate_lines(ambient)
    if kind == COMPLEX:
        return MassTable(ambient, lines, Values(ambient, COMPLEX, cells))
    L, cols = literals.scale(cells, p - 1 if kind == CYCLOTOMIC else 1)
    return MassTable(ambient, lines, Values._from_lattice(ambient, cols, L, kind))


def _mass_cells(masses, p: int, literals: _Literals):
    """(cells, kind): a sinogram's ``masses`` in file order, checked and
    read whole when all of them are of one kind: the literals of rational
    or cyclotomic masses, the values of complex ones; None when they mix
    kinds or a check fails."""
    types = {*map(type, masses)}
    if types == {list}:
        cells = _complex_values(masses)
        return None if cells is None else (cells, COMPLEX)
    kind = RATIONAL if types == {str} else CYCLOTOMIC
    texts = masses if kind == RATIONAL else _cyclotomic_literals(masses, p, 1, p - 1)
    if texts is None or not literals.read_all(texts):
        return None
    return texts, kind


def _complex_mass(text: str, ratio: tuple) -> complex:
    """The complex value of the rational literal ``text`` read as (num, den),
    the value ``complex(Fraction(num, den))``."""
    try:
        return complex(ratio[0] / ratio[1])
    except OverflowError:
        raise DataFormatError(f"rational mass {text!r} is too large for a complex value") from None


def sinogram_dumps(table: MassTable) -> str:
    """``canonical_dumps(sinogram_to_payload(table))``, the text of the
    table's sinogram file, written from its lattice columns."""
    ambient = table.ambient
    masses = _line_rows("m", table.directions(), table._sizes, table._masses)
    return f'{{\n  "d": {ambient.d},\n  "masses": {masses},\n  "p": {ambient.p}\n}}\n'


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
    decomposition's file, written from the lattice columns of its constant
    and of its table of coefficients."""
    ambient = dec.ambient
    [constant] = _value_texts(dec._constant, _TOP)
    parts = _line_rows("coeffs", dec.directions(), [ambient.p] * dec.cbw, dec._coefficients)
    return (
        f'{{\n  "constant": {constant},\n  "d": {ambient.d},\n  "form": {json.dumps(dec.form)},\n'
        f'  "p": {ambient.p},\n  "parts": {parts}\n}}\n'
    )


def bandwidth_report_dumps(report: BandwidthReport) -> str:
    """``canonical_dumps(bandwidth_report_payload(report))``, the text of a
    bandwidth report, its lines written from the direction texts
    (``_direction_texts``) in one join."""
    texts, lines = _direction_texts(report.lines, "," + _ROW), "[]"
    if texts:
        lines = f"[{_TOP}  [{_ROW}" + f"{_TOP}  ],{_TOP}  [{_ROW}".join(texts) + f"{_TOP}  ]{_TOP}]"
    return (
        f'{{\n  "approximate": {"true" if report.approximate else "false"},\n'
        f'  "bw": "{format_rational(report.bw)}",\n  "bwd": {json.dumps(report.bwd)},\n'
        f'  "cbw": {report.cbw},\n  "lines": {lines}\n}}\n'
    )


def bandwidth_report_payload(report) -> dict:
    return {
        "cbw": report.cbw,
        "bw": format_rational(report.bw),
        "bwd": report.bwd,
        "lines": [list(line.rep) for line in report.lines],
        "approximate": report.approximate,
    }
