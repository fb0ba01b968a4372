"""The exact lattice format has one home, ``charkit.fourier``: ``_encode``
scales values onto Z[x]/(x**q - 1) and ``_decode`` turns lattice rows back
into values, and every other module only lays out its runs.  A module that
imports a private name of ``fourier`` other than the kind home and the
lattice entry points, or that takes an lcm of denominators, reads
``.denominator`` or builds a ``Cyclotomic`` with ``_make`` outside
``fourier``, ``scalars`` and ``fileio``, must fail here.  An exact result of
a transform holds its lattice rows over one denominator; a module other than
``fourier`` that reads or builds that form must fail too."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "charkit"
HOMES = {"fourier.py", "scalars.py", "fileio.py"}
KIND_HOME = {"_coerce_value", "_join_kind", "_kind_of_scalar"}
LATTICE = {"_encode", "_decode", "_lattice_pass", "_exact_transform"}
LATTICE_FORM = {"_rows", "_den", "_from_rows"}  # a GridFunction's lattice attributes


def lattice_form_reads(source: str) -> list:
    """Lines that read or build a function's lattice form."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in LATTICE_FORM
    })


def lattice_work(source: str) -> list:
    """Lines that scale onto the lattice or decode its rows: a private
    ``fourier`` import outside the kind home and the entry points, an
    ``lcm``, a ``.denominator``, a ``Cyclotomic._make``, or a read of a
    function's lattice form."""
    lines = lattice_form_reads(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fourier"):
            private = {a.name for a in node.names if a.name.startswith("_")}
            if private - KIND_HOME - LATTICE:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(a.name == "lcm" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else ""
            if (
                node.attr in ("lcm", "denominator")
                or node.attr == "_make" and owner == "Cyclotomic"
                or owner == "fourier" and node.attr.startswith("_")
                and node.attr not in KIND_HOME | LATTICE
            ):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_only_fourier_scales_onto_the_lattice_and_decodes_it():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name not in HOMES and (lines := lattice_work(path.read_text()))
    }
    assert found == {}


def test_only_fourier_reads_a_functions_lattice_form():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fourier.py" and (lines := lattice_form_reads(path.read_text()))
    }
    assert found == {}


def test_the_guard_sees_each_shape_of_a_second_format():
    shapes = [
        # the imports of wavelets.py and multiscale.py before the format moved
        "from .fourier import (\n    COMPLEX,\n    _cyclotomics,\n    _fractions,\n    _lattice,\n)",
        "from .fourier import COMPLEX, GridFunction, Spectrum, _exact_transform, _scalars",
        "from charkit.fourier import _lattice",
        "L = math.lcm(*dens)",
        "from math import gcd, lcm",
        "dens = {c.denominator for c in coeffs}",
        "z = Cyclotomic._make(p, ell, tuple(row))",
        "ms = fourier._cyclotomics(cells, p, 1, L)",
        # a function's lattice form read or built outside fourier
        "active = [any(row) for row in F._rows]",
        "scale = F._den",
        "G = Spectrum._from_rows(ambient, kind, rows, den)",
    ]
    assert [bool(lattice_work(s)) for s in shapes] == [True] * len(shapes)


def test_the_guard_lets_the_homes_and_entry_points_pass():
    allowed = [
        "from .fourier import GridFunction, _coerce_value, _join_kind, _kind_of_scalar",
        "from .fourier import _decode, _encode, _exact_transform, _lattice_pass",
        "g = math.gcd(q, *v)",
        "z = Cyclotomic.zeta(p, e, ell)",
        "kind, c = fourier._decode(CYCLOTOMIC, rows, L, ambient, demote=True)",
    ]
    assert [lattice_work(s) for s in allowed] == [[]] * len(allowed)
