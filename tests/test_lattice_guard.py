"""The exact lattice format has one home, ``charkit.fourier``: ``_encode``
scales values onto Z[x]/(x**q - 1) and ``_decode`` turns lattice rows back
into values, and every other module only lays out its runs.  A module that
imports a private name of ``fourier`` other than the kind home and the
lattice entry points, or that takes an lcm of denominators, reads
``.denominator`` or builds a ``Cyclotomic`` with ``_make`` outside
``fourier``, ``scalars`` and ``fileio``, must fail here.  Every exact
function holds its lattice rows over one denominator from construction; a
module other than ``fourier`` that reads or builds that form other than
through ``_lattice_of`` and ``_from_lattice`` must fail too, and so must a
test for a second form: a ``_rows`` or ``_den`` compared with None, or a
``_values`` compared with None outside the ``values`` property."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "charkit"
HOMES = {"fourier.py", "scalars.py", "fileio.py"}
KIND_HOME = {"_coerce_value", "_join_kind", "_kind_of_scalar"}
LATTICE = {
    "_encode", "_decode", "_lattice_pass", "_exact_transform",
    "_lattice_of", "_from_lattice", "_planes",
}
LATTICE_FORM = {"_rows", "_den", "_values"}  # a GridFunction's two stores


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


def form_tests(source: str) -> list:
    """Lines that ask which form a function holds: ``_rows``, ``_den`` or
    ``_values`` compared with None, except ``_values`` in ``values``."""
    lines = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare):
                sides = [child.left, *child.comparators]
                nones = any(isinstance(x, ast.Constant) and x.value is None for x in sides)
                attrs = {x.attr for x in sides if isinstance(x, ast.Attribute)}
                if nones and (attrs & {"_rows", "_den"} or "_values" in attrs and function != "values"):
                    lines.append(child.lineno)
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            visit(child, inner)

    visit(ast.parse(source), None)
    return lines


def test_an_exact_function_has_one_form():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := form_tests(path.read_text()))
    }
    assert found == {}


def test_the_form_guard_sees_each_test_of_a_second_form():
    shapes = [
        "if f._rows is not None:\n    pass",
        "ok = self._den is None",
        "def nonzero(self):\n    return self._values is not None",
    ]
    allowed = [
        "def values(self):\n    if self._values is None:\n        pass",
        "ok = f.rows is None",
    ]
    assert [bool(form_tests(s)) for s in shapes] == [True] * len(shapes)
    assert [form_tests(s) for s in allowed] == [[]] * len(allowed)


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
        "vals = F._values",
    ]
    assert [bool(lattice_work(s)) for s in shapes] == [True] * len(shapes)


def test_the_guard_lets_the_homes_and_entry_points_pass():
    allowed = [
        "from .fourier import GridFunction, _coerce_value, _join_kind, _kind_of_scalar",
        "from .fourier import _decode, _encode, _exact_transform, _lattice_pass",
        "from .fourier import _from_lattice, _lattice_of, _planes",
        "g = math.gcd(q, *v)",
        "z = Cyclotomic.zeta(p, e, ell)",
        "ms = fourier._decode(kind, cells, den, ambient)",
        "part = _from_lattice(ambient, [c[s] for s in labels], den)",
    ]
    assert [lattice_work(s) for s in allowed] == [[]] * len(allowed)
