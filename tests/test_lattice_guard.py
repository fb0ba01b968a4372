"""The exact lattice format has one home, ``charkit.fourier``: ``_encode``
scales values onto Z[x]/(x**q - 1), ``_decode`` turns lattice rows back
into values, and every run on the lattice is laid out there (the
transforms, the mass run and back-projection), so other modules only call
the runs.  A module that imports a private name of ``fourier`` other than
the kind home and the lattice entry points, imports the row arithmetic
``_galois_row`` or ``_reduce_ext`` of ``scalars``, or that takes an lcm of
denominators, reads ``.denominator`` or builds a ``Cyclotomic`` with
``_make`` outside ``fourier``, ``scalars`` and ``fileio``, must fail here.  Every exact
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
    "_encode", "_decode", "_exact_transform", "_mass_rows", "_back_project",
    "_traces", "_set_spectrum", "_lattice_of", "_from_lattice",
}
ROW_ARITHMETIC = {"_galois_row", "_reduce_ext"}  # of scalars, for fourier alone
LATTICE_FORM = {"_rows", "_den", "_values"}  # a GridFunction's two stores


def lattice_form_reads(source: str) -> list:
    """Lines that read or build a function's lattice form."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in LATTICE_FORM
    })


def lattice_work(source: str) -> list:
    """Lines that scale onto the lattice, decode its rows or lay out a run:
    a private ``fourier`` import outside the kind home and the entry points,
    the row arithmetic of ``scalars``, an ``lcm``, a ``.denominator``, a
    ``Cyclotomic._make``, or a read of a function's lattice form."""
    lines = lattice_form_reads(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fourier"):
            private = {a.name for a in node.names if a.name.startswith("_")}
            if private - KIND_HOME - LATTICE:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("scalars"):
            if ROW_ARITHMETIC & {a.name for a in node.names}:
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
                or owner == "scalars" and node.attr in ROW_ARITHMETIC
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
        # the runs of wavelets.py and the spectrum of bandwidth.inverse_phi,
        # laid out outside fourier before they moved there
        "from .fourier import _decode, _encode, _from_lattice, _lattice_of, _lattice_pass, _planes",
        "A = fourier._lattice_pass(A, p, +1)",
        "from .scalars import DEFAULT_TOL, _galois_row, all_equal",
        "from charkit.scalars import _reduce_ext",
        "row = scalars._galois_row(p, 1, row, r)",
        # a function's lattice form read or built outside fourier
        "active = [any(row) for row in F._rows]",
        "scale = F._den",
        "vals = F._values",
    ]
    assert [bool(lattice_work(s)) for s in shapes] == [True] * len(shapes)


def test_the_guard_lets_the_homes_and_entry_points_pass():
    allowed = [
        "from .fourier import GridFunction, _coerce_value, _join_kind, _kind_of_scalar",
        "from .fourier import _decode, _encode, _exact_transform, _mass_rows",
        "from .fourier import _back_project, _from_lattice, _lattice_of, _traces",
        "from .scalars import DEFAULT_TOL, all_equal, zero_bound",
        "g = math.gcd(q, *v)",
        "z = Cyclotomic.zeta(p, e, ell)",
        "ms = fourier._decode(kind, cells, den, ambient)",
        "part = _from_lattice(ambient, [c[s] for s in labels], den)",
    ]
    assert [lattice_work(s) for s in allowed] == [[]] * len(allowed)
