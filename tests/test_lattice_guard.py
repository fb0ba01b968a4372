"""The exact lattice format has one home, ``charkit.fourier``: ``_encode``
scales values onto Z[x]/(x**q - 1), ``_decode`` turns lattice columns
back into values, and every run on the lattice is laid out there (the
transforms, the mass run and back-projection), so other modules only call
the runs.  A module that imports a private name of ``fourier`` other than
the kind home and the lattice entry points, imports the row arithmetic
``_galois_row`` or ``_reduce_ext`` of ``scalars``, or that takes an lcm of
denominators, reads ``.denominator`` or builds a ``Cyclotomic`` with
``_make`` outside ``fourier``, ``scalars`` and ``fileio``, must fail here.  Every exact
function holds its lattice columns over one denominator from
construction; a module other than ``fourier`` that reads or builds that
form (``_cols``, ``_den``, or the ``_rows`` a second, row store would add)
other than through ``_lattice_of`` and ``_from_lattice`` must fail too,
and so must a test for a second form: a ``_cols``, ``_rows`` or ``_den``
compared with None, or a ``_values`` compared with None outside the
``values`` property.  Values are held one way, by ``fourier.Values``: a
module other than ``fourier`` that imports, names or calls ``_encode`` or
``_decode``, or that defines a class of its own whose ``__slots__`` hold
columns, rows or a denominator, must fail."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "charkit"
HOMES = {"fourier.py", "scalars.py", "fileio.py"}
KIND_HOME = {"_coerce_value", "_join_kind", "_kind_of_scalar"}
LATTICE = {
    "_exact_transform", "_mass_rows", "_spectrum_and_masses", "_back_project",
    "_traces", "_set_spectrum", "_lattice_of", "_from_lattice",
}
CODEC = {"_encode", "_decode"}  # Values' own, for fourier alone
ROW_SLOTS = {"rows", "den", "cols", "_rows", "_den", "_cols"}
ROW_ARITHMETIC = {"_galois_row", "_reduce_ext"}  # of scalars, for fourier alone
LATTICE_FORM = {"_cols", "_rows", "_den", "_values"}  # a holder's stores, and a row store's name


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


def codec_uses(source: str) -> list:
    """Lines that import, name or call ``_encode`` or ``_decode``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names = {node.id if isinstance(node, ast.Name) else node.attr}
        else:
            continue
        if names & CODEC:
            lines.append(node.lineno)
    return sorted(set(lines))


def row_holders(source: str) -> list:
    """Lines of the classes whose ``__slots__`` name columns, rows or a
    denominator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                targets = [stmt.target]
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                slots = {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
                if slots & ROW_SLOTS:
                    lines.append(node.lineno)
    return lines


def test_only_fourier_encodes_and_decodes_values():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fourier.py" and (lines := codec_uses(path.read_text()))
    }
    assert found == {}


def test_only_fourier_defines_a_holder_of_rows():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fourier.py" and (lines := row_holders(path.read_text()))
    }
    assert found == {}


def test_the_guard_sees_each_second_holder():
    shapes = [
        # the import of wavelets.py and the holder it kept before Values
        "from .fourier import _back_project, _decode, _encode, _from_lattice, _lattice_of, _mass_rows",
        'class _Lattice:\n    __slots__ = ("ambient", "kind", "den", "rows", "_decoded")',
        "ms = fourier._decode(kind, cells, den, ambient)",
        "_, den, rows = _encode(values, ambient)",
        "class Held:\n    __slots__ = ('_rows', '_den')",
        "class Held:\n    __slots__ = ('_cols', '_den')",
        'class Table:\n    __slots__ = "rows"',
        "class Table:\n    __slots__: tuple = ('den', 'rows')",
    ]
    assert [bool(codec_uses(s) or row_holders(s)) for s in shapes] == [True] * len(shapes)
    allowed = [
        "from .fourier import COMPLEX, GridFunction, Values, _join_kind, _kind_of_scalar",
        "den, rows = _lattice_of(table._masses)",
        "masses = Values._from_lattice(ambient, cells, den, kind)",
        'class MassTable(_Record):\n    __slots__ = ("ambient", "_lines", "_sizes", "_masses", "_grouped")',
        'class Wavelet(_Record):\n    __slots__ = ("ambient", "direction", "form", "_coefficients")',
    ]
    assert [codec_uses(s) + row_holders(s) for s in allowed] == [[]] * len(allowed)


def test_only_fourier_reads_a_functions_lattice_form():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fourier.py" and (lines := lattice_form_reads(path.read_text()))
    }
    assert found == {}


def form_tests(source: str) -> list:
    """Lines that ask which form a function holds: ``_cols``, ``_rows``,
    ``_den`` or ``_values`` compared with None, except ``_values`` in
    ``values``."""
    lines = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare):
                sides = [child.left, *child.comparators]
                nones = any(isinstance(x, ast.Constant) and x.value is None for x in sides)
                attrs = {x.attr for x in sides if isinstance(x, ast.Attribute)}
                held = attrs & {"_cols", "_rows", "_den"}
                if nones and (held or "_values" in attrs and function != "values"):
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
        "if f._cols is None:\n    pass",
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
        "total = [sum(col) for col in f._cols]",
        "scale = F._den",
        "vals = F._values",
    ]
    assert [bool(lattice_work(s)) for s in shapes] == [True] * len(shapes)


def test_the_guard_lets_the_homes_and_entry_points_pass():
    allowed = [
        "from .fourier import GridFunction, _coerce_value, _join_kind, _kind_of_scalar",
        "from .fourier import _exact_transform, _mass_rows",
        "from .fourier import _back_project, _from_lattice, _lattice_of, _traces",
        "from .scalars import DEFAULT_TOL, all_equal, zero_bound",
        "g = math.gcd(q, *v)",
        "z = Cyclotomic.zeta(p, e, ell)",
        "part = _from_lattice(ambient, [c[s] for s in labels], den)",
    ]
    assert [lattice_work(s) for s in allowed] == [[]] * len(allowed)
