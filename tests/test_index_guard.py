"""The grid's index arithmetic has one home, ``charkit.geometry``:
``line_indices`` holds the dense indices of every line's points and
``dots`` the labels x.v of every point for a direction v.  A module that
walks a line again with ``index_of(vscale(...))`` or ``.punctured(...)``,
or labels points with ``dot(...)`` outside the reference scans
``forward_naive`` and ``masses``, must fail here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "charkit"
REFERENCES = {"forward_naive", "masses"}


def _name(func) -> str:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def index_walks(source: str) -> list:
    """Lines that redo the index arithmetic: an ``index_of`` of a ``vscale``,
    a ``.punctured`` call, or a ``dot`` call in a function other than the
    references (or at module level)."""
    lines = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name, args = _name(child.func), child.args
                if (
                    name == "index_of" and args and isinstance(args[0], ast.Call)
                    and _name(args[0].func) == "vscale"
                    or name == "punctured" and isinstance(child.func, ast.Attribute)
                    or name == "dot" and function not in REFERENCES
                ):
                    lines.append(child.lineno)
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            visit(child, inner)

    visit(ast.parse(source), None)
    return lines


def test_only_geometry_walks_the_grid():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "geometry.py" and (lines := index_walks(path.read_text()))
    }
    assert found == {}


def test_the_guard_sees_each_shape_of_a_second_walk():
    shapes = [
        "flags = [F.values[ambient.index_of(pt)] for pt in line.punctured(ambient)]",
        "base = F.values[ambient.index_of(vscale(t, line.rep, p))]",
        "def evaluate(self):\n    return [self.coeffs[dot(x, s, p)] for x in pts]",
        "def phase(ambient, x):\n    return [zeta(-dot(x, m, q) % q) for m in pts]",
        "phases = [roots[dot(x, m, q)] for m in pts]",
    ]
    assert [bool(index_walks(s)) for s in shapes] == [True] * len(shapes)


def test_the_references_keep_their_own_arithmetic():
    references = [
        "def forward_naive(f):\n    return [roots[-dot(x, m, q) % q] for x in pts]",
        "def masses(f, s):\n    return [dot(x, s, p) for x in pts]",
    ]
    assert [index_walks(s) for s in references] == [[]] * len(references)
