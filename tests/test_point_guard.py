"""Caller points have one gate, ``charkit.geometry.grid_point``: it refuses a
vector without d coordinates and reduces the others mod m.  A module other
than ``geometry`` that reduces coordinates itself with a ``c % p``
comprehension, compares a ``len(...)`` with an ambient's ``d``, or imports
``require_length`` must fail here.  The one exemption is the JSON schema
check of a sinogram row in ``fileio``, which refuses a malformed file
before its direction reaches the gate."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "charkit"
SCHEMA_CHECKS = {("fileio.py", "sinogram_from_payload")}


def _is_len_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", "") == "len"


def _reduces_its_element(node) -> bool:
    """A comprehension ``c % n for c in v``: each element of v reduced."""
    if not isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return False
    elt, target = node.elt, node.generators[0].target
    return (
        isinstance(elt, ast.BinOp)
        and isinstance(elt.op, ast.Mod)
        and isinstance(elt.left, ast.Name)
        and isinstance(target, ast.Name)
        and elt.left.id == target.id
    )


def point_gates(source: str, module: str = "") -> list:
    """Lines that gate a caller's vector outside ``grid_point``."""
    lines = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if _reduces_its_element(child):
                lines.append(child.lineno)
            elif isinstance(child, ast.Compare) and (module, function) not in SCHEMA_CHECKS:
                sides = [child.left, *child.comparators]
                if any(map(_is_len_call, sides)) and any(
                    isinstance(s, ast.Attribute) and s.attr == "d" for s in sides
                ):
                    lines.append(child.lineno)
            elif isinstance(child, ast.ImportFrom) and any(
                alias.name == "require_length" for alias in child.names
            ):
                lines.append(child.lineno)
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(set(lines))


def test_only_geometry_gates_a_caller_point():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "geometry.py"
        and (lines := point_gates(path.read_text(), path.name))
    }
    assert found == {}


def test_the_guard_sees_each_shape_of_a_second_gate():
    shapes = [
        # the five reductions that grid_point replaced
        "def affine_eigenfunction_pair(V, x):\n    x = tuple(c % p for c in x)",
        "def sinogram_from_payload(payload):\n    s = tuple(c % p for c in s)",
        "def classify_direction_paraboloid(ambient, v):\n    v = tuple(c % p for c in v)",
        "def sphere_equidistribution_check(f, center):\n"
        "    center = tuple(c % p for c in center)",
        "def masses(f, s):\n    s = tuple(c % p for c in s)",
        "members = frozenset(tuple(c % m for c in x) for x in points)",
        "if not any(c % ambient.modulus for c in s): pass",
        "x = [c % p for c in point]",
        "if len(v) != ambient.d: raise ValueError(v)",
        "ok = ambient.d == len(point)",
        "from .geometry import Ambient, require_length",
    ]
    assert [bool(point_gates(s)) for s in shapes] == [True] * len(shapes)


def test_the_schema_check_and_value_arithmetic_pass():
    allowed = [
        "def sinogram_from_payload(payload):\n"
        "    if not isinstance(s, list) or len(s) != ambient.d: raise DataFormatError(s)",
        "plus = {(t, (i * t + c) % p) for t in range(p) for c in (0, 1)}",
        "phases = [zeta(-u % q) for u in dots(ambient, x)]",
        "if len(values) != ambient.size: raise ValueError(values)",
    ]
    assert [point_gates(s, "fileio.py") for s in allowed] == [[]] * len(allowed)
