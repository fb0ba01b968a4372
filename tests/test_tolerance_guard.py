"""Floating values have one zero rule, written once in ``charkit.scalars``:
``zero_bound`` turns a tolerance into the threshold tol * S, S the largest
magnitude among the values compared.  A second rule anywhere else, such as
one command multiplying its tolerance by the size of its input, must fail
here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "charkit"


def _is_tolerance(node) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "tol" in name.lower()


def _has_magnitude(node) -> bool:
    """The expression takes an absolute value somewhere: abs(v) or map(abs, ...)."""
    return any(isinstance(n, ast.Name) and n.id == "abs" for n in ast.walk(node))


def scaled_tolerances(source: str) -> list:
    """Lines that turn a magnitude into a threshold: a tolerance multiplied
    or divided by anything, a product with an absolute value in it, or a
    relative tolerance handed to ``math.isclose``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            operands = (node.left, node.right)
            if any(_is_tolerance(x) or _has_magnitude(x) for x in operands):
                lines.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Mult, ast.Div)):
            if _is_tolerance(node.target):
                lines.append(node.lineno)
        elif isinstance(node, ast.keyword) and node.arg == "rel_tol":
            lines.append(node.value.lineno)
    return lines


def test_only_scalars_turns_a_magnitude_into_a_threshold():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "scalars.py" and (lines := scaled_tolerances(path.read_text()))
    }
    assert found == {}


def test_the_guard_sees_the_rule_in_scalars():
    assert scaled_tolerances((SRC / "scalars.py").read_text()) != []


def test_the_guard_sees_each_shape_of_a_second_rule():
    shapes = [
        "close = f.isclose(g, args.tolerance * scale)",
        "bound = 1e-9 * max(map(abs, values))",
        "tol *= scale",
        "ok = math.isclose(a, b, rel_tol=1e-9)",
    ]
    assert [bool(scaled_tolerances(s)) for s in shapes] == [True] * len(shapes)
    assert scaled_tolerances("r = max(abs(a - lam * b) for a, b in pairs)") == []
