"""Scalar kinds have one home: a value changes kind only through
``GridFunction``'s coercion (``fourier._coerce_value``), and the number
protocol (``complex(v)``, ``sum(values)``, ``not v``) covers the rest.
Besides ``scalars`` and ``fourier``, only ``fileio``, the file boundary,
may look at a value's type.  A module that branches on Cyclotomic,
Fraction or complex with ``isinstance``, embeds with ``.embed()``, or
reaches for a per-kind zero must fail here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "charkit"
HOMES = {"scalars.py", "fourier.py", "fileio.py"}
KINDS = {"Cyclotomic", "Fraction", "complex"}
DISPATCHERS = {"zero_scalar", "_promoted_values"}


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def kind_branches(source: str) -> list:
    """Lines that decide a scalar's kind: an ``isinstance`` naming one of the
    scalar types, an ``.embed()`` call, or a use of a per-kind dispatcher."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "isinstance":
            classes = node.args[1:2]
            if classes and isinstance(classes[0], ast.Tuple):
                classes = classes[0].elts
            if any(_name(c) in KINDS for c in classes):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "embed":
                lines.append(node.lineno)
        if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in DISPATCHERS:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_the_homes_branch_on_a_scalar_kind():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name not in HOMES and (lines := kind_branches(path.read_text()))
    }
    assert found == {}


def test_the_guard_sees_each_shape_of_a_second_dispatch():
    shapes = [
        "z = seed if isinstance(seed, Cyclotomic) else Cyclotomic.from_rational(p, seed)",
        "if any(isinstance(v, complex) for v in values): pass",
        "ok = isinstance(v, (int, Fraction))",
        "c = c.embed()",
        "acc = f.zero_scalar()",
        "a = _promoted_values(f, kind)",
    ]
    assert [bool(kind_branches(s)) for s in shapes] == [True] * len(shapes)


def test_the_guard_lets_other_types_and_the_protocol_pass():
    allowed = [
        "rep = key.rep if isinstance(key, ProjectiveLine) else key",
        "ok = isinstance(obj, (dict, list))",
        "c = complex(c)",
        "total = sum(f.values)",
    ]
    assert [kind_branches(s) for s in allowed] == [[]] * len(allowed)
