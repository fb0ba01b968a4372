"""Every run is chosen in one place, ``fourier._kernel(ambient, kind)``:
``_Complex`` for complex values, ``_Walsh`` for exact values on Z_2**d and
``_Lattice`` otherwise, the ring grids Z_{2**ell}**d included.  No other
function of the modules that run the transforms and the masses may choose a
run by comparing p, q or the modulus with 2."""

import ast
from pathlib import Path

import pytest

from charkit import fourier
from charkit.geometry import Ambient

SRC = Path(__file__).resolve().parent.parent / "src" / "charkit"
GUARDED = ("fourier.py", "wavelets.py", "bandwidth.py", "multiscale.py")
MODULI = {"p", "q", "modulus"}

GRIDS = [(2, 1, 1), (2, 5, 1), (3, 3, 1), (5, 2, 1), (2, 2, 2), (3, 2, 2)]
EXACT = {
    (2, 1, 1): fourier._Walsh,
    (2, 5, 1): fourier._Walsh,
    (3, 3, 1): fourier._Lattice,
    (5, 2, 1): fourier._Lattice,
    (2, 2, 2): fourier._Lattice,  # Z_4**2
    (3, 2, 2): fourier._Lattice,  # Z_9**2
}


@pytest.mark.parametrize("grid", GRIDS, ids=str)
@pytest.mark.parametrize("kind", ["rational", "cyclotomic", "complex"])
def test_the_kernel_of_each_grid_and_kind(grid, kind):
    want = fourier._Complex if kind == "complex" else EXACT[grid]
    assert fourier._kernel(Ambient(*grid), kind) is want


def modulus_tests(source: str) -> list:
    """(function, line) of every comparison of p, q or modulus, as a name or
    an attribute, with the constant 2."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare):
                sides = [child.left, *child.comparators]
                two = any(isinstance(x, ast.Constant) and x.value == 2 for x in sides)
                names = {x.id if isinstance(x, ast.Name) else getattr(x, "attr", None)
                         for x in sides}
                if two and names & MODULI:
                    found.append((function, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else function
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_only_the_kernel_choice_compares_the_modulus_with_two():
    found = {
        name: tests
        for name in GUARDED
        if (tests := [t for t in modulus_tests((SRC / name).read_text()) if t[0] != "_kernel"])
    }
    assert found == {}


def test_the_guard_sees_each_shape_of_a_second_choice():
    shapes = [
        "def f(p):\n    if p == 2:\n        pass",
        "def f(ambient):\n    return ambient.modulus == 2",
        "def f(q):\n    return 2 != q",
        "def f(ambient, a, b):\n    return a if ambient.p == 2 else b",
        "def f(ambient):\n    return ambient.q > 2",
    ]
    allowed = [
        "def f(d):\n    return d == 2",
        "def f(p):\n    return p % 4 == 3",
        "def f(d, ell):\n    return (d, ell) != (2, 1)",
        "def f(p):\n    return p == 3",
    ]
    assert [bool(modulus_tests(s)) for s in shapes] == [True] * len(shapes)
    assert [modulus_tests(s) for s in allowed] == [[]] * len(allowed)
