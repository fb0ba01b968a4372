"""Scalar kinds: rational (Fraction), cyclotomic (Cyclotomic) and complex.

A value changes kind only through ``GridFunction``'s coercion, and the
number protocol does the rest on every kind: ``complex(v)`` embeds,
``sum(values)`` starts from the int 0 and ``not v`` tests for zero.

``golden/kinds/<section>.json`` pins values that no CLI golden covers, in
their exact form: exact values by ``repr`` (which names the type, so a
Fraction that became an int or a Cyclotomic fails), complex values by
``float.hex`` of both parts.  They were written before the kind dispatch
moved into the coercion:

- ``eigen_pairs``: ``affine_eigenfunction_pair(V, x)`` for every subspace V
  of (2,2), (3,2), (2,3) and (3,3), at x = 0 and two seeded offsets;
- ``expansion``: ``eigen_expand(f).evaluate()`` of a random function of
  each kind on (2,3) and (3,3);
- ``sums``: ``f.total()``, ``masses`` on every line, ``mass_table(f).totals()``,
  each ``Wavelet.mass`` of ``decompose(f)`` in every form, and
  ``convolve(f, g)`` with a random g of each kind, on (2,3), (3,2) and
  (5,2), for a random f and the zero function of each kind;
- ``inverse_phi``: ``inverse_phi`` with float and Fraction averages and seeds.

Run this file as a script to write the pins again.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charkit.bandwidth import inverse_phi
from charkit.corpus import (
    random_complex_function,
    random_cyclotomic_function,
    random_point,
    random_rational_function,
    rng_for,
)
from charkit.eigen import affine_eigenfunction_pair, eigen_expand
from charkit.fourier import GridFunction, convolve
from charkit.geometry import Ambient, ProjectiveLine, all_subspaces, enumerate_lines
from charkit.scalars import Cyclotomic
from charkit.wavelets import FORMS, decompose, mass_table, masses

GOLDEN = Path(__file__).parent / "golden" / "kinds"
FIXED = settings(derandomize=True, database=None, deadline=None)

RANDOM = {
    "rational": random_rational_function,
    "cyclotomic": random_cyclotomic_function,
    "complex": random_complex_function,
}


def encode(v) -> str:
    if isinstance(v, complex):
        return f"complex {v.real.hex()} {v.imag.hex()}"
    if isinstance(v, float):
        return f"float {v.hex()}"
    return repr(v)


def function(f: GridFunction) -> list:
    return [f.kind, [encode(v) for v in f.values]]


def random_function(kind: str, ambient, label: str) -> GridFunction:
    return RANDOM[kind](ambient, rng_for(42, f"kinds/{label}/{kind}/{ambient.p}/{ambient.d}"))


def eigen_pairs() -> dict:
    out = {}
    for p, d in ((2, 2), (3, 2), (2, 3), (3, 3)):
        ambient = Ambient(p, d)
        rng = rng_for(42, f"kinds/eigen/{p}/{d}")
        for V in all_subspaces(ambient):
            offsets = [ambient.origin(), random_point(ambient, rng), random_point(ambient, rng)]
            for x in offsets:
                pair = affine_eigenfunction_pair(V, x)
                out[f"{p},{d} {V.basis} {x}"] = {
                    "plus": function(pair.plus),
                    "minus": function(pair.minus),
                }
    return out


def expansion() -> dict:
    out = {}
    for p, d in ((2, 3), (3, 3)):
        ambient = Ambient(p, d)
        for kind in RANDOM:
            f = random_function(kind, ambient, "expand")
            out[f"{p},{d} {kind}"] = function(eigen_expand(f).evaluate())
    return out


def sums() -> dict:
    out = {}
    for p, d in ((2, 3), (3, 2), (5, 2)):
        ambient = Ambient(p, d)
        others = [random_function(kind, ambient, "convolve") for kind in RANDOM]
        for kind in RANDOM:
            zero = GridFunction(ambient, kind, [0] * ambient.size)
            for name, f in (("random", random_function(kind, ambient, "sums")), ("zero", zero)):
                out[f"{p},{d} {kind} {name}"] = {
                    "total": encode(f.total()),
                    "masses": [
                        [encode(m) for m in masses(f, line.rep)]
                        for line in enumerate_lines(ambient)
                    ],
                    "totals": [encode(m) for m in mass_table(f).totals()],
                    "wavelet_mass": {
                        form: [encode(w.mass) for w in decompose(f, form).parts]
                        for form in FORMS
                    },
                    "convolve": [function(convolve(f, g)) for g in others],
                }
    return out


def inverse_phi_pins() -> dict:
    ambient = Ambient(3, 2)
    line, other = ProjectiveLine((0, 1)), ProjectiveLine((1, 2))
    cases = {
        "float": (1.5, {line: 0.25, other: -2.5}),
        "fraction": (Fraction(1, 3), {line: Fraction(2, 3)}),
        "int": (2, {other: 1}),
        "cyclotomic": (0, {line: Cyclotomic(3, [1, 0])}),
    }
    return {name: function(inverse_phi(ambient, dc, seeds)) for name, (dc, seeds) in cases.items()}


SECTIONS = {
    "eigen_pairs": eigen_pairs,
    "expansion": expansion,
    "sums": sums,
    "inverse_phi": inverse_phi_pins,
}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_pinned_values_and_types_are_unchanged(section):
    expected = json.loads((GOLDEN / f"{section}.json").read_text())
    actual = SECTIONS[section]()
    assert actual.keys() == expected.keys()
    for key, value in actual.items():
        assert value == expected[key], key


# --- the number protocol -------------------------------------------------------

CONDUCTORS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]  # 2, 3, 5, 4, 8, 9


@st.composite
def cyclotomics(draw):
    p, ell = draw(st.sampled_from(CONDUCTORS))
    degree = p ** (ell - 1) * (p - 1)
    coeff = st.fractions(max_denominator=50, min_value=-100, max_value=100)
    return Cyclotomic(p, draw(st.lists(coeff, min_size=degree, max_size=degree)), ell)


@FIXED
@given(cyclotomics())
def test_complex_of_a_cyclotomic_is_its_embedding_bit_for_bit(z):
    w, e = complex(z), z.embed()
    assert type(w) is complex
    assert (w.real.hex(), w.imag.hex()) == (e.real.hex(), e.imag.hex())


def test_the_constructor_promotes_cyclotomic_values_to_complex():
    ambient = Ambient(3, 2)
    f = random_function("cyclotomic", ambient, "protocol")
    g = GridFunction(ambient, "complex", f.values)
    assert g.kind == "complex"
    assert g.values == f.to_complex().values
    assert g == f


def test_complex_values_are_never_promoted_to_cyclotomic():
    f = random_function("complex", Ambient(3, 2), "protocol")
    with pytest.raises(ValueError, match="cannot be promoted to cyclotomic"):
        f.to_cyclotomic()


def test_a_cyclotomic_factor_scales_complex_values_as_its_embedding():
    zeta = Cyclotomic.zeta(3)
    f = GridFunction(Ambient(3, 1), "complex", [1j, 2, 3])
    got, want = f.scale(zeta), f.scale(complex(zeta))
    assert got.kind == want.kind == "complex"
    assert [(v.real.hex(), v.imag.hex()) for v in got.values] == [
        (v.real.hex(), v.imag.hex()) for v in want.values
    ]


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    names = sys.argv[1:] or sorted(SECTIONS)
    for name in names:
        text = json.dumps(SECTIONS[name](), indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text)
