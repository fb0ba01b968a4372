"""Byte-identity of CLI outputs against files written before the ring
lines and hyperplanes moved into ``geometry``.

``golden/verify_all_seed42.out.json`` is the report of ``charkit verify all
--seed 42``.  ``golden/ring/<name>.json`` are function files on Z_4^2,
Z_4^3, Z_8^2, Z_9^2 and Z_25 (random rational values, the indicator of a
hyperplane whose direction has positive valuation, a sparse spectrum
weighted towards frequencies of positive valuation, and on Z_4^2 also a
random cyclotomic function and a modulated wavelet on an affine line), and
``<name>.zpl.out.json`` and ``<name>.transform.out.json`` are what ``charkit
zpl`` and ``charkit transform`` printed for them.  The larger grids Z_9^3
and Z_25^2 (random rational values, and a rational function whose sparse
spectrum is constant on unit orbits) were written before each multi-scale
part was built on its own line, and pin ``zpl`` only: their transforms
would add 0.7 MB of goldens.

``golden/tomography/<name>.json`` are sinograms written by ``charkit
tomography project`` of random functions with mixed denominators: rational
ones on (3,2), (5,3) and (2,6), a cyclotomic one on (5,2), and a rational
one on (3,3) promoted to cyclotomic values, so that its masses are
cyclotomic objects with rational values.  ``<name>.reconstruct.out.json`` is
what ``charkit tomography reconstruct`` printed for them (the last one as
``"kind": "rational"``) before the reconstruction became a back-projection.

``golden/complex/<name>.json`` are complex function files on (7,3), (2,8),
(3,5) and (2,3): a random one (every value nonzero) and a sparse one (30%
of the values nonzero), real and imaginary parts uniform in [-1, 1].  Their
``.transform``, ``.bandwidth``, ``.decompose`` and ``.project`` outputs are
what ``charkit transform``, ``bandwidth``, ``decompose`` and ``tomography
project`` printed for them, and ``.inverse`` is what ``charkit transform
--inverse`` printed for the ``.transform`` output, all written before the
complex transform became a block pass like the exact lattice kernel.  No
other golden covers a floating output, so these pin its bits.  Their
``.eigen`` and ``.variety`` outputs, and ``.reconstruct``, what ``charkit
tomography reconstruct`` printed for the ``.project`` output, were written
before every floating comparison became relative to the largest value it
compares; the smallest nonzero spectrum value of these files is 4.3e-4, so
the change of rule moves no byte.

The complex files' ``.decompose-plain`` and ``.decompose-massless``
outputs are what ``charkit decompose --form plain|massless`` printed for
them before decomposition files were written from lattice rows;
``.decompose`` pins the default, reduced form.

``golden/flat/<name>.json`` are functions of bandwidth 0 (``"parts": []``
in every decomposition): the zero function and a constant one of each
kind, rational on (3,2), cyclotomic on (5,2) (the constant is not
rational) and complex on (3,3).  Their ``.decompose-<form>`` (every form)
and ``.project`` outputs are what ``charkit decompose --form <form>`` and
``tomography project`` printed for them, and ``.reconstruct`` what
``charkit tomography reconstruct`` printed for the ``.project`` output,
all written before sinograms and decompositions were written from lattice
rows.

``golden/exact/<kind>_<p>_<d>.json`` are exact function files on (2,8),
(3,5) and (7,3), grids with many lines: ``rational`` and ``cyclotomic`` are
``random_rational_function`` and ``random_cyclotomic_function`` drawn from
``rng_for(42, "exact-golden/<kind>/<p>/<d>")``, and ``banded`` is the
``inverse_phi`` of a random average and one random nonzero seed on about 30% of
the lines, so its bandwidth report has active and vanishing lines.  Their
``.bandwidth``, ``.decompose-<form>`` (every form) and ``.project`` outputs
are what ``charkit bandwidth``, ``decompose --form <form>`` and
``tomography project`` printed for them, and ``.reconstruct`` is what
``charkit tomography reconstruct`` printed for the ``.project`` output, all
written before the line indices and the hyperplane labels x.s moved into
``geometry``.  Their ``.transform`` output is what ``charkit transform``
printed for them, and ``.inverse`` what ``charkit transform --inverse``
printed for the ``.transform`` output, both written before the lattice
format moved into one encoder and one decoder in ``fourier``.  Together
they pin both rules of the decoder: a spectrum stays cyclotomic even where
its values are rational (every spectrum on (2,8)), and an inverse comes
back rational exactly when every coordinate above degree zero cancels (the
``cyclotomic_2_8`` file, whose values are rational, comes back rational;
``cyclotomic_3_5`` and ``cyclotomic_7_3`` stay cyclotomic).
"""

import contextlib
import io
from pathlib import Path

import pytest

from charkit import cli
from charkit.wavelets import FORMS

GOLDEN = Path(__file__).parent / "golden"
RING_INPUTS = sorted(
    p for p in (GOLDEN / "ring").glob("*.json") if not p.name.endswith(".out.json")
)
RING_CASES = [
    (path, command)
    for path in RING_INPUTS
    for command in ("zpl", "transform")
    if path.with_name(f"{path.stem}.{command}.out.json").exists()
]


TOMOGRAPHY_INPUTS = sorted(
    p for p in (GOLDEN / "tomography").glob("*.json") if not p.name.endswith(".out.json")
)


COMPLEX_INPUTS = sorted(
    p for p in (GOLDEN / "complex").glob("*.json") if not p.name.endswith(".out.json")
)
COMPLEX_COMMANDS = {
    "transform": ("transform",),
    "bandwidth": ("bandwidth",),
    "decompose": ("decompose",),
    "decompose-plain": ("decompose", "--form", "plain"),
    "decompose-massless": ("decompose", "--form", "massless"),
    "project": ("tomography", "project"),
    "inverse": ("transform", "--inverse"),
    "eigen": ("eigen",),
    "variety": ("variety",),
    "reconstruct": ("tomography", "reconstruct"),
}
# The outputs whose input is another pinned output, not the function file.
COMPLEX_SOURCES = {"inverse": "transform", "reconstruct": "project"}
COMPLEX_CASES = [(path, name) for path in COMPLEX_INPUTS for name in COMPLEX_COMMANDS]


EXACT_INPUTS = sorted(
    p for p in (GOLDEN / "exact").glob("*.json") if not p.name.endswith(".out.json")
)
EXACT_COMMANDS = {
    "transform": ("transform",),
    "inverse": ("transform", "--inverse"),
    "bandwidth": ("bandwidth",),
    **{f"decompose-{form}": ("decompose", "--form", form) for form in FORMS},
    "project": ("tomography", "project"),
    "reconstruct": ("tomography", "reconstruct"),
}
# The outputs whose input is another pinned output, not the function file.
EXACT_SOURCES = {"inverse": "transform", "reconstruct": "project"}
EXACT_CASES = [(path, name) for path in EXACT_INPUTS for name in EXACT_COMMANDS]


FLAT_INPUTS = sorted(
    p for p in (GOLDEN / "flat").glob("*.json") if not p.name.endswith(".out.json")
)
FLAT_COMMANDS = {
    **{f"decompose-{form}": ("decompose", "--form", form) for form in FORMS},
    "project": ("tomography", "project"),
    "reconstruct": ("tomography", "reconstruct"),
}
FLAT_CASES = [(path, name) for path in FLAT_INPUTS for name in FLAT_COMMANDS]


def cli_stdout(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def test_ring_goldens_present():
    assert len(RING_INPUTS) == 21
    commands = [command for _, command in RING_CASES]
    assert commands.count("zpl") == 21 and commands.count("transform") == 17


def test_tomography_goldens_present():
    assert [p.stem for p in TOMOGRAPHY_INPUTS] == [
        "cyclotomic_5_2",
        "rational_2_6",
        "rational_3_2",
        "rational_5_3",
        "rational_as_cyclotomic_3_3",
    ]
    assert all(p.with_name(f"{p.stem}.reconstruct.out.json").exists() for p in TOMOGRAPHY_INPUTS)


def test_complex_goldens_present():
    assert [p.stem for p in COMPLEX_INPUTS] == [
        f"{name}_{p}_{d}"
        for name in ("random", "sparse")
        for p, d in ((2, 3), (2, 8), (3, 5), (7, 3))
    ]
    assert all(
        path.with_name(f"{path.stem}.{name}.out.json").exists() for path, name in COMPLEX_CASES
    )


def test_exact_goldens_present():
    assert [p.stem for p in EXACT_INPUTS] == [
        f"{name}_{p}_{d}"
        for name in ("banded", "cyclotomic", "rational")
        for p, d in ((2, 8), (3, 5), (7, 3))
    ]
    assert all(
        path.with_name(f"{path.stem}.{name}.out.json").exists() for path, name in EXACT_CASES
    )


def test_flat_goldens_present():
    assert [p.stem for p in FLAT_INPUTS] == [
        f"{name}_{kind}_{grid}"
        for name in ("constant", "zero")
        for kind, grid in (("complex", "3_3"), ("cyclotomic", "5_2"), ("rational", "3_2"))
    ]
    assert all(
        path.with_name(f"{path.stem}.{name}.out.json").exists() for path, name in FLAT_CASES
    )


def test_verify_all_seed_42_is_byte_identical():
    want = (GOLDEN / "verify_all_seed42.out.json").read_text()
    assert cli_stdout("verify", "all", "--seed", "42") == want


@pytest.mark.parametrize(
    "path,command", RING_CASES, ids=[f"{path.stem}-{command}" for path, command in RING_CASES]
)
def test_ring_outputs_are_byte_identical(path, command):
    want = path.with_name(f"{path.stem}.{command}.out.json").read_text()
    assert cli_stdout(command, "--input", str(path)) == want


@pytest.mark.parametrize("path", TOMOGRAPHY_INPUTS, ids=[p.stem for p in TOMOGRAPHY_INPUTS])
def test_tomography_reconstruct_is_byte_identical(path):
    want = path.with_name(f"{path.stem}.reconstruct.out.json").read_text()
    assert cli_stdout("tomography", "reconstruct", "--input", str(path)) == want


@pytest.mark.parametrize(
    "path,name", COMPLEX_CASES, ids=[f"{path.stem}-{name}" for path, name in COMPLEX_CASES]
)
def test_complex_outputs_are_byte_identical(path, name):
    """``inverse`` and ``reconstruct`` read a pinned output, so each is
    pinned on its own."""
    source = path
    if name in COMPLEX_SOURCES:
        source = path.with_name(f"{path.stem}.{COMPLEX_SOURCES[name]}.out.json")
    want = path.with_name(f"{path.stem}.{name}.out.json").read_text()
    assert cli_stdout(*COMPLEX_COMMANDS[name], "--input", str(source)) == want


@pytest.mark.parametrize(
    "path,name", EXACT_CASES, ids=[f"{path.stem}-{name}" for path, name in EXACT_CASES]
)
def test_exact_outputs_are_byte_identical(path, name):
    """``inverse`` and ``reconstruct`` read a pinned output, so each is
    pinned on its own."""
    source = path
    if name in EXACT_SOURCES:
        source = path.with_name(f"{path.stem}.{EXACT_SOURCES[name]}.out.json")
    want = path.with_name(f"{path.stem}.{name}.out.json").read_text()
    assert cli_stdout(*EXACT_COMMANDS[name], "--input", str(source)) == want


@pytest.mark.parametrize(
    "path,name", FLAT_CASES, ids=[f"{path.stem}-{name}" for path, name in FLAT_CASES]
)
def test_flat_outputs_are_byte_identical(path, name):
    """``reconstruct`` reads the pinned ``project`` output."""
    source = path.with_name(f"{path.stem}.project.out.json") if name == "reconstruct" else path
    want = path.with_name(f"{path.stem}.{name}.out.json").read_text()
    assert cli_stdout(*FLAT_COMMANDS[name], "--input", str(source)) == want
