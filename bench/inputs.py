"""Seeded workload inputs: function, spectrum and sinogram files plus the
fixed request list of one pass.

Everything here is the benchmark's own code.  Nothing imports charkit, so
a change to the program cannot change the workload it is measured on.
Each input draws from its own stream ``random.Random("<seed>/<workload>/
<label>")``; string seeds hash with SHA-512, so the files are the same for
one seed on every machine and under every PYTHONHASHSEED.

Why the workloads look the way they do: the cost of charkit's two
candidate optimisations depends on how many lines a grid has compared
with its points.  The exact transform kernel costs O(N * d * q * phi) per
call; the hyperplane-mass rescans cost O(lines * N * d).  ``few-lines``
uses large p and small d, where the kernel dominates and the rescans are
cheap; ``many-lines`` uses p in {2, 3} and large d, where the rescans
dominate.  ``verify`` runs every verification suite, which makes thousands
of tiny transforms and touches every module.  It runs each suite at a
quarter of its default size, cut into requests of a quarter second or
less, so that a run holds many passes and each request many timings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import exact

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
COMPLEX = "complex"

# The suites of ``charkit verify``, in its order; kept here because this
# module must not import charkit.
SUITE_ORDER = (
    "galois",
    "wavelet",
    "tomography",
    "equidist",
    "uncertainty",
    "dichotomy",
    "paraboloid",
    "spheres",
    "selfdual",
    "eigen",
    "zpl",
)

# (p, d, ell, source, commands).  Sources: a function of the given scalar
# kind, "spectrum" (a random cyclotomic spectrum, for ``transform
# --inverse``) and "sinogram" (the masses of a random rational function,
# for ``tomography reconstruct``).  Ring grids (ell > 1) get the commands
# defined on them, transform and zpl, on rational functions and spectra.
FEW_LINES = (
    (7, 3, 1, RATIONAL, ("transform", "bandwidth", "project")),
    (7, 3, 1, CYCLOTOMIC, ("transform", "bandwidth")),
    (7, 3, 1, COMPLEX, ("transform", "bandwidth", "decompose")),
    (7, 3, 1, "spectrum", ("inverse",)),
    (7, 3, 1, "sinogram", ("reconstruct",)),
    (11, 2, 1, RATIONAL, ("transform", "bandwidth", "project", "decompose")),
    (11, 2, 1, CYCLOTOMIC, ("transform", "bandwidth", "decompose")),
    (11, 2, 1, COMPLEX, ("transform", "bandwidth", "project")),
    (11, 2, 1, "spectrum", ("inverse",)),
    (11, 2, 1, "sinogram", ("reconstruct",)),
    (13, 2, 1, RATIONAL, ("transform", "bandwidth", "project", "decompose")),
    (13, 2, 1, CYCLOTOMIC, ("transform", "bandwidth")),
    (13, 2, 1, COMPLEX, ("transform", "bandwidth", "decompose")),
    (13, 2, 1, "spectrum", ("inverse",)),
    (13, 2, 1, "sinogram", ("reconstruct",)),
    (5, 3, 1, RATIONAL, ("transform", "bandwidth", "decompose")),
    (5, 3, 1, CYCLOTOMIC, ("transform", "bandwidth")),
    (5, 3, 1, COMPLEX, ("transform", "project")),
    (5, 3, 1, "spectrum", ("inverse",)),
    (5, 3, 1, "sinogram", ("reconstruct",)),
    (3, 2, 2, RATIONAL, ("transform", "zpl")),
    (3, 2, 2, "spectrum", ("inverse",)),
    (5, 1, 2, RATIONAL, ("transform", "zpl")),
    (5, 1, 2, "spectrum", ("inverse",)),
    (2, 2, 3, RATIONAL, ("transform", "zpl")),
    (2, 2, 3, "spectrum", ("inverse",)),
)

MANY_LINES = (
    (2, 10, 1, RATIONAL, ("transform", "bandwidth")),
    (2, 10, 1, COMPLEX, ("transform", "bandwidth", "project")),
    (2, 10, 1, "spectrum", ("inverse",)),
    (2, 10, 1, "sinogram", ("reconstruct",)),
    (3, 6, 1, RATIONAL, ("transform", "bandwidth", "decompose")),
    (3, 6, 1, COMPLEX, ("transform", "bandwidth", "decompose")),
    (3, 6, 1, "spectrum", ("inverse",)),
    (3, 6, 1, "sinogram", ("reconstruct",)),
    (2, 8, 1, RATIONAL, ("transform", "bandwidth", "project", "decompose")),
    (2, 8, 1, "spectrum", ("inverse",)),
    (2, 8, 1, "sinogram", ("reconstruct",)),
    (3, 5, 1, RATIONAL, ("transform", "bandwidth", "project", "decompose")),
    (3, 5, 1, "spectrum", ("inverse",)),
    (3, 5, 1, "sinogram", ("reconstruct",)),
    (3, 4, 1, CYCLOTOMIC, ("transform", "bandwidth", "project", "decompose")),
    # zpl on Z_4^4 (about 1.5 s, 135 inverse transforms) would double the
    # pass and make fourier, not the rescans, the larger share; zpl runs
    # on Z_4^3 here and in the verify suite.
    (2, 4, 2, RATIONAL, ("transform",)),
    (2, 4, 2, "spectrum", ("inverse",)),
    (2, 3, 2, RATIONAL, ("transform", "zpl")),
    (2, 3, 2, "spectrum", ("inverse",)),
)

# (suite, --suite-size, chunks): one pass of ``verify`` runs each suite
# as ``chunks`` requests with seeds of their own, about a quarter of the
# suite's default item count in all.  A size of None runs the suite whole:
# those suites are exhaustive or small and take no size (eigen's size sets
# only its affine pairs).
VERIFY_PLAN = (
    ("galois", 12, 4),
    ("wavelet", None, 1),
    ("tomography", 12, 2),
    ("equidist", 31, 4),
    ("uncertainty", 125, 2),
    ("dichotomy", None, 1),
    ("paraboloid", 4, 6),
    ("spheres", None, 1),
    ("selfdual", None, 1),
    ("eigen", None, 1),
    ("zpl", 12, 2),
)
VERIFY_CHUNK_SEEDS = 100

GRID_WORKLOADS = {"few-lines": FEW_LINES, "many-lines": MANY_LINES}
WORKLOADS = ("few-lines", "many-lines", "verify")

_ARGV = {
    "transform": ["transform"],
    "inverse": ["transform", "--inverse"],
    "bandwidth": ["bandwidth"],
    "project": ["tomography", "project"],
    "reconstruct": ["tomography", "reconstruct"],
    "decompose": ["decompose"],
    "zpl": ["zpl"],
}


@dataclass
class GridInput:
    """One generated file.  ``values`` holds Fractions (rational), int
    coefficient tuples (cyclotomic and spectrum) or complex numbers; a
    sinogram keeps the function it was projected from in ``values``."""

    name: str
    p: int
    d: int
    ell: int
    kind: str
    values: list
    path: Path | None = None

    @property
    def q(self) -> int:
        return self.p ** self.ell

    @property
    def size(self) -> int:
        return self.q ** self.d


@dataclass
class Request:
    rid: int
    command: str
    argv: list
    inp: GridInput | None = None
    extra: dict = field(default_factory=dict)


# --- generator ----------------------------------------------------------------


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def generate(seed: int, workload: str, p: int, d: int, ell: int, source: str) -> GridInput:
    label = f"{p},{d},{ell}/{source}"
    rng = random.Random(f"{seed}/{workload}/{label}")
    q = p ** ell
    n = q ** d
    phi = exact.degree(p, ell)
    if source in (RATIONAL, "sinogram"):
        values = [_rational(rng) for _ in range(n)]
    elif source in (CYCLOTOMIC, "spectrum"):
        values = [tuple(rng.randint(-3, 3) for _ in range(phi)) for _ in range(n)]
    else:
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    kind = {"spectrum": CYCLOTOMIC, "sinogram": RATIONAL}.get(source, source)
    name = f"{source}_p{p}_d{d}_l{ell}"
    return GridInput(name, p, d, ell, kind, values)


# --- writer -------------------------------------------------------------------


def rational_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def scalar_payload(inp: GridInput, v):
    if inp.kind == RATIONAL:
        return rational_text(v)
    if inp.kind == CYCLOTOMIC:
        out = {"p": inp.p, "coeffs": [str(c) for c in v]}
        if inp.ell != 1:
            out["ell"] = inp.ell
        return out
    return [v.real, v.imag]


def function_payload(inp: GridInput) -> dict:
    payload = {
        "p": inp.p,
        "d": inp.d,
        "kind": inp.kind,
        "values": [scalar_payload(inp, v) for v in inp.values],
    }
    if inp.ell != 1:
        payload["modulus_exponent"] = inp.ell
    return payload


def mass_table(inp: GridInput) -> dict:
    """Direct-scan masses of a rational function, one row per canonical line."""
    den, ints = exact.common_scale([(v,) for v in inp.values])
    flat = [v[0] for v in ints]
    return {
        s: [Fraction(m, den) for m in exact.mass_row(flat, exact.dots(inp.p, inp.d, s), inp.p, 0)]
        for s in exact.lines(inp.p, inp.d)
    }


def sinogram_payload(inp: GridInput) -> dict:
    return {
        "p": inp.p,
        "d": inp.d,
        "masses": [
            {"s": list(s), "m": [rational_text(m) for m in ms]}
            for s, ms in mass_table(inp).items()
        ],
    }


def write(inp: GridInput, source: str, workdir: Path) -> None:
    inp.path = workdir / f"{inp.name}.json"
    payload = sinogram_payload(inp) if source == "sinogram" else function_payload(inp)
    inp.path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


# --- request lists --------------------------------------------------------------


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the inputs of one workload and return the requests of one pass."""
    if workload == "verify":
        requests = []
        for suite, size, chunks in VERIFY_PLAN:
            for k in range(chunks):
                chunk_seed = seed * VERIFY_CHUNK_SEEDS + k
                argv = ["verify", suite, "--seed", str(chunk_seed)]
                if size is not None:
                    argv += ["--suite-size", str(size)]
                requests.append(Request(len(requests), "verify", argv,
                                        extra={"suite": suite, "seed": chunk_seed}))
        return requests
    requests = []
    for p, d, ell, source, commands in GRID_WORKLOADS[workload]:
        inp = generate(seed, workload, p, d, ell, source)
        write(inp, source, workdir)
        for command in commands:
            argv = _ARGV[command] + ["--input", str(inp.path)]
            requests.append(Request(len(requests), command, argv, inp))
    return requests
