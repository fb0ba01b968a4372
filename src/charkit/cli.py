"""Command-line front end.

Subcommands: transform, bandwidth, decompose, tomography, eigen, variety,
zpl, verify.  JSON is the interchange format (``--format table`` renders a
plain-text view).  Exit codes: 0 ok, 1 usage, 2 data error, 3 a verified
identity failed (a genuine counterexample or a bug).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import fileio
from .bandwidth import bandwidth
from .eigen import eigen_expand, self_dual_classify
from .errors import (
    CapacityError,
    DataFormatError,
    HypothesisNotMet,
    TheoremViolation,
)
from .fourier import COMPLEX, GridFunction, forward, forward_naive, inverse
from .geometry import enumerate_lines, least_non_residue
from .multiscale import is_level_l_wavelet, multiscale_decompose, require_exact
from .scalars import DEFAULT_TOL
from .varieties import (
    classify_direction_paraboloid,
    sphere_count,
    two_circle_analysis,
    is_good,
)
from .verify import SUITE_ORDER, VerifyConfig, run_suites
from .wavelets import Decomposition, MassTable, decompose, mass_table, reconstruct_from_masses

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VIOLATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return tol


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process: parsing does not mutate it."""
    parser = _Parser(prog="charkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument(
            "--tolerance",
            type=_tolerance,
            default=DEFAULT_TOL,
            help=f"relative tolerance of the command's complex comparisons (default {DEFAULT_TOL})",
        )

    t = sub.add_parser("transform", help="Fourier transform of a function file")
    t.add_argument("--input", required=True)
    mode = t.add_mutually_exclusive_group()
    mode.add_argument("--inverse", action="store_true", help="input is a spectrum file")
    mode.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the axis-pass transform against the quadratic oracle",
    )
    common(t)

    b = sub.add_parser("bandwidth", help="line support and bandwidth report")
    b.add_argument("--input", required=True)
    common(b)

    d = sub.add_parser("decompose", help="wavelet decomposition of a function file")
    d.add_argument("--input", required=True)
    d.add_argument("--form", choices=("plain", "reduced", "massless"), default="reduced")
    common(d)

    tm = sub.add_parser("tomography", help="project to masses / reconstruct from them")
    tm.add_argument("action", choices=("project", "reconstruct"))
    tm.add_argument("--input", required=True)
    common(tm)

    e = sub.add_parser("eigen", help="self-dual classification and eigen-expansion")
    e.add_argument("--input", required=True)
    common(e)

    v = sub.add_parser("variety", help="cone/paraboloid/sphere analysis of a function")
    v.add_argument("--input", required=True)
    common(v)

    z = sub.add_parser("zpl", help="multi-scale analysis over Z_{p**l}")
    z.add_argument("--input", required=True)
    common(z)

    vf = sub.add_parser("verify", help="run verification suites")
    vf.add_argument("suite", choices=SUITE_ORDER + ("all",))
    vf.add_argument("--p", type=_positive_int)
    vf.add_argument("--d", type=_positive_int)
    vf.add_argument("--l", dest="ell", type=_positive_int)
    vf.add_argument("--seed", type=int, default=2024)
    vf.add_argument("--suite-size", type=_positive_int)
    common(vf)
    return parser


def _render_table(payload, indent: str = "") -> str:
    lines = []

    def walk(obj, prefix):
        if isinstance(obj, dict):
            for key in obj:
                val = obj[key]
                if isinstance(val, (dict, list)):
                    lines.append(f"{prefix}{key}:")
                    walk(val, prefix + "  ")
                else:
                    lines.append(f"{prefix}{key}: {val}")
        elif isinstance(obj, list):
            for val in obj:
                if isinstance(val, list) and not any(isinstance(v, (dict, list)) for v in val):
                    # one line keeps a complex value, a line or a point together
                    lines.append(f"{prefix}- [{', '.join(map(str, val))}]")
                elif isinstance(val, (dict, list)):
                    start = len(lines)
                    walk(val, prefix + "  ")
                    if len(lines) > start:  # "- " in its indent marks where the item starts
                        lines[start] = f"{prefix}- {lines[start][len(prefix) + 2:]}"
                else:
                    lines.append(f"{prefix}- {val}")
        else:
            lines.append(f"{prefix}{obj}")

    walk(payload, indent)
    return "\n".join(lines) + "\n"


def _emit(result, args, render_table=_render_table) -> None:
    """Write a command's result, a payload or a function, sinogram or
    decomposition (in the form of its file), as JSON or as a table."""
    if isinstance(result, GridFunction):
        dumps, payload = fileio.function_dumps, fileio.function_to_payload
    elif isinstance(result, MassTable):
        dumps, payload = fileio.sinogram_dumps, fileio.sinogram_to_payload
    elif isinstance(result, Decomposition):
        dumps, payload = fileio.decomposition_dumps, fileio.decomposition_to_payload
    else:
        dumps, payload = fileio.canonical_dumps, None
    if args.format == "table":
        text = render_table(payload(result) if payload else result)
    else:
        text = dumps(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_transform(args) -> int:
    if args.inverse:
        F = fileio.load_function(args.input)
        _emit(inverse(F), args)
        return EXIT_OK
    f = fileio.load_function(args.input)
    if args.oracle:
        fast = forward(f)
        slow = forward_naive(f)
        if f.kind == COMPLEX:
            ok = fast.isclose(slow, args.tolerance)
            verdict = "within tolerance" if ok else "MISMATCH"
        else:
            ok = fast == slow
            verdict = "exact" if ok else "MISMATCH"
        _emit({"match": verdict}, args)
        return EXIT_OK if ok else EXIT_VIOLATION
    _emit(forward(f), args)
    return EXIT_OK


def _cmd_bandwidth(args) -> int:
    f = fileio.load_function(args.input)
    _emit(fileio.bandwidth_report_payload(bandwidth(f, args.tolerance)), args)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    f = fileio.load_function(args.input)
    _emit(decompose(f, args.form, args.tolerance), args)
    return EXIT_OK


def _cmd_tomography(args) -> int:
    if args.action == "project":
        f = fileio.load_function(args.input)
        _emit(mass_table(f), args)
        return EXIT_OK
    table = fileio.load_sinogram(args.input)
    _emit(reconstruct_from_masses(table, args.tolerance), args)
    return EXIT_OK


def _cmd_eigen(args) -> int:
    f = fileio.load_function(args.input)
    payload = {}
    if f.is_indicator():
        res = self_dual_classify(f.ambient, f.support())
        payload["self_dual"] = {
            "kind": res.kind,
            "eigenvalue": fileio.format_rational(res.eigenvalue)
            if res.eigenvalue is not None
            else None,
        }
    else:
        payload["self_dual"] = None
    expansion = eigen_expand(f, args.tolerance)
    reconstructed = expansion.evaluate()
    exact = reconstructed == f
    close = exact or reconstructed.isclose(f, args.tolerance)
    payload["expansion"] = {
        "terms": len(expansion.terms),
        "reconstruction": "exact" if exact else ("close" if close else "FAILED"),
    }
    _emit(payload, args)
    return EXIT_OK if close else EXIT_VIOLATION


def _cmd_variety(args) -> int:
    f = fileio.load_function(args.input)
    ambient = f.ambient
    good = is_good(f, args.tolerance)  # rejects ring grids before any line is read
    types = {"covered": 0, "type1": 0, "type2": 0}
    for line in enumerate_lines(ambient):
        types[classify_direction_paraboloid(ambient, line.rep)] += 1
    payload = {
        "good": good,
        "direction_types": types,
        "sphere_counts": {
            str(r): sphere_count(ambient.p, ambient.d, r) for r in range(ambient.p)
        },
    }
    if ambient.d == 2 and ambient.p > 2:
        try:
            res = two_circle_analysis(f, 1, least_non_residue(ambient.p), args.tolerance)
            payload["two_circle"] = {
                "kind": res.kind,
                "direction": list(res.direction) if res.direction else None,
            }
        except HypothesisNotMet:
            payload["two_circle"] = {"kind": "hypothesis_not_met"}
    _emit(payload, args)
    return EXIT_OK


def _cmd_zpl(args) -> int:
    f = fileio.load_function(args.input)
    require_exact(f)  # reject complex input before the transform
    F = forward(f)
    wavelet = is_level_l_wavelet(f, F)
    parts = multiscale_decompose(F)
    acc = None
    for part in parts:
        acc = part.function if acc is None else acc + part.function
    payload = {
        "top_level_wavelet": {
            "is_wavelet": wavelet.is_wavelet,
            "is_constant": wavelet.is_constant,
            "generator": list(wavelet.generator) if wavelet.generator else None,
            "level": wavelet.level,
        },
        "multiscale": {
            "parts": len(parts),
            "levels": [part.level for part in parts],
            "reconstruction": "exact" if acc == f else "FAILED",
        },
    }
    _emit(payload, args)
    return EXIT_OK if acc == f else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    config = VerifyConfig(
        seed=args.seed,
        suite_size=args.suite_size,
        p=args.p,
        d=args.d,
        ell=args.ell,
        tolerance=args.tolerance,
    )
    results = run_suites([args.suite], config)
    payload = {
        "seed": args.seed,
        "suites": [
            {
                "suite": r.suite,
                "passed": r.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in r.checks
                ],
                "counterexamples": r.counterexamples,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _emit(payload, args, _verify_table)
    refused = [r for r in results if r.refused]
    for r in refused:
        print(f"data error: verify {r.suite}: {r.refused}", file=sys.stderr)
    if any(not r.passed and not r.refused for r in results):
        return EXIT_VIOLATION
    return EXIT_DATA if refused else EXIT_OK


def _verify_table(payload) -> str:
    """One PASS/FAIL line per check, then the suite's counterexamples."""
    lines = []
    for r in payload["suites"]:
        for c in r["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            detail = f"  [{c['detail']}]" if c["detail"] else ""
            lines.append(f"{mark} {r['suite']}: {c['name']}{detail}")
        for ce in r["counterexamples"]:
            lines.append(f"  counterexample: {ce}")
    return "\n".join(lines) + "\n"


_DISPATCH = {
    "transform": _cmd_transform,
    "bandwidth": _cmd_bandwidth,
    "decompose": _cmd_decompose,
    "tomography": _cmd_tomography,
    "eigen": _cmd_eigen,
    "variety": _cmd_variety,
    "zpl": _cmd_zpl,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except TheoremViolation as exc:
        print(f"identity violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (DataFormatError, HypothesisNotMet, CapacityError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
