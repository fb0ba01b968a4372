"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance (exact equality unless noted)
on seeded corpora, mostly through the same verification suites the CLI
``verify`` command exposes.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import time

from charkit.corpus import random_rational_function, rng_for
from charkit.fourier import forward, forward_naive, inverse
from charkit.geometry import Ambient
from charkit.verify import VerifyConfig, run_suites

SEED = 20240
CONFIG = VerifyConfig(seed=SEED)


def _report(number, description, ok, started):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number:2d}: {status}  ({elapsed:5.1f}s)  {description}")
    assert ok, f"criterion {number} failed: {description}"


def _suite_ok(name):
    [result] = run_suites([name], CONFIG)
    if not result.passed:
        for check in result.checks:
            if not check.passed:
                print(f"  failed check: {check.name}  [{check.detail}]")
        for ce in result.counterexamples:
            print(f"  counterexample: {ce}")
    return result.passed


def test_criterion_01_worked_example_decomposition():
    t = time.time()
    _report(
        1,
        "staircase sets at p in {3,5,7}: cbw 3, lines (0,1),(1,0),(1,1), "
        "reduced decomposition equals the closed form exactly",
        _suite_ok("wavelet"),
        t,
    )


def test_criterion_02_transform_round_trip_and_oracle():
    t = time.time()
    grid = [(p, d) for p in (2, 3, 5) for d in (1, 2, 3)]
    ok = True
    for i in range(300):
        p, d = grid[i % len(grid)]
        f = random_rational_function(Ambient(p, d), rng_for(SEED, f"accept2/{i}"))
        if inverse(forward(f)) != f:
            ok = False
            break
        if i < 100 and forward(f).values != forward_naive(f).values:
            ok = False
            break
    _report(
        2,
        "inverse(forward(f)) = f on 300 seeded rational functions, "
        "axis-pass = naive oracle on 100 of them, exact",
        ok,
        t,
    )


def test_criterion_03_galois_equivariance():
    t = time.time()
    _report(
        3,
        "F(r*m) = automorphism_r(F(m)) for all nonzero m and r on 200 seeded "
        "functions, p in {3,5,7}, d = 2, exact",
        _suite_ok("galois"),
        t,
    )


def test_criterion_04_tomography():
    t = time.time()
    _report(
        4,
        "project-then-reconstruct identity on 100 seeded functions and the "
        "worked example; every single-entry corruption rejected",
        _suite_ok("tomography"),
        t,
    )


def test_criterion_05_uncertainty_inequality():
    t = time.time()
    _report(
        5,
        "((p-1)cbw+1)|E| >= p**d for all nonempty E at (2,2) and (2,3), "
        "and 1000 seeded E at (3,3), zero violations",
        _suite_ok("uncertainty"),
        t,
    )


def test_criterion_06_dichotomy():
    t = time.time()
    _report(
        6,
        "every subset of Z2^2 and Z2^3 is a union of parallel lines or has "
        "cbw > d; classifier never hits its violation branch",
        _suite_ok("dichotomy"),
        t,
    )


def test_criterion_07_equidistribution_biconditional():
    t = time.time()
    _report(
        7,
        "masses equal iff punctured-subspace vanishing on 500 seeded (f, V) "
        "pairs, p in {2,3,5}, d <= 3; indicator sizes divisible by p**k",
        _suite_ok("equidist"),
        t,
    )


def test_criterion_08_self_dual_classification():
    t = time.time()
    _report(
        8,
        "exhaustive self-dual classification: (2,2) gives empty and the "
        "isotropic line (eigenvalue 1/2); (3,2) and (2,3) give only empty",
        _suite_ok("selfdual"),
        t,
    )


def test_criterion_09_eigenfunctions():
    t = time.time()
    _report(
        9,
        "plus/minus eigen identities for every subspace at (2,2),(3,2),(2,3) "
        "and 20 random affine pairs, exact on the rational path, else < 1e-9",
        _suite_ok("eigen"),
        t,
    )


def test_criterion_10_paraboloid_theorem():
    t = time.time()
    _report(
        10,
        "100 constructed functions at (5,3) with off-paraboloid spectra: "
        "every slice difference is good, exact",
        _suite_ok("paraboloid"),
        t,
    )


def test_criterion_11_sphere_results():
    t = time.time()
    _report(
        11,
        "nonzero-radius spheres equinumerous at p in {3,5}, d = 2 (measured, "
        "not asserted from any formula); constructed functions equidistribute "
        "about 5 random centers; p = 5 indicators classify as L+/L- unions",
        _suite_ok("spheres"),
        t,
    )


def test_criterion_12_prime_power_modulus():
    t = time.time()
    _report(
        12,
        "(2,2,2): unit count 2, hyperplane sizes p**(l(d-1)+v) for all 15 "
        "nonzero v, line sizes p**(l-v), multiscale round-trips 100 functions",
        _suite_ok("zpl"),
        t,
    )
