"""Verification suites: every structural statement the library implements,
exercised exhaustively at desk scale or on seeded random corpora.

Each suite returns a SuiteResult with one named check per statement and a
counterexample dump on failure; a suite that raises TheoremViolation is
reported as one failing check, and the other suites still run.  The CLI
``verify`` command renders the results and exits nonzero when anything
fails.  Identical (seed, options) always produce identical results: work
items run in order, one after another.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .bandwidth import (
    bandwidth,
    classify_small_cbw_set,
    equidistribution_check,
    inverse_phi,
    uncertainty_check,
)
from .corpus import (
    random_indicator,
    random_point,
    random_rational_function,
    random_subset,
    random_subspace,
    rng_for,
    staircase_function,
)
from .eigen import (
    affine_eigenfunction_pair,
    eigen_residuals,
    eigenfunction_pair,
    self_dual_classify,
)
from .errors import SinogramError, TheoremViolation
from .fourier import GridFunction, forward
from .geometry import (
    Ambient,
    ProjectiveLine,
    all_subspaces,
    enumerate_lines,
    hyperplane_points,
    line_through,
    valuation,
    vector_valuation,
    vscale,
)
from .multiscale import multiscale_decompose, unit_count
from .scalars import DEFAULT_TOL
from .varieties import (
    classify_direction_paraboloid,
    check_paraboloid_theorem,
    sphere_count,
    sphere_equidistribution_check,
    two_circle_analysis,
)
from .wavelets import decompose, mass_table, reconstruct_from_masses

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


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 2024
    suite_size: int | None = None
    p: int | None = None
    d: int | None = None
    ell: int | None = None
    tolerance: float = DEFAULT_TOL


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and not self.counterexamples

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))


def _grid_cycle(config: VerifyConfig, ps, ds, count: int) -> list:
    """``count`` grids cycling through ps x ds; a requested p or d replaces either."""
    ps = (config.p,) if config.p else ps
    ds = (config.d,) if config.d else ds
    combos = [(p, d) for p in ps for d in ds]
    return [combos[i % len(combos)] for i in range(count)]


# --- suites -----------------------------------------------------------------


def run_galois(config: VerifyConfig) -> SuiteResult:
    """F(r*m) equals the r-th automorphism of F(m) for rational inputs."""
    res = SuiteResult("galois")
    count = config.suite_size or 200
    ps = (config.p,) if config.p else (3, 5, 7)
    d = config.d or 2
    jobs = list(enumerate(_grid_cycle(config, ps, (d,), count)))

    def one(job):
        i, (p, d) = job
        rng = rng_for(config.seed, f"galois/{i}")
        ambient = Ambient(p, d)
        f = random_rational_function(ambient, rng)
        F = forward(f)
        for line in enumerate_lines(ambient):
            for t in range(1, p):
                base = F.values[ambient.index_of(vscale(t, line.rep, p))]
                for r in range(1, p):
                    got = F.values[ambient.index_of(vscale(r * t, line.rep, p))]
                    if got != base.galois(r):
                        return f"m={vscale(t, line.rep, p)}, r={r}"
        return None

    failures = [msg for msg in map(one, jobs) if msg]
    res.check(
        f"equivariance on {count} functions, p in {ps}, d={d}",
        not failures,
        failures[0] if failures else "exact",
    )
    res.counterexamples.extend(failures)
    return res


def run_wavelet(config: VerifyConfig) -> SuiteResult:
    """The sharp planar staircase example and its closed-form reduced parts."""
    res = SuiteResult("wavelet")
    ps = (config.p,) if config.p else (3, 5, 7)
    for p in ps:
        ambient = Ambient(p, 2)
        f = staircase_function(p)
        rep = bandwidth(f)
        want_lines = (
            ProjectiveLine((0, 1)),
            ProjectiveLine((1, 0)),
            ProjectiveLine((1, 1)),
        )
        res.check(f"p={p}: cbw = 3", rep.cbw == 3, f"cbw={rep.cbw}")
        res.check(
            f"p={p}: active lines (0,1),(1,0),(1,1)",
            rep.lines == want_lines,
            str([l.rep for l in rep.lines]),
        )
        dec = decompose(f, "reduced")
        expected = {
            (0, 1): tuple(Fraction(i, p) for i in range(p)),
            (1, 0): tuple(Fraction(i, p) for i in range(p)),
            (1, 1): tuple(Fraction(-i, p) for i in range(p)),
        }
        got = {w.direction.rep: w.coeffs for w in dec.parts}
        res.check(
            f"p={p}: reduced parts match the closed form",
            got == expected and dec.constant == 0,
            f"constant={dec.constant}",
        )
        res.check(
            f"p={p}: reduced decomposition re-evaluates to the set",
            dec.evaluate() == f,
        )
    return res


def run_tomography(config: VerifyConfig) -> SuiteResult:
    """Project-then-reconstruct is the identity; corrupt sinograms are rejected."""
    res = SuiteResult("tomography")
    count = config.suite_size or 100
    jobs = list(enumerate(_grid_cycle(config, (2, 3, 5), (1, 2, 3), count)))

    def one(job):
        i, (p, d) = job
        rng = rng_for(config.seed, f"tomography/{i}")
        ambient = Ambient(p, d)
        f = random_rational_function(ambient, rng)
        if reconstruct_from_masses(mass_table(f)) != f:
            return f"round trip failed at p={p}, d={d}"
        return None

    failures = [m for m in map(one, jobs) if m]
    res.check(f"exact round trip on {count} functions", not failures,
              failures[0] if failures else "exact")
    res.counterexamples.extend(failures)

    p = config.p or 3
    f = staircase_function(p)
    table = mass_table(f)
    res.check(
        f"staircase example round trips (p={p})",
        reconstruct_from_masses(table) == f,
    )
    bad = 0
    tried = 0
    for i, (line, ms) in enumerate(table.rows):
        for t in range(p):
            tried += 1
            rows = list(table.rows)
            corrupted = list(ms)
            corrupted[t] = corrupted[t] + 1
            rows[i] = (line, tuple(corrupted))
            try:
                reconstruct_from_masses(type(table)(table.ambient, tuple(rows)))
            except SinogramError:
                bad += 1
    res.check(
        "every single-entry corruption is rejected",
        bad == tried,
        f"{bad}/{tried} rejected",
    )
    return res


def run_equidist(config: VerifyConfig) -> SuiteResult:
    """Coset masses are constant exactly when the spectrum dies on the
    punctured subspace; indicator masses force divisibility by p**k."""
    res = SuiteResult("equidist")
    count = config.suite_size or 500
    jobs = list(enumerate(_grid_cycle(config, (2, 3, 5), (1, 2, 3), count)))
    divisibility_ok = True
    constructed_ok = True

    def one(job):
        i, (p, d) = job
        rng = rng_for(config.seed, f"equidist/{i}")
        ambient = Ambient(p, d)
        V = random_subspace(ambient, rng)
        style = i % 3
        if style == 0:
            seeds = {}
            for line in enumerate_lines(ambient):
                if not V.contains(line.rep):
                    seeds[line] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
            f = inverse_phi(ambient, Fraction(rng.randint(-4, 4)), seeds)
            r = equidistribution_check(f, V)
            return ("constructed", r.equidistributed, None)
        if style == 1:
            f = random_rational_function(ambient, rng)
            equidistribution_check(f, V)
            return ("random", True, None)
        f, members = random_indicator(ambient, rng)
        r = equidistribution_check(f, V)
        if r.equidistributed:
            return ("indicator", True, len(members) % p ** V.dim == 0)
        return ("indicator", True, None)

    for style, ok, extra in map(one, jobs):
        if style == "constructed" and not ok:
            constructed_ok = False
        if extra is False:
            divisibility_ok = False
    res.check(f"biconditional held on {count} pairs", True, "no violation raised")
    res.check("constructed vanishing-spectrum inputs equidistribute", constructed_ok)
    res.check("equidistributed indicators have size divisible by p**k", divisibility_ok)
    return res


def run_uncertainty(config: VerifyConfig) -> SuiteResult:
    """((p-1)cbw + 1)|E| >= p**d for every nonempty set tested."""
    res = SuiteResult("uncertainty")
    if config.p and config.d:
        ambient = Ambient(config.p, config.d)
        pts = ambient.points()
        count = 0
        holds = 0
        for r in range(1, len(pts) + 1):
            for E in itertools.combinations(pts, r):
                count += 1
                rep = uncertainty_check(ambient, E)
                holds += rep.holds and rep.dim_bound_holds
        res.check(
            f"exhaustive at ({config.p},{config.d})",
            holds == count,
            f"{holds}/{count} pass",
        )
        return res
    for (p, d) in ((2, 2), (2, 3)):
        ambient = Ambient(p, d)
        pts = ambient.points()
        count = holds = 0
        for r in range(1, len(pts) + 1):
            for E in itertools.combinations(pts, r):
                count += 1
                rep = uncertainty_check(ambient, E)
                holds += rep.holds and rep.dim_bound_holds
        res.check(f"exhaustive at ({p},{d})", holds == count, f"{holds}/{count} pass")
    n = config.suite_size or 1000
    ambient = Ambient(3, 3)

    def one(i):
        rng = rng_for(config.seed, f"uncertainty/{i}")
        E = random_subset(ambient, rng, nonempty=True)
        rep = uncertainty_check(ambient, E)
        return rep.holds and rep.dim_bound_holds

    results = [one(i) for i in range(n)]
    res.check(f"{n} random nonempty sets at (3,3)", all(results),
              f"{sum(results)}/{n} pass")
    return res


def run_dichotomy(config: VerifyConfig) -> SuiteResult:
    """Every set is a union of parallel lines or has cbw > d."""
    res = SuiteResult("dichotomy")
    grids = ((config.p, config.d),) if config.p and config.d else ((2, 2), (2, 3))
    for (p, d) in grids:
        ambient = Ambient(p, d)
        pts = ambient.points()
        unions = exceeds = 0
        for r in range(len(pts) + 1):
            for E in itertools.combinations(pts, r):
                cls = classify_small_cbw_set(ambient, E)
                if cls.kind == "union_of_parallel_lines":
                    unions += 1
                else:
                    exceeds += 1
        res.check(
            f"exhaustive at ({p},{d})",
            True,
            f"{unions} unions of parallel lines, {exceeds} with cbw > d",
        )
    return res


def run_paraboloid(config: VerifyConfig) -> SuiteResult:
    """Slice differences of paraboloid-vanishing functions are good."""
    res = SuiteResult("paraboloid")
    p = config.p or 5
    d = config.d or 3
    count = config.suite_size or 100
    ambient = Ambient(p, d)
    admissible = [
        line
        for line in enumerate_lines(ambient)
        if classify_direction_paraboloid(ambient, line.rep) != "covered"
    ]

    def one(i):
        rng = rng_for(config.seed, f"paraboloid/{i}")
        seeds = {}
        for line in admissible:
            if rng.random() < 0.8:
                seeds[line] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        f = inverse_phi(ambient, Fraction(0), seeds)
        report = check_paraboloid_theorem(f)
        return report.hypothesis_met and report.all_good

    results = [one(i) for i in range(count)]
    res.check(
        f"{count} constructed functions at ({p},{d}): every slice difference good",
        all(results),
        f"{sum(results)}/{count} pass",
    )
    return res


def run_spheres(config: VerifyConfig) -> SuiteResult:
    """Sphere counts, sphere equidistribution, and the planar line structure."""
    res = SuiteResult("spheres")
    rng = rng_for(config.seed, "spheres")
    for p in (3, 5):
        counts = [sphere_count(p, 2, r) for r in range(1, p)]
        res.check(
            f"p={p}, d=2: nonzero-radius spheres equinumerous",
            len(set(counts)) == 1,
            f"measured counts {counts}",
        )
    # Constructed two-circle-vanishing functions, 5 random centers each.
    for p in (3, 5):
        ambient = Ambient(p, 2)
        if p % 4 == 3:
            f = GridFunction.constant(ambient, Fraction(rng.randint(1, 5), 3))
        else:
            from .geometry import sqrt_minus_one

            i = sqrt_minus_one(p)
            seeds = {
                ProjectiveLine((1, i)): Fraction(rng.randint(-4, 4), 5),
                ProjectiveLine((1, p - i)): Fraction(rng.randint(-4, 4), 5),
            }
            f = inverse_phi(ambient, Fraction(rng.randint(-4, 4), 5), seeds)
        ok = True
        for _ in range(5):
            center = random_point(ambient, rng)
            report = sphere_equidistribution_check(f, center)
            ok = ok and report.equidistributed
        res.check(f"p={p}: equidistributed on spheres about 5 random centers", ok)
    # Indicator classification at p = 5.
    ambient = Ambient(5, 2)
    i = 2  # 2*2 = -1 mod 5
    plus_union = {(t, 2 * t % 5) for t in range(5)} | {(t, (2 * t + 1) % 5) for t in range(5)}
    minus_union = {(t, 3 * t % 5) for t in range(5)}
    r1 = two_circle_analysis(GridFunction.indicator(ambient, plus_union), 1, 2)
    r2 = two_circle_analysis(GridFunction.indicator(ambient, minus_union), 1, 2)
    res.check("p=5: two parallel isotropic lines classify as Lplus_union",
              r1.kind == "Lplus_union", r1.kind)
    res.check("p=5: a line parallel to (1,-i) classifies as Lminus_union",
              r2.kind == "Lminus_union", r2.kind)
    return res


def run_selfdual(config: VerifyConfig) -> SuiteResult:
    """Exhaustive classification of sets with transform proportional to themselves."""
    res = SuiteResult("selfdual")
    grids = ((config.p, config.d),) if config.p and config.d else ((2, 2), (3, 2), (2, 3))
    for (p, d) in grids:
        ambient = Ambient(p, d)
        pts = ambient.points()
        found = []
        for r in range(len(pts) + 1):
            for E in itertools.combinations(pts, r):
                cls = self_dual_classify(ambient, E)
                if cls.kind != "not_self_dual":
                    found.append((cls.kind, cls.eigenvalue))
        if (p, d) == (2, 2):
            ok = found == [("empty", Fraction(0)), ("lagrangian", Fraction(1, 2))]
        else:
            ok = found == [("empty", Fraction(0))]
        res.check(
            f"exhaustive over all {2 ** len(pts)} subsets at ({p},{d})",
            ok,
            f"self-dual: {found}",
        )
    return res


def run_eigen(config: VerifyConfig) -> SuiteResult:
    """Plus/minus eigenfunction identities, plain and conjugate."""
    res = SuiteResult("eigen")
    rng = rng_for(config.seed, "eigen")
    tol = config.tolerance
    grids = ((config.p, config.d),) if config.p and config.d else ((2, 2), (3, 2), (2, 3))
    ambients = [Ambient(p, d) for p, d in grids]
    worst = 0.0
    total = 0
    for ambient in ambients:
        for V in all_subspaces(ambient):
            pair = eigenfunction_pair(V)
            pr, mr = eigen_residuals(pair)
            worst = max(worst, pr, mr)
            total += 1
    res.check(
        f"plain pairs for every subspace at {grids}",
        worst < tol,
        f"{total} pairs, max residual {worst:.2e}",
    )
    worst_aff = 0.0
    n_aff = config.suite_size or 20
    for k in range(n_aff):
        ambient = ambients[k % len(ambients)]
        V = random_subspace(ambient, rng, min_dim=0 if rng.random() < 0.2 else 1)
        x = random_point(ambient, rng)
        pair = affine_eigenfunction_pair(V, x)
        pr, mr = eigen_residuals(pair)
        worst_aff = max(worst_aff, pr, mr)
    res.check(
        f"{n_aff} random affine conjugate pairs",
        worst_aff < tol,
        f"max residual {worst_aff:.2e}",
    )
    return res


def run_zpl(config: VerifyConfig) -> SuiteResult:
    """Valuation geometry and the multiscale decomposition over Z_{p**ell}."""
    res = SuiteResult("zpl")
    p = config.p or 2
    ell = config.ell or 2
    d = config.d or 2
    ambient = Ambient(p, d, ell)
    q = ambient.modulus
    units = sum(1 for n in range(q) if valuation(ambient, n) == 0)
    res.check(
        f"unit count mod {q} is p**l - p**(l-1)",
        units == unit_count(ambient) == q - q // p,
        f"{units} units",
    )
    nonzero = [v for v in ambient.points() if any(v)]
    ok_h = all(
        len(hyperplane_points(ambient, v, 0))
        == p ** (ell * (d - 1) + vector_valuation(ambient, v))
        for v in nonzero
    )
    res.check(f"hyperplane sizes match for all {len(nonzero)} nonzero directions", ok_h)
    ok_l = all(
        len(line_through(ambient, v).points(ambient))
        == p ** (ell - vector_valuation(ambient, v))
        for v in nonzero
    )
    res.check("line cardinality p**(l - valuation) for every generator", ok_l)

    count = config.suite_size or 100

    def one(i):
        rng = rng_for(config.seed, f"zpl/{i}")
        vals = [
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            for _ in range(ambient.size)
        ]
        f = GridFunction(ambient, "rational", vals)
        parts = multiscale_decompose(forward(f))
        acc = None
        for part in parts:
            acc = part.function if acc is None else acc + part.function
        return acc == f

    results = [one(i) for i in range(count)]
    res.check(
        f"multiscale decomposition round-trips {count} random functions",
        all(results),
        f"{sum(results)}/{count} exact",
    )
    return res


SUITES = {
    "galois": run_galois,
    "wavelet": run_wavelet,
    "tomography": run_tomography,
    "equidist": run_equidist,
    "uncertainty": run_uncertainty,
    "dichotomy": run_dichotomy,
    "paraboloid": run_paraboloid,
    "spheres": run_spheres,
    "selfdual": run_selfdual,
    "eigen": run_eigen,
    "zpl": run_zpl,
}


def run_suites(names, config: VerifyConfig) -> list:
    if "all" in names:
        names = SUITE_ORDER
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    ordered = [n for n in SUITE_ORDER if n in names]
    return [_run_suite(name, config) for name in ordered]


def _run_suite(name: str, config: VerifyConfig) -> SuiteResult:
    """One suite's result; a TheoremViolation it raises becomes a failing check."""
    try:
        return SUITES[name](config)
    except TheoremViolation as exc:
        res = SuiteResult(name, counterexamples=[str(exc)])
        res.check("raised TheoremViolation", False, str(exc))
        return res
