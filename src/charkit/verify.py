"""Verification suites: every structural statement the library implements,
exercised exhaustively at desk scale or on seeded random corpora.

Each suite returns a SuiteResult with one named check per statement and a
counterexample dump on failure.  A suite's work items (random functions,
pairs, subsets) all run through one runner: an item that raises
TheoremViolation fails only its own check, with a counterexample naming
the item, and the suite's other items and checks keep their results.  A
violation raised outside any item is reported as one failing check of its
suite, and the other suites still run.  Exhaustive suites refuse a grid
with more than MAX_SUBSET_ENUMERATION subsets (CapacityError), and a suite
refuses a grid its statement does not cover (ValueError, as paraboloid at
d = 1); a refused suite is reported as one failing check, and the other
suites still run.
The CLI ``verify`` command renders the results and exits nonzero when
anything fails.  Identical (seed, options) always produce identical results: work
items run in order, one after another.
"""

from __future__ import annotations

import functools
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
    enumerate_lagrangian,
    self_dual_classify,
)
from .errors import CapacityError, SinogramError, TheoremViolation
from .fourier import GridFunction, forward
from .geometry import (
    MAX_SUBSET_ENUMERATION,
    Ambient,
    ProjectiveLine,
    all_subspaces,
    enumerate_lines,
    hyperplane_points,
    line_indices,
    line_through,
    sqrt_minus_one,
    valuation,
    vector_valuation,
)
from .multiscale import multiscale_decompose, unit_count
from .scalars import DEFAULT_TOL, zero_bound
from .varieties import (
    classify_direction_paraboloid,
    check_paraboloid_theorem,
    sphere_count,
    sphere_equidistribution_check,
    two_circle_analysis,
)
from .wavelets import decompose, mass_table, reconstruct_from_masses


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
    refused: str = ""  # why the suite did not run: its CapacityError or ValueError message

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and not self.counterexamples

    def check(self, name: str, passed: bool = True, detail: str = "", raised=()) -> None:
        """Record one check; a check over work items also fails when any of
        them raised, and then shows the first such counterexample."""
        self.checks.append(
            Check(name, bool(passed) and not raised, raised[0] if raised else detail)
        )


# --- work items and grids -----------------------------------------------------


def _run_items(res: SuiteResult, items, work) -> tuple:
    """Run ``work(*args)`` on each ``(where, args)`` item, in order.

    A TheoremViolation fails its own item only: it is recorded as a
    counterexample naming the item by index and ``where`` (grid and seed or
    subset), and the remaining items still run.  ``where`` is formatted
    with the item's args only then, so it may name them as {0}, {1}, ...
    Returns the results of the items that returned and the counterexamples
    of those that raised.
    """
    results, raised = [], []
    for index, (where, args) in enumerate(items):
        try:
            results.append(work(*args))
        except TheoremViolation as exc:
            raised.append(f"item {index} at {where.format(*args)}: {exc}")
    res.counterexamples.extend(raised)
    return results, raised


def _seeded(config: VerifyConfig, suite: str, ambients):
    """Item i runs on ambients[i] with its own random stream ``suite/i``."""
    for i, ambient in enumerate(ambients):
        stream = f"{suite}/{i}"
        where = f"{_grid_name(ambient)}, seed {config.seed}/{stream}"
        yield where, (i, ambient, rng_for(config.seed, stream))


def _subsets(ambient: Ambient, least: int = 0):
    """Items ``(ambient, E)``, one per subset E of at least ``least`` points,
    smallest first; a grid with too many subsets raises before the first."""
    pts = ambient.points()
    grid = _grid_name(ambient)
    if 2 ** len(pts) > MAX_SUBSET_ENUMERATION:
        raise CapacityError(
            f"2**{len(pts)} subsets of {grid} exceed the limit {MAX_SUBSET_ENUMERATION}"
        )
    where = grid + ", E={1}"
    return (
        (where, (ambient, E))
        for r in range(least, len(pts) + 1)
        for E in itertools.combinations(pts, r)
    )


def _grid_name(ambient: Ambient) -> str:
    """(p,d), or (p,d,l) on a ring grid."""
    dims = (ambient.p, ambient.d) + ((ambient.ell,) if ambient.ell > 1 else ())
    return "(" + ",".join(map(str, dims)) + ")"


def _grid_cycle(config: VerifyConfig, ps, ds, count: int) -> list:
    """``count`` Ambients cycling through ps x ds; a requested p or d replaces either."""
    ps = (config.p,) if config.p else ps
    ds = (config.d,) if config.d else ds
    combos = [(p, d) for p in ps for d in ds]
    return [Ambient(*combos[i % len(combos)]) for i in range(count)]


def _requested_grids(options, ambients) -> str:
    """' at <grids>' naming the grids built when any of the grid options
    that chose them (--p, --d, --l) was given."""
    if not any(options):
        return ""
    return " at " + ", ".join(dict.fromkeys(map(_grid_name, ambients)))


def _grids(config: VerifyConfig, defaults: tuple) -> tuple:
    """The grid of --p and --d when both are given, else the suite's defaults."""
    return ((config.p, config.d),) if config.p and config.d else defaults


# --- suites -----------------------------------------------------------------


def _galois_item(_i, ambient, rng) -> None:
    p = ambient.p
    F = forward(random_rational_function(ambient, rng))
    # agree[r][i]: sigma_r(F(m)) == F(r*m) at the point m of index i
    agree = {r: F.galois(r).agrees(F.dilate(r)) for r in range(1, p)}
    for indices in line_indices(ambient).values():
        for t in range(1, p):
            for r in range(1, p):
                if not agree[r][indices[t]]:
                    raise TheoremViolation(f"m={ambient.point_at(indices[t])}, r={r}")


def run_galois(config: VerifyConfig) -> SuiteResult:
    """F(r*m) equals the r-th automorphism of F(m) for rational inputs."""
    res = SuiteResult("galois")
    count = config.suite_size or 200
    ps = (config.p,) if config.p else (3, 5, 7)
    d = config.d or 2
    ambients = _grid_cycle(config, ps, (d,), count)
    _, raised = _run_items(res, _seeded(config, "galois", ambients), _galois_item)
    res.check(f"equivariance on {count} functions, p in {ps}, d={d}",
              detail="exact", raised=raised)
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


def _round_trip_item(_i, ambient, rng) -> None:
    f = random_rational_function(ambient, rng)
    if reconstruct_from_masses(mass_table(f)) != f:
        raise TheoremViolation("reconstruct(project(f)) differs from f")


def run_tomography(config: VerifyConfig) -> SuiteResult:
    """Project-then-reconstruct is the identity; corrupt sinograms are rejected."""
    res = SuiteResult("tomography")
    count = config.suite_size or 100
    ambients = _grid_cycle(config, (2, 3, 5), (1, 2, 3), count)
    _, raised = _run_items(res, _seeded(config, "tomography", ambients), _round_trip_item)
    at = _requested_grids((config.p, config.d), ambients)
    res.check(f"exact round trip on {count} functions{at}", detail="exact", raised=raised)

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


def _equidist_item(i, ambient, rng) -> tuple:
    """(a constructed input equidistributes, an equidistributed indicator has
    size divisible by p**k); True where the item's style is another."""
    V = random_subspace(ambient, rng)
    if i % 3 == 0:
        seeds = {}
        for line in enumerate_lines(ambient):
            if not V.contains(line.rep):
                seeds[line] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        f = inverse_phi(ambient, Fraction(rng.randint(-4, 4)), seeds)
        return equidistribution_check(f, V).equidistributed, True
    if i % 3 == 1:
        equidistribution_check(random_rational_function(ambient, rng), V)
        return True, True
    f, members = random_indicator(ambient, rng)
    r = equidistribution_check(f, V)
    return True, not r.equidistributed or len(members) % ambient.p ** V.dim == 0


def run_equidist(config: VerifyConfig) -> SuiteResult:
    """Coset masses are constant exactly when the spectrum dies on the
    punctured subspace; indicator masses force divisibility by p**k."""
    res = SuiteResult("equidist")
    count = config.suite_size or 500
    ambients = _grid_cycle(config, (2, 3, 5), (1, 2, 3), count)
    results, raised = _run_items(res, _seeded(config, "equidist", ambients), _equidist_item)
    at = _requested_grids((config.p, config.d), ambients)
    res.check(f"biconditional held on {count} pairs{at}",
              detail="no violation raised", raised=raised)
    res.check("constructed vanishing-spectrum inputs equidistribute",
              all(ok for ok, _ in results))
    res.check("equidistributed indicators have size divisible by p**k",
              all(ok for _, ok in results))
    return res


def _uncertainty_holds(ambient, E) -> bool:
    rep = uncertainty_check(ambient, E)
    return rep.holds and rep.dim_bound_holds


def _random_set_holds(_i, ambient, rng) -> bool:
    return _uncertainty_holds(ambient, random_subset(ambient, rng, nonempty=True))


def run_uncertainty(config: VerifyConfig) -> SuiteResult:
    """((p-1)cbw + 1)|E| >= p**d for every nonempty set tested."""
    res = SuiteResult("uncertainty")
    defaults = ((2, 2), (2, 3))
    grids = _grids(config, defaults)
    for (p, d) in grids:
        holds, raised = _run_items(res, _subsets(Ambient(p, d), least=1), _uncertainty_holds)
        res.check(f"exhaustive at ({p},{d})", all(holds),
                  f"{sum(holds)}/{len(holds) + len(raised)} pass", raised)
    if grids != defaults:  # a requested grid is checked exhaustively only
        return res
    n = config.suite_size or 1000
    items = _seeded(config, "uncertainty", [Ambient(3, 3)] * n)
    holds, raised = _run_items(res, items, _random_set_holds)
    res.check(f"{n} random nonempty sets at (3,3)", all(holds),
              f"{sum(holds)}/{n} pass", raised)
    return res


def run_dichotomy(config: VerifyConfig) -> SuiteResult:
    """Every set is a union of parallel lines or has cbw > d."""
    res = SuiteResult("dichotomy")
    for (p, d) in _grids(config, ((2, 2), (2, 3))):
        classes, raised = _run_items(res, _subsets(Ambient(p, d)), classify_small_cbw_set)
        unions = sum(cls.kind == "union_of_parallel_lines" for cls in classes)
        exceeds = len(classes) - unions
        res.check(f"exhaustive at ({p},{d})", raised=raised,
                  detail=f"{unions} unions of parallel lines, {exceeds} with cbw > d")
    return res


def _paraboloid_item(admissible, _i, ambient, rng) -> bool:
    seeds = {}
    for line in admissible:
        if rng.random() < 0.8:
            seeds[line] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    f = inverse_phi(ambient, Fraction(0), seeds)
    report = check_paraboloid_theorem(f)
    return report.hypothesis_met and report.all_good


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
    items = _seeded(config, "paraboloid", [ambient] * count)
    results, raised = _run_items(res, items, functools.partial(_paraboloid_item, admissible))
    res.check(f"{count} constructed functions at ({p},{d}): every slice difference good",
              all(results), f"{sum(results)}/{count} pass", raised)
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
    for (p, d) in _grids(config, ((2, 2), (3, 2), (2, 3))):
        ambient = Ambient(p, d)
        classes, raised = _run_items(res, _subsets(ambient), self_dual_classify)
        found = [(c.kind, c.eigenvalue) for c in classes if c.kind != "not_self_dual"]
        # The empty set, then each Lagrangian subspace with eigenvalue p**(-d/2).
        lagrangian = ("lagrangian", Fraction(1, p ** (d // 2)))
        expected = [("empty", 0)] + [lagrangian] * len(enumerate_lagrangian(ambient))
        res.check(f"exhaustive over all {2 ** ambient.size} subsets at ({p},{d})",
                  found == expected, f"self-dual: {found}", raised)
    return res


def run_eigen(config: VerifyConfig) -> SuiteResult:
    """Plus/minus eigenfunction identities, plain and conjugate."""
    res = SuiteResult("eigen")
    rng = rng_for(config.seed, "eigen")
    tol = config.tolerance
    grids = _grids(config, ((2, 2), (3, 2), (2, 3)))
    ambients = [Ambient(p, d) for p, d in grids]
    plain = [_residual(eigenfunction_pair(V), tol) for a in ambients for V in all_subspaces(a)]
    res.check(
        f"plain pairs for every subspace at {grids}",
        all(ok for _, ok in plain),
        f"{len(plain)} pairs, max residual {max(r for r, _ in plain):.2e}",
    )
    affine = []
    n_aff = config.suite_size or 20
    for k in range(n_aff):
        ambient = ambients[k % len(ambients)]
        V = random_subspace(ambient, rng, min_dim=0 if rng.random() < 0.2 else 1)
        x = random_point(ambient, rng)
        affine.append(_residual(affine_eigenfunction_pair(V, x), tol))
    res.check(
        f"{n_aff} random affine conjugate pairs",
        all(ok for _, ok in affine),
        f"max residual {max(r for r, _ in affine):.2e}",
    )
    return res


def _residual(pair, tol: float) -> tuple:
    """The pair's larger residual, and whether the zero rule over its values holds."""
    r = max(eigen_residuals(pair))
    return r, pair.exact or r <= zero_bound(pair.plus.values + pair.minus.values, tol)


def _zpl_item(_i, ambient, rng) -> bool:
    f = random_rational_function(ambient, rng)
    parts = [part.function for part in multiscale_decompose(forward(f))]
    return sum(parts[1:], parts[0]) == f


def run_zpl(config: VerifyConfig) -> SuiteResult:
    """Valuation geometry and the multiscale decomposition over Z_{p**ell}."""
    res = SuiteResult("zpl")
    p = config.p or 2
    ell = config.ell or 2
    d = config.d or 2
    ambient = Ambient(p, d, ell)
    at = _requested_grids((config.p, config.d, config.ell), [ambient])
    q = ambient.modulus
    units = sum(1 for n in range(q) if valuation(ambient, n) == 0)
    res.check(
        f"unit count mod {q} is p**l - p**(l-1){at}",
        units == unit_count(ambient) == q - q // p,
        f"{units} units",
    )
    nonzero = [v for v in ambient.points() if any(v)]
    ok_h = all(
        len(hyperplane_points(ambient, v, 0))
        == p ** (ell * (d - 1) + vector_valuation(ambient, v))
        for v in nonzero
    )
    res.check(f"hyperplane sizes match for all {len(nonzero)} nonzero directions{at}", ok_h)
    ok_l = all(
        len(line_through(ambient, v).points(ambient))
        == p ** (ell - vector_valuation(ambient, v))
        for v in nonzero
    )
    res.check(f"line cardinality p**(l - valuation) for every generator{at}", ok_l)

    count = config.suite_size or 100
    results, raised = _run_items(res, _seeded(config, "zpl", [ambient] * count), _zpl_item)
    res.check(f"multiscale decomposition round-trips {count} random functions{at}",
              all(results), f"{sum(results)}/{count} exact", raised)
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
SUITE_ORDER = tuple(SUITES)


def run_suites(names, config: VerifyConfig) -> list:
    unknown = [n for n in names if n not in SUITES and n != "all"]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    return [_run_suite(n, config) for n in SUITE_ORDER if n in names or "all" in names]


def _run_suite(name: str, config: VerifyConfig) -> SuiteResult:
    """One suite's result; a TheoremViolation raised outside any work item
    becomes a failing check.  So does a refusal of the requested grid, a
    CapacityError or a ValueError (the paraboloid statement needs d >= 2),
    which also marks the suite refused."""
    try:
        return SUITES[name](config)
    except TheoremViolation as exc:
        res = SuiteResult(name, counterexamples=[str(exc)])
        res.check("raised TheoremViolation", False, str(exc))
    except (CapacityError, ValueError) as exc:
        res = SuiteResult(name, refused=str(exc))
        res.check(f"raised {type(exc).__name__}", False, str(exc))
    return res
