"""Verification suites: every structural statement the library implements,
exercised exhaustively at desk scale or on seeded random corpora.

Each suite returns a SuiteResult with one named check per statement and a
counterexample dump on failure.  A suite's work items (random functions,
pairs, subsets) all run through one runner: an item that raises
TheoremViolation or HypothesisNotMet (its constructed input missed the
hypothesis it was built to meet) fails only its own check, with a
counterexample naming the item, and the suite's other items and checks
keep their results.  Either raised outside any item is reported as one
failing check of its suite, and the other suites still run.  Each suite
has default grids (p, d, l); a given --p, --d or --l replaces that
coordinate in every one, and the suite runs exactly the resulting grids
(``_suite_grids``) or refuses them.  Exhaustive suites refuse a grid with more than
MAX_SUBSET_ENUMERATION subsets, and zpl one whose direction scan visits
more than MAX_DIRECTION_SCAN (direction, point) pairs (CapacityError); a
suite refuses a grid its statement does not cover (ValueError, as
paraboloid at d = 1).  A refused suite is reported as one failing check,
and the other suites still run.
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
from .errors import CapacityError, HypothesisNotMet, SinogramError, TheoremViolation
from .fourier import GridFunction, _exact_transform, _from_lattice, _lattice_of, forward
from .geometry import (
    MAX_DIRECTION_SCAN,
    MAX_SUBSET_ENUMERATION,
    Ambient,
    ProjectiveLine,
    all_subspaces,
    enumerate_lines,
    hyperplane_points,
    least_non_residue,
    line_through,
    sqrt_minus_one,
    valuation,
    vector_valuation,
)
from .multiscale import multiscale_decompose, unit_count
from .scalars import CYCLOTOMIC, DEFAULT_TOL, zero_bound
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

    A TheoremViolation or HypothesisNotMet fails its own item only: it is
    recorded as a counterexample naming the item by index and ``where``
    (grid and seed or subset), and the remaining items still run.  ``where`` is formatted
    with the item's args only then, so it may name them as {0}, {1}, ...
    Returns the results of the items that returned and the counterexamples
    of those that raised.
    """
    results, raised = [], []
    for index, (where, args) in enumerate(items):
        try:
            results.append(work(*args))
        except (TheoremViolation, HypothesisNotMet) as exc:
            raised.append(f"item {index} at {where.format(*args)}: {exc}")
    res.counterexamples.extend(raised)
    return results, raised


def _seeded(config: VerifyConfig, suite: str, ambients):
    """Item i runs on ambients[i] with its own random stream ``suite/i``."""
    for i, ambient in enumerate(ambients):
        stream = f"{suite}/{i}"
        where = f"{_grid_name(ambient.p, ambient.d, ambient.ell)}, seed {config.seed}/{stream}"
        yield where, (i, ambient, rng_for(config.seed, stream))


def _subsets(ambient: Ambient, least: int = 0):
    """Items ``(ambient, E)``, one per subset E of at least ``least`` points,
    smallest first; a grid with too many subsets raises before the first."""
    pts = ambient.points()
    grid = _grid_name(ambient.p, ambient.d, ambient.ell)
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


def _grid_name(p: int, d: int, ell: int = 1) -> str:
    """(p,d), or (p,d,l) on a ring grid."""
    return f"({p},{d})" if ell == 1 else f"({p},{d},{ell})"


def _suite_grids(config: VerifyConfig, *defaults, count: int | None = None) -> tuple:
    """The (p, d, l) grids a suite runs, and the suffix naming them.

    ``defaults`` are the suite's grids.  Each of --p, --d and --l that was
    given replaces its coordinate in every one, and equal grids collapse,
    the first kept.  With ``count``, the result holds one grid per work
    item, cycling through those.  The suffix is ' at <grids>' when a grid
    option was given, else ''.
    """
    grids = list(dict.fromkeys(
        (config.p or p, config.d or d, config.ell or ell) for p, d, ell in defaults
    ))
    if count is not None:
        grids = [grids[i % len(grids)] for i in range(count)]
    if not (config.p or config.d or config.ell):
        return grids, ""
    return grids, " at " + ", ".join(dict.fromkeys(_grid_name(*g) for g in grids))


def _require_plane(grids, what: str) -> None:
    """Refuse ``what``, defined on Z_p**2, on any other grid."""
    for p, d, ell in grids:
        if (d, ell) != (2, 1):
            raise ValueError(f"{what} is defined on Z_p**2 only, not on {_grid_name(p, d, ell)}")


# --- suites -----------------------------------------------------------------


def _galois_item(_i, ambient, rng) -> None:
    # F from the d axis passes: ``forward`` fills a rational spectrum from
    # the masses of each line, where equivariance would hold by construction.
    den, cols = _lattice_of(random_rational_function(ambient, rng))
    cols = _exact_transform(cols, ambient, ambient.d, -1)
    F = _from_lattice(ambient, cols, den * ambient.size, CYCLOTOMIC)
    for r in range(1, ambient.modulus):
        if r % ambient.p:  # a unit: sigma_r(F(m)) == F(r*m) at every point m
            agree = F.galois(r).agrees(F.dilate(r))
            if not all(agree):
                raise TheoremViolation(f"m={ambient.point_at(agree.index(False))}, r={r}")


# The round trips of tomography and the pairs of equidist: p in (2, 3, 5)
# times d in (1, 2, 3).
_SMALL_GRIDS = tuple((p, d, 1) for p in (2, 3, 5) for d in (1, 2, 3))


def run_galois(config: VerifyConfig) -> SuiteResult:
    """F(r*m) equals the r-th automorphism of F(m) for rational inputs."""
    res = SuiteResult("galois")
    count = config.suite_size or 200
    grids, at = _suite_grids(config, (3, 2, 1), (5, 2, 1), (7, 2, 1), count=count)
    ambients = [Ambient(*g) for g in grids]
    _, raised = _run_items(res, _seeded(config, "galois", ambients), _galois_item)
    res.check(f"equivariance on {count} functions{at or ', p in (3, 5, 7), d=2'}",
              detail="exact", raised=raised)
    return res


def run_wavelet(config: VerifyConfig) -> SuiteResult:
    """The sharp planar staircase example and its closed-form reduced parts."""
    res = SuiteResult("wavelet")
    grids, at = _suite_grids(config, (3, 2, 1), (5, 2, 1), (7, 2, 1))
    _require_plane(grids, "the staircase example")
    for p, _, _ in grids:
        where = at and f" at {_grid_name(p, 2)}"
        f = staircase_function(p)
        rep = bandwidth(f)
        want_lines = tuple(map(ProjectiveLine, ((0, 1), (1, 0), (1, 1))))
        res.check(f"p={p}: cbw = 3{where}", rep.cbw == 3, f"cbw={rep.cbw}")
        res.check(f"p={p}: active lines (0,1),(1,0),(1,1){where}",
                  rep.lines == want_lines, str([l.rep for l in rep.lines]))
        dec = decompose(f, "reduced")
        expected = {
            (0, 1): tuple(Fraction(i, p) for i in range(p)),
            (1, 0): tuple(Fraction(i, p) for i in range(p)),
            (1, 1): tuple(Fraction(-i, p) for i in range(p)),
        }
        got = {w.direction.rep: w.coeffs for w in dec.parts}
        res.check(f"p={p}: reduced parts match the closed form{where}",
                  got == expected and dec.constant == 0, f"constant={dec.constant}")
        res.check(f"p={p}: reduced decomposition re-evaluates to the set{where}",
                  dec.evaluate() == f)
    return res


def _round_trip_item(_i, ambient, rng) -> None:
    f = random_rational_function(ambient, rng)
    if reconstruct_from_masses(mass_table(f)) != f:
        raise TheoremViolation("reconstruct(project(f)) differs from f")


def run_tomography(config: VerifyConfig) -> SuiteResult:
    """Project-then-reconstruct is the identity; corrupt sinograms are rejected."""
    res = SuiteResult("tomography")
    count = config.suite_size or 100
    grids, at = _suite_grids(config, *_SMALL_GRIDS, count=count)
    ambients = [Ambient(*g) for g in grids]
    _, raised = _run_items(res, _seeded(config, "tomography", ambients), _round_trip_item)
    res.check(f"exact round trip on {count} functions{at}", detail="exact", raised=raised)

    [(p, d, _)], at = _suite_grids(config, (3, 2, 1))
    if d != 2:  # the staircase example is planar
        return res
    f = staircase_function(p)
    table = mass_table(f)
    res.check(f"staircase example round trips (p={p}){at}", reconstruct_from_masses(table) == f)
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
    res.check(f"every single-entry corruption is rejected{at}", bad == tried,
              f"{bad}/{tried} rejected")
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
    grids, at = _suite_grids(config, *_SMALL_GRIDS, count=count)
    ambients = [Ambient(*g) for g in grids]
    results, raised = _run_items(res, _seeded(config, "equidist", ambients), _equidist_item)
    res.check(f"biconditional held on {count} pairs{at}",
              detail="no violation raised", raised=raised)
    res.check(f"constructed vanishing-spectrum inputs equidistribute{at}",
              all(ok for ok, _ in results))
    res.check(f"equidistributed indicators have size divisible by p**k{at}",
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
    grids, _ = _suite_grids(config, (2, 2, 1), (2, 3, 1))
    for grid in grids:
        holds, raised = _run_items(res, _subsets(Ambient(*grid), least=1), _uncertainty_holds)
        res.check(f"exhaustive at {_grid_name(*grid)}", all(holds),
                  f"{sum(holds)}/{len(holds) + len(raised)} pass", raised)
    n = config.suite_size or 1000
    [grid], _ = _suite_grids(config, (3, 3, 1))
    items = _seeded(config, "uncertainty", [Ambient(*grid)] * n)
    holds, raised = _run_items(res, items, _random_set_holds)
    res.check(f"{n} random nonempty sets at {_grid_name(*grid)}", all(holds),
              f"{sum(holds)}/{n} pass", raised)
    return res


def run_dichotomy(config: VerifyConfig) -> SuiteResult:
    """Every set is a union of parallel lines or has cbw > d."""
    res = SuiteResult("dichotomy")
    grids, _ = _suite_grids(config, (2, 2, 1), (2, 3, 1))
    for grid in grids:
        classes, raised = _run_items(res, _subsets(Ambient(*grid)), classify_small_cbw_set)
        unions = sum(cls.kind == "union_of_parallel_lines" for cls in classes)
        exceeds = len(classes) - unions
        res.check(f"exhaustive at {_grid_name(*grid)}", raised=raised,
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
    [grid], _ = _suite_grids(config, (5, 3, 1))
    count = config.suite_size or 100
    ambient = Ambient(*grid)
    admissible = [
        line
        for line in enumerate_lines(ambient)
        if classify_direction_paraboloid(ambient, line.rep) != "covered"
    ]
    items = _seeded(config, "paraboloid", [ambient] * count)
    results, raised = _run_items(res, items, functools.partial(_paraboloid_item, admissible))
    res.check(f"{count} constructed functions at {_grid_name(*grid)}: "
              "every slice difference good", all(results), f"{sum(results)}/{count} pass", raised)
    return res


def run_spheres(config: VerifyConfig) -> SuiteResult:
    """Sphere counts, sphere equidistribution, and the planar line structure."""
    res = SuiteResult("spheres")
    grids, at = _suite_grids(config, (3, 2, 1), (5, 2, 1))
    _require_plane(grids, "the sphere analysis")
    ambients = [Ambient(*g) for g in grids]
    rng = rng_for(config.seed, "spheres")
    for p, _, _ in grids:
        where = at and f" at {_grid_name(p, 2)}"
        counts = [sphere_count(p, 2, r) for r in range(1, p)]
        res.check(f"p={p}, d=2: nonzero-radius spheres equinumerous{where}",
                  len(set(counts)) == 1, f"measured counts {counts}")
    # Constructed two-circle-vanishing functions, 5 random centers each.
    for ambient in ambients:
        p = ambient.p
        where = at and f" at {_grid_name(p, 2)}"
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
        res.check(f"p={p}: equidistributed on spheres about 5 random centers{where}", ok)
    # Indicator classification on the isotropic lines (1, i) and (1, -i), p = 1 mod 4.
    for ambient in ambients:
        p = ambient.p
        if p % 4 != 1:
            continue
        where = at and f" at {_grid_name(p, 2)}"
        i, b = sqrt_minus_one(p), least_non_residue(p)
        plus_union = {(t, (i * t + c) % p) for t in range(p) for c in (0, 1)}
        minus_union = {(t, -i * t % p) for t in range(p)}
        r1 = two_circle_analysis(GridFunction.indicator(ambient, plus_union), 1, b)
        r2 = two_circle_analysis(GridFunction.indicator(ambient, minus_union), 1, b)
        res.check(f"p={p}: two parallel isotropic lines classify as Lplus_union{where}",
                  r1.kind == "Lplus_union", r1.kind)
        res.check(f"p={p}: a line parallel to (1,-i) classifies as Lminus_union{where}",
                  r2.kind == "Lminus_union", r2.kind)
    return res


def run_selfdual(config: VerifyConfig) -> SuiteResult:
    """Exhaustive classification of sets with transform proportional to themselves."""
    res = SuiteResult("selfdual")
    grids, _ = _suite_grids(config, (2, 2, 1), (3, 2, 1), (2, 3, 1))
    for p, d, ell in grids:
        ambient = Ambient(p, d, ell)
        classes, raised = _run_items(res, _subsets(ambient), self_dual_classify)
        found = [(c.kind, c.eigenvalue) for c in classes if c.kind != "not_self_dual"]
        # The empty set, then each Lagrangian subspace with eigenvalue p**(-d/2).
        lagrangian = ("lagrangian", Fraction(1, p ** (d // 2)))
        expected = [("empty", 0)] + [lagrangian] * len(enumerate_lagrangian(ambient))
        res.check(f"exhaustive over all {2 ** ambient.size} subsets at {_grid_name(p, d, ell)}",
                  found == expected, f"self-dual: {found}", raised)
    return res


def run_eigen(config: VerifyConfig) -> SuiteResult:
    """Plus/minus eigenfunction identities, plain and conjugate."""
    res = SuiteResult("eigen")
    rng = rng_for(config.seed, "eigen")
    tol = config.tolerance
    grids, at = _suite_grids(config, (2, 2, 1), (3, 2, 1), (2, 3, 1))
    ambients = [Ambient(*g) for g in grids]
    plain = [_residual(eigenfunction_pair(V), tol) for a in ambients for V in all_subspaces(a)]
    res.check(
        f"plain pairs for every subspace{at or ' at ((2, 2), (3, 2), (2, 3))'}",
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
        f"{n_aff} random affine conjugate pairs{at}",
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
    [grid], at = _suite_grids(config, (2, 2, 2))
    ambient = Ambient(*grid)
    p, d, ell = grid
    q, size = ambient.modulus, ambient.size
    if (size - 1) * size > MAX_DIRECTION_SCAN:
        raise CapacityError(
            f"{size - 1} directions times {size} points of {_grid_name(p, d, ell)} "
            f"exceed the scan limit {MAX_DIRECTION_SCAN}"
        )
    units = sum(1 for n in range(q) if valuation(ambient, n) == 0)
    res.check(f"unit count mod {q} is p**l - p**(l-1){at}",
              units == unit_count(ambient) == q - q // p, f"{units} units")
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
    """One suite's result; a TheoremViolation or HypothesisNotMet raised
    outside any work item becomes a failing check and a counterexample.  A
    refusal of the requested grid, a CapacityError or a ValueError (a
    statement the grid does not cover, as the slicing statement at d = 1),
    becomes a failing check and marks the suite refused."""
    try:
        return SUITES[name](config)
    except (TheoremViolation, HypothesisNotMet) as exc:
        res = SuiteResult(name, counterexamples=[str(exc)])
        res.check(f"raised {type(exc).__name__}", False, str(exc))
    except (CapacityError, ValueError) as exc:
        res = SuiteResult(name, refused=str(exc))
        res.check(f"raised {type(exc).__name__}", False, str(exc))
    return res
