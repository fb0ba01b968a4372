"""Verification suites: every structural statement the library implements,
exercised exhaustively at desk scale or on seeded random corpora.

``run_suites`` hands each suite one SuiteResult, which holds one named
check per statement and a counterexample dump on failure.  All of a
suite's library work runs as items (random functions, pairs, subsets,
grids) through one runner: an item that raises TheoremViolation or
HypothesisNotMet (its constructed input missed the hypothesis it was built
to meet) fails only its own checks, with a counterexample naming the item,
and the suite's other items and checks keep their results.  Either raised
outside any item adds one failing check to the suite's result.  Each
suite has default grids (p, d, l); a given --p, --d or --l replaces that
coordinate in every one, and the suite runs exactly the resulting grids
(``_suite_grids``) or refuses them.  Exhaustive suites refuse a grid with
more than MAX_SUBSET_ENUMERATION subsets, and zpl one whose direction scan visits
more than MAX_DIRECTION_SCAN (direction, point) pairs (CapacityError); a
suite refuses a grid its statement does not cover (ValueError, as
paraboloid at d = 1 or spheres at p = 2).  A refused suite keeps the
checks it made before the refusal, then one failing check giving the
reason, and the other suites still run.
The CLI ``verify`` command renders the results and exits nonzero when
anything fails.  Identical (seed, options) always produce identical results: work
items run in order, one after another, each built only when it runs.
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

    def check(self, name: str, passed: bool = True, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))


# --- work items and grids -----------------------------------------------------


def _run_items(res: SuiteResult, items, work):
    """Run ``work(*args)`` on each ``(where, args)`` item, in order, and
    yield ``(result, None)`` per item, or ``(None, counterexample)`` when
    it raised TheoremViolation or HypothesisNotMet: the counterexample,
    recorded in ``res``, names the item by index and ``where`` (grid and
    seed or subset, formatted with its args as {0}, {1}, ...), and the
    remaining items still run."""
    for index, (where, args) in enumerate(items):
        try:
            result = work(*args)
        except (TheoremViolation, HypothesisNotMet) as exc:
            example = f"item {index} at {where.format(*args)}: {exc}"
            res.counterexamples.append(example)
            yield None, example
        else:
            yield result, None


def _check_items(res: SuiteResult, name: str, items, work, judge) -> list:
    """Run the items and record one check, ``name``: it fails with the first
    counterexample when an item raised, else ``judge(results)`` gives its
    (passed, detail).  Returns the results of the items that returned one:
    an item that returns None (galois, the tomography round trip) has only
    to not raise, and keeps nothing."""
    before = len(res.counterexamples)
    results = [result for result, _ in _run_items(res, items, work) if result is not None]
    raised = res.counterexamples[before:]
    res.check(name, *((False, raised[0]) if raised else judge(results)))
    return results


def _check_each(res: SuiteResult, names, items, work) -> None:
    """Item i returns one (passed, detail) pair per check named in
    ``names[i]``; an item that raised fails its own checks only."""
    for group, (pairs, example) in zip(names, _run_items(res, items, work)):
        for name, (passed, detail) in zip(group, pairs or [(False, example)] * len(group)):
            res.check(name, passed, detail)


def _tally(oks, word: str = "pass") -> tuple:
    return all(oks), f"{sum(oks)}/{len(oks)} {word}"


def _seeded(config: VerifyConfig, suite: str, ambients):
    """Item i runs on ambients[i] with its own random stream ``suite/i``."""
    for i, ambient in enumerate(ambients):
        stream = f"{suite}/{i}"
        where = f"{_grid_of(ambient)}, seed {config.seed}/{stream}"
        yield where, (i, ambient, rng_for(config.seed, stream))


def _shared(config: VerifyConfig, suite: str, ambients):
    """Item i runs on ambients[i], every item drawing from the one stream ``suite``."""
    rng = rng_for(config.seed, suite)
    return ((f"{_grid_of(a)}, seed {config.seed}/{suite}", (a, rng)) for a in ambients)


def _subsets(ambient: Ambient, least: int = 0):
    """Items ``(ambient, E)``, one per subset E of at least ``least`` points,
    smallest first; a grid with too many subsets raises before the first."""
    pts = ambient.points()
    grid = _grid_of(ambient)
    if 2 ** len(pts) > MAX_SUBSET_ENUMERATION:
        raise CapacityError(
            f"2**{len(pts)} subsets of {grid} exceed the limit {MAX_SUBSET_ENUMERATION}"
        )
    return ((grid + ", E={1}", (ambient, E))
            for r in range(least, len(pts) + 1) for E in itertools.combinations(pts, r))


def _grid_name(p: int, d: int, ell: int = 1) -> str:
    """(p,d), or (p,d,l) on a ring grid."""
    return f"({p},{d})" if ell == 1 else f"({p},{d},{ell})"


def _grid_of(ambient: Ambient) -> str:
    return _grid_name(ambient.p, ambient.d, ambient.ell)


def _suite_grids(config: VerifyConfig, *defaults, count: int | None = None) -> tuple:
    """The (p, d, l) grids a suite runs, and the suffix naming them.

    ``defaults`` are the suite's grids.  Each of --p, --d and --l that was
    given replaces its coordinate in every one, and equal grids collapse,
    the first kept.  With ``count``, the grids are instead the ambients of
    ``count`` work items, cycling through them, each built when its item
    runs.  The suffix is ' at <grids>' when a grid option was given, else ''.
    """
    grids = list(dict.fromkeys(
        (config.p or p, config.d or d, config.ell or ell) for p, d, ell in defaults
    ))[:count]
    at = " at " + ", ".join(_grid_name(*g) for g in grids)
    if count is not None:
        grids = itertools.starmap(Ambient, itertools.islice(itertools.cycle(grids), count))
    return grids, at if config.p or config.d or config.ell else ""


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


def run_galois(config: VerifyConfig, res: SuiteResult) -> None:
    """F(r*m) equals the r-th automorphism of F(m) for rational inputs."""
    count = config.suite_size or 200
    ambients, at = _suite_grids(config, (3, 2, 1), (5, 2, 1), (7, 2, 1), count=count)
    _check_items(res, f"equivariance on {count} functions{at or ', p in (3, 5, 7), d=2'}",
                 _seeded(config, "galois", ambients), _galois_item,
                 lambda _: (True, "exact"))


def _wavelet_item(p) -> list:
    """The four checks of the staircase example at p, as (passed, detail)."""
    f = staircase_function(p)
    rep = bandwidth(f)
    want_lines = tuple(map(ProjectiveLine, ((0, 1), (1, 0), (1, 1))))
    dec = decompose(f, "reduced")
    ramp = tuple(Fraction(i, p) for i in range(p))
    expected = {(0, 1): ramp, (1, 0): ramp, (1, 1): tuple(-c for c in ramp)}
    got = {w.direction.rep: w.coeffs for w in dec.parts}
    return [
        (rep.cbw == 3, f"cbw={rep.cbw}"),
        (rep.lines == want_lines, str([l.rep for l in rep.lines])),
        (got == expected and dec.constant == 0, f"constant={dec.constant}"),
        (dec.evaluate() == f, ""),
    ]


def run_wavelet(config: VerifyConfig, res: SuiteResult) -> None:
    """The sharp planar staircase example and its closed-form reduced parts."""
    grids, at = _suite_grids(config, (3, 2, 1), (5, 2, 1), (7, 2, 1))
    _require_plane(grids, "the staircase example")
    names = [[f"p={p}: {check}{at and f' at {_grid_name(p, 2)}'}" for check in (
        "cbw = 3", "active lines (0,1),(1,0),(1,1)", "reduced parts match the closed form",
        "reduced decomposition re-evaluates to the set")] for p, _, _ in grids]
    _check_each(res, names, ((_grid_name(p, 2), (p,)) for p, _, _ in grids), _wavelet_item)


def _round_trip_item(_i, ambient, rng) -> None:
    f = random_rational_function(ambient, rng)
    if reconstruct_from_masses(mass_table(f)) != f:
        raise TheoremViolation("reconstruct(project(f)) differs from f")


def _staircase_item(p) -> list:
    """(the staircase example round trips, every single-entry corruption of
    its mass table is rejected), as (passed, detail)."""
    f = staircase_function(p)
    table = mass_table(f)
    round_trip = reconstruct_from_masses(table) == f
    bad = tried = 0
    for i, (line, ms) in enumerate(table.rows):
        for t in range(p):
            tried += 1
            rows = list(table.rows)
            rows[i] = (line, ms[:t] + (ms[t] + 1,) + ms[t + 1:])
            try:
                reconstruct_from_masses(type(table)(table.ambient, tuple(rows)))
            except SinogramError:
                bad += 1
    return [(round_trip, ""), (bad == tried, f"{bad}/{tried} rejected")]


def run_tomography(config: VerifyConfig, res: SuiteResult) -> None:
    """Project-then-reconstruct is the identity; corrupt sinograms are rejected."""
    count = config.suite_size or 100
    ambients, at = _suite_grids(config, *_SMALL_GRIDS, count=count)
    _check_items(res, f"exact round trip on {count} functions{at}",
                 _seeded(config, "tomography", ambients), _round_trip_item,
                 lambda _: (True, "exact"))

    [(p, d, _)], at = _suite_grids(config, (3, 2, 1))
    if d != 2:  # the staircase example is planar
        return
    _check_each(res, [[f"staircase example round trips (p={p}){at}",
                       f"every single-entry corruption is rejected{at}"]],
                [(_grid_name(p, 2), (p,))], _staircase_item)


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


def run_equidist(config: VerifyConfig, res: SuiteResult) -> None:
    """Coset masses are constant exactly when the spectrum dies on the
    punctured subspace; indicator masses force divisibility by p**k."""
    count = config.suite_size or 500
    ambients, at = _suite_grids(config, *_SMALL_GRIDS, count=count)
    results = _check_items(res, f"biconditional held on {count} pairs{at}",
                           _seeded(config, "equidist", ambients), _equidist_item,
                           lambda _: (True, "no violation raised"))
    res.check(f"constructed vanishing-spectrum inputs equidistribute{at}",
              all(ok for ok, _ in results))
    res.check(f"equidistributed indicators have size divisible by p**k{at}",
              all(ok for _, ok in results))


def _uncertainty_holds(ambient, E) -> bool:
    rep = uncertainty_check(ambient, E)
    return rep.holds and rep.dim_bound_holds


def _random_set_holds(_i, ambient, rng) -> bool:
    return _uncertainty_holds(ambient, random_subset(ambient, rng, nonempty=True))


def run_uncertainty(config: VerifyConfig, res: SuiteResult) -> None:
    """((p-1)cbw + 1)|E| >= p**d for every nonempty set tested."""
    grids, _ = _suite_grids(config, (2, 2, 1), (2, 3, 1))
    for grid in grids:
        _check_items(res, f"exhaustive at {_grid_name(*grid)}",
                     _subsets(Ambient(*grid), least=1), _uncertainty_holds, _tally)
    n = config.suite_size or 1000
    [grid], _ = _suite_grids(config, (3, 3, 1))
    items = _seeded(config, "uncertainty", itertools.repeat(Ambient(*grid), n))
    _check_items(res, f"{n} random nonempty sets at {_grid_name(*grid)}", items,
                 _random_set_holds, _tally)


def _dichotomy_kinds(classes) -> tuple:
    unions = sum(cls.kind == "union_of_parallel_lines" for cls in classes)
    return True, f"{unions} unions of parallel lines, {len(classes) - unions} with cbw > d"


def run_dichotomy(config: VerifyConfig, res: SuiteResult) -> None:
    """Every set is a union of parallel lines or has cbw > d."""
    grids, _ = _suite_grids(config, (2, 2, 1), (2, 3, 1))
    for grid in grids:
        _check_items(res, f"exhaustive at {_grid_name(*grid)}", _subsets(Ambient(*grid)),
                     classify_small_cbw_set, _dichotomy_kinds)


def _paraboloid_item(admissible, _i, ambient, rng) -> bool:
    seeds = {}
    for line in admissible:
        if rng.random() < 0.8:
            seeds[line] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    f = inverse_phi(ambient, Fraction(0), seeds)
    report = check_paraboloid_theorem(f)
    return report.hypothesis_met and report.all_good


def run_paraboloid(config: VerifyConfig, res: SuiteResult) -> None:
    """Slice differences of paraboloid-vanishing functions are good."""
    [grid], _ = _suite_grids(config, (5, 3, 1))
    count = config.suite_size or 100
    ambient = Ambient(*grid)
    admissible = [line for line in enumerate_lines(ambient)
                  if classify_direction_paraboloid(ambient, line.rep) != "covered"]
    _check_items(res, f"{count} constructed functions at {_grid_name(*grid)}: "
                 "every slice difference good",
                 _seeded(config, "paraboloid", itertools.repeat(ambient, count)),
                 functools.partial(_paraboloid_item, admissible), _tally)


def _sphere_item(ambient, rng) -> list:
    """A constructed two-circle-vanishing function equidistributes on the
    spheres about 5 random centers."""
    p = ambient.p
    if p % 4 == 3:
        f = GridFunction.constant(ambient, Fraction(rng.randint(1, 5), 3))
    else:
        i = sqrt_minus_one(p)
        seeds = {
            ProjectiveLine((1, i)): Fraction(rng.randint(-4, 4), 5),
            ProjectiveLine((1, p - i)): Fraction(rng.randint(-4, 4), 5),
        }
        f = inverse_phi(ambient, Fraction(rng.randint(-4, 4), 5), seeds)
    reports = [sphere_equidistribution_check(f, random_point(ambient, rng)) for _ in range(5)]
    return [(all(r.equidistributed for r in reports), "")]


def _isotropic_item(ambient) -> list:
    """Indicator classification on the isotropic lines (1, i) and (1, -i)."""
    p = ambient.p
    i, b = sqrt_minus_one(p), least_non_residue(p)
    plus_union = {(t, (i * t + c) % p) for t in range(p) for c in (0, 1)}
    minus_union = {(t, -i * t % p) for t in range(p)}
    r1 = two_circle_analysis(GridFunction.indicator(ambient, plus_union), 1, b)
    r2 = two_circle_analysis(GridFunction.indicator(ambient, minus_union), 1, b)
    return [(r1.kind == "Lplus_union", r1.kind), (r2.kind == "Lminus_union", r2.kind)]


def run_spheres(config: VerifyConfig, res: SuiteResult) -> None:
    """Sphere counts, sphere equidistribution, and the planar line structure."""
    grids, at = _suite_grids(config, (3, 2, 1), (5, 2, 1))
    _require_plane(grids, "the sphere analysis")
    if any(p == 2 for p, _, _ in grids):
        raise ValueError("the sphere analysis is defined for odd p only, not on (2,2)")
    ambients = [Ambient(*g) for g in grids]
    where = {p: at and f" at {_grid_name(p, 2)}" for p, _, _ in grids}
    for p, _, _ in grids:
        counts = [sphere_count(p, 2, r) for r in range(1, p)]
        res.check(f"p={p}, d=2: nonzero-radius spheres equinumerous{where[p]}",
                  len(set(counts)) == 1, f"measured counts {counts}")
    names = [[f"p={a.p}: equidistributed on spheres about 5 random centers{where[a.p]}"]
             for a in ambients]
    _check_each(res, names, _shared(config, "spheres", ambients), _sphere_item)
    isotropic = [a for a in ambients if a.p % 4 == 1]  # (1, i) exists for p = 1 mod 4 only
    names = [[f"p={a.p}: two parallel isotropic lines classify as Lplus_union{where[a.p]}",
              f"p={a.p}: a line parallel to (1,-i) classifies as Lminus_union{where[a.p]}"]
             for a in isotropic]
    _check_each(res, names, ((_grid_of(a), (a,)) for a in isotropic), _isotropic_item)


def _self_duals(ambient, classes) -> tuple:
    """The self-dual sets: the empty set, then each Lagrangian subspace (eigenvalue p**(-d/2))."""
    found = [(c.kind, c.eigenvalue) for c in classes if c.kind != "not_self_dual"]
    lagrangian = ("lagrangian", Fraction(1, ambient.p ** (ambient.d // 2)))
    expected = [("empty", 0)] + [lagrangian] * len(enumerate_lagrangian(ambient))
    return found == expected, f"self-dual: {found}"


def run_selfdual(config: VerifyConfig, res: SuiteResult) -> None:
    """Exhaustive classification of sets with transform proportional to themselves."""
    grids, _ = _suite_grids(config, (2, 2, 1), (3, 2, 1), (2, 3, 1))
    for grid in grids:
        ambient = Ambient(*grid)
        _check_items(res, f"exhaustive over all {2 ** ambient.size} subsets at {_grid_of(ambient)}",
                     _subsets(ambient), self_dual_classify, functools.partial(_self_duals, ambient))


def _affine_item(tol: float, ambient, rng) -> tuple:
    V = random_subspace(ambient, rng, min_dim=0 if rng.random() < 0.2 else 1)
    x = random_point(ambient, rng)
    return _residual(affine_eigenfunction_pair(V, x), tol)


def _residual(pair, tol: float) -> tuple:
    """The pair's larger residual, and whether the zero rule over its values holds."""
    r = max(eigen_residuals(pair))
    return r, pair.exact or r <= zero_bound(pair.plus.values + pair.minus.values, tol)


def run_eigen(config: VerifyConfig, res: SuiteResult) -> None:
    """Plus/minus eigenfunction identities, plain and conjugate."""
    tol = config.tolerance
    grids, at = _suite_grids(config, (2, 2, 1), (3, 2, 1), (2, 3, 1))
    ambients = [Ambient(*g) for g in grids]
    plain = ((_grid_of(a) + ", V={0.basis}", (V,)) for a in ambients for V in all_subspaces(a))
    _check_items(res, f"plain pairs for every subspace{at or ' at ((2, 2), (3, 2), (2, 3))'}",
                 plain, lambda V: _residual(eigenfunction_pair(V), tol), lambda pairs: (
                     all(ok for _, ok in pairs),
                     f"{len(pairs)} pairs, max residual {max(r for r, _ in pairs):.2e}"))
    n_aff = config.suite_size or 20
    affine = _shared(config, "eigen", itertools.islice(itertools.cycle(ambients), n_aff))
    _check_items(res, f"{n_aff} random affine conjugate pairs{at}", affine,
                 functools.partial(_affine_item, tol), lambda pairs: (
                     all(ok for _, ok in pairs), f"max residual {max(r for r, _ in pairs):.2e}"))


def _zpl_item(_i, ambient, rng) -> bool:
    f = random_rational_function(ambient, rng)
    parts = [part.function for part in multiscale_decompose(forward(f))]
    return sum(parts[1:], parts[0]) == f


def run_zpl(config: VerifyConfig, res: SuiteResult) -> None:
    """Valuation geometry and the multiscale decomposition over Z_{p**ell}."""
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
    ok_h = all(len(hyperplane_points(ambient, v, 0))
               == p ** (ell * (d - 1) + vector_valuation(ambient, v)) for v in nonzero)
    res.check(f"hyperplane sizes match for all {len(nonzero)} nonzero directions{at}", ok_h)
    ok_l = all(len(line_through(ambient, v).points(ambient))
               == p ** (ell - vector_valuation(ambient, v)) for v in nonzero)
    res.check(f"line cardinality p**(l - valuation) for every generator{at}", ok_l)

    count = config.suite_size or 100
    _check_items(res, f"multiscale decomposition round-trips {count} random functions{at}",
                 _seeded(config, "zpl", itertools.repeat(ambient, count)), _zpl_item,
                 lambda oks: _tally(oks, "exact"))


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
    """One suite's result.  It keeps the checks made before a raise outside
    any work item: a TheoremViolation or HypothesisNotMet adds a failing
    check and a counterexample, and a refusal of the requested grid (a
    CapacityError, or a ValueError for a statement the grid does not cover)
    adds a failing check and marks the suite refused."""
    res = SuiteResult(name)
    try:
        SUITES[name](config, res)
    except (TheoremViolation, HypothesisNotMet) as exc:
        res.counterexamples.append(str(exc))
        res.check(f"raised {type(exc).__name__}", False, str(exc))
    except (CapacityError, ValueError) as exc:
        res.refused = str(exc)
        res.check(f"raised {type(exc).__name__}", False, str(exc))
    return res
