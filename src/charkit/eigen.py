"""Eigenstructure of the normalized transform: self-dual sets, Lagrangian
subspaces, plus/minus eigenfunction pairs built from a subspace and its
perpendicular, and the eigen-expansion of arbitrary functions.

For a subspace V of dimension k the pair

    f+ = p**(d/2-k) 1_V + 1_{V perp},   f- = p**(d/2-k) 1_V - 1_{V perp}

consists of eigenfunctions with eigenvalues +-p**(-d/2); translating V and
modulating the perpendicular term produces eigenfunctions of the conjugate
transform.  When d is even the coefficients are rational and everything is
exact; odd d forces the floating path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TheoremViolation
from .fourier import (
    COMPLEX,
    CYCLOTOMIC,
    RATIONAL,
    GridFunction,
    _coerce_value,
    _from_lattice,
    _set_spectrum,
    forward,
)
from .geometry import (
    Ambient,
    Point,
    Subspace,
    dots,
    enumerate_subspaces,
    grid_point,
    perp,
    point_set,
    require_prime_grid,
)
from .scalars import DEFAULT_TOL, Cyclotomic, _embed_roots, is_zero, zero_bound
from .wavelets import decompose


@dataclass(frozen=True)
class EigenPair:
    plus: GridFunction
    minus: GridFunction
    eigenvalue_magnitude: float
    transform_kind: str  # "plain" | "conjugate"
    degenerate: bool
    exact: bool
    subspace: Subspace
    offset: Point


@dataclass(frozen=True)
class SelfDualResult:
    kind: str  # "empty" | "lagrangian" | "not_self_dual"
    subspace: Subspace | None = None
    eigenvalue: Fraction | None = None


def self_dual_classify(ambient: Ambient, E) -> SelfDualResult:
    """Decide whether the transform of 1_E equals lambda * 1_E.

    Evaluating at the origin forces lambda = |E|/p**d for nonempty E, so a
    single candidate is tested, exactly: the spectrum of ``set_spectrum``
    against lambda * 1_E on the lattice, the column |E| at the members
    and 0 elsewhere over p**d.  A nonempty self-dual set must be a Lagrangian subspace with
    lambda = p**(-d/2); anything else raises TheoremViolation.
    """
    require_prime_grid(ambient)
    members = point_set(ambient, E)
    target = [len(members) if x in members else 0 for x in ambient.points()]
    F = _set_spectrum(ambient, members)
    if F != _from_lattice(ambient, [target], ambient.size, RATIONAL):
        return SelfDualResult(kind="not_self_dual")
    lam = Fraction(len(members), ambient.size)
    if not members:
        return SelfDualResult(kind="empty", eigenvalue=Fraction(0))
    span = Subspace.span(ambient, members)
    if frozenset(span.points()) != members:
        raise TheoremViolation("nonempty self-dual set is not a subspace")
    if perp(span) != span:
        raise TheoremViolation("nonempty self-dual subspace is not Lagrangian")
    if ambient.d % 2 != 0 or lam != Fraction(1, ambient.p ** (ambient.d // 2)):
        raise TheoremViolation("self-dual eigenvalue differs from p**(-d/2)")
    return SelfDualResult(kind="lagrangian", subspace=span, eigenvalue=lam)


def enumerate_lagrangian(ambient: Ambient) -> list:
    """All subspaces equal to their own perpendicular; empty for odd d."""
    if ambient.d % 2 != 0:
        return []
    half = ambient.d // 2
    return [L for L in enumerate_subspaces(ambient, half) if perp(L) == L]


def _pair_values(ambient, k, in_V, in_W, phases, exact):
    """Assemble coef*1_{V+x} +- phase*1_{W} pointwise; the GridFunction
    built from them promotes every value to the pair's kind."""
    p, d = ambient.p, ambient.d
    coef = Fraction(p) ** (Fraction(d, 2) - k) if exact else p ** (d / 2 - k)
    plus, minus = [], []
    for member, wmember, ph in zip(in_V, in_W, phases):
        a = coef if member else 0
        b = ph if wmember else 0
        plus.append(a + b)
        minus.append(a - b)
    return plus, minus


def eigenfunction_pair(V: Subspace) -> EigenPair:
    """The plus/minus eigenfunctions built from V and its perpendicular.

    When V is Lagrangian the minus function vanishes and the pair comes
    back degenerate rather than erroring, so callers can stay total.
    """
    return affine_eigenfunction_pair(V, V.ambient.origin())


def affine_eigenfunction_pair(V: Subspace, x: Point) -> EigenPair:
    """Conjugate-transform eigenfunctions from the coset V+x.

    plus = p**(d/2-k) 1_{V+x} + chi(x.m) 1_{V perp}; at x = 0 this reduces
    to the plain pair.  Exact (rational or cyclotomic scalars) when d is
    even, floating otherwise.
    """
    ambient = V.ambient
    p, d = ambient.p, ambient.d
    x = grid_point(ambient, x)
    k = V.dim
    W = perp(V)
    exact = d % 2 == 0
    pts = ambient.points()
    anchor = V.reduce(x)
    in_V = [V.reduce(pt) == anchor for pt in pts]  # membership of pt in V+x
    in_W = [W.contains(pt) for pt in pts]
    translated = x != ambient.origin()
    if exact:
        if translated:
            phases = [Cyclotomic.zeta(p, u) for u in dots(ambient, x)]
            kind = CYCLOTOMIC
        else:
            phases = [Fraction(1)] * len(pts)
            kind = RATIONAL
    else:
        roots = _embed_roots(p)
        phases = [roots[u] for u in dots(ambient, x)]
        kind = COMPLEX
    plus_vals, minus_vals = _pair_values(ambient, k, in_V, in_W, phases, exact)
    plus = GridFunction(ambient, kind, plus_vals)
    minus = GridFunction(ambient, kind, minus_vals)
    return EigenPair(
        plus=plus,
        minus=minus,
        eigenvalue_magnitude=p ** (-d / 2),
        transform_kind="plain" if not translated else "conjugate",
        degenerate=minus.is_zero(),
        exact=exact,
        subspace=V,
        offset=x,
    )


def eigen_residuals(pair: EigenPair):
    """Sup-norm residuals of the eigen identities for the pair.

    plain:     forward(f) - lambda * f
    conjugate: forward(f) - lambda * conj(f)

    Returns (plus_residual, minus_residual) as floats and, on the exact
    path, additionally asserts exact equality.
    """
    ambient = pair.subspace.ambient
    lam = Fraction(1, ambient.p ** (ambient.d // 2)) if pair.exact else pair.eigenvalue_magnitude

    def residual(g: GridFunction, sign: int) -> float:
        F = forward(g)
        if pair.exact:
            if pair.transform_kind == "plain":
                target = g.scale(sign * lam)
            else:  # conj = sigma_(q-1), applied to the columns
                target = g.galois(ambient.modulus - 1).scale(sign * lam)
            if F != target:
                raise TheoremViolation(
                    f"exact eigen identity failed for the {pair.transform_kind} pair"
                )
            return 0.0
        Fc = F.to_complex().values
        gc = g.to_complex().values
        if pair.transform_kind == "conjugate":
            gc = [v.conjugate() for v in gc]
        return max(
            abs(a - sign * pair.eigenvalue_magnitude * b) for a, b in zip(Fc, gc)
        )

    plus_res = residual(pair.plus, +1)
    minus_res = 0.0 if pair.degenerate else residual(pair.minus, -1)
    return plus_res, minus_res


@dataclass(frozen=True)
class ExpansionTerm:
    pair: EigenPair
    plus_coeff: object
    minus_coeff: object
    line_rep: Point | None
    shift: int | None


@dataclass(frozen=True)
class Expansion:
    ambient: Ambient
    terms: tuple

    def evaluate(self) -> GridFunction:
        acc = None
        for term in self.terms:
            part = term.pair.plus.scale(term.plus_coeff)
            part = part + term.pair.minus.scale(term.minus_coeff)
            acc = part if acc is None else acc + part
        if acc is None:
            return GridFunction.constant(self.ambient, 0)
        return acc


def eigen_expand(f: GridFunction, tol: float = DEFAULT_TOL) -> Expansion:
    """Write f as a combination of conjugate-transform eigenfunctions.

    Routes through the plain wavelet decomposition; each hyperplane
    indicator 1_{H_{s,t}} equals (plus + minus) / (2 * p**(d/2-k)) for the
    pair built on V = H_{s,0} and a deterministic offset with x.s = t.
    Coefficients zero by the zero rule are skipped.  At odd d the pairs
    are floating, and cyclotomic coefficients enter by their complex value.
    """
    ambient = f.ambient
    p, d = ambient.p, ambient.d
    exact = d % 2 == 0
    dec = decompose(f, form="plain", tol=tol)
    bound = zero_bound([dec.constant, *(c for w in dec.parts for c in w.coeffs)], tol)
    terms = []

    def scaled(c, k: int):
        """c / (2 * p**(d/2-k)); at odd d, c's complex value, which must be finite."""
        if exact:
            return c * (Fraction(1, 2) * Fraction(p) ** (k - Fraction(d, 2)))
        return _coerce_value(COMPLEX, c, ambient) * (1.0 / (2 * p ** (d / 2 - k)))

    if not is_zero(dec.constant, bound):
        V = Subspace.full(ambient)
        pair = affine_eigenfunction_pair(V, ambient.origin())
        c = scaled(dec.constant, d)
        terms.append(ExpansionTerm(pair, c, c, None, None))
    for w in dec.parts:
        s = w.direction.rep
        V = perp(Subspace.span(ambient, [s]))  # the hyperplane x.s = 0
        axis = s.index(1)
        for t, c in enumerate(w.coeffs):
            if is_zero(c, bound):
                continue
            x = tuple(t if i == axis else 0 for i in range(d))
            pair = affine_eigenfunction_pair(V, x)
            cc = scaled(c, d - 1)
            terms.append(ExpansionTerm(pair, cc, cc, s, t))
    return Expansion(ambient, tuple(terms))
