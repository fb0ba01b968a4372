"""Reference checks for every request of a pass.

Each check parses one CLI output and compares it with a value computed by
``exact`` from the generated input, never by charkit:

- transform:   direct character sum at every frequency on grids of at most
               SMALL_GRID points, at SAMPLES seeded frequencies (and the
               origin) on larger grids;
- inverse:     the same sum with the opposite sign, at seeded points;
- bandwidth:   active lines from a direct mass scan (line s is active
               exactly when its mass row is not constant);
- project:     the full mass table from a direct scan;
- reconstruct: the function the sinogram was projected from;
- decompose:   the decomposition, evaluated point by point, equals f, and
               its directions are the active lines;
- zpl:         wavelet and multiscale structure predicted from the exact
               support of the spectrum; that the parts sum to f is taken
               from charkit's own report, as the output holds no parts;
- verify:      a report with "passed": true.

Byte identity across passes is checked by the caller.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction

import exact
from inputs import COMPLEX, CYCLOTOMIC, RATIONAL

SMALL_GRID = 128
SAMPLES = 32
# Complex outputs are computed in floating point; charkit compares them
# with an absolute tolerance of 1e-9, and so does this module.
TOL = 1e-9


class Mismatch(Exception):
    pass


def _expect(cond, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _coords(inp, v) -> tuple:
    """Power-basis coordinates (Fractions) of an exact input value."""
    if inp.kind == RATIONAL:
        return (Fraction(v),) + (Fraction(0),) * (exact.degree(inp.p, inp.ell) - 1)
    return tuple(Fraction(c) for c in v)


def parse_scalar(payload, kind: str, p: int, ell: int):
    """Output scalar as power-basis coordinates, or a complex number."""
    phi = exact.degree(p, ell)
    if kind == COMPLEX:
        _expect(isinstance(payload, list) and len(payload) == 2, f"bad complex {payload!r}")
        return complex(payload[0], payload[1])
    if isinstance(payload, str):
        return (Fraction(payload),) + (Fraction(0),) * (phi - 1)
    _expect(isinstance(payload, dict), f"bad exact scalar {payload!r}")
    _expect(payload.get("p") == p and payload.get("ell", 1) == ell, "wrong conductor")
    coeffs = tuple(Fraction(c) for c in payload["coeffs"])
    _expect(len(coeffs) == phi, "wrong number of coefficients")
    return coeffs


def _close(a: complex, b: complex) -> bool:
    return abs(a.real - b.real) <= TOL and abs(a.imag - b.imag) <= TOL


def _same(a, b, approximate: bool) -> bool:
    return _close(a, b) if approximate else tuple(a) == tuple(b)


def _grid_function(out: dict, inp, kinds) -> tuple:
    _expect(out.get("p") == inp.p and out.get("d") == inp.d, "wrong grid")
    _expect(out.get("modulus_exponent", 1) == inp.ell, "wrong modulus exponent")
    _expect(out.get("kind") in kinds, f"unexpected kind {out.get('kind')!r}")
    values = out["values"]
    _expect(len(values) == inp.size, "wrong number of values")
    return out["kind"], values


def _sample(inp, rid: int, seed: int) -> list:
    pts = exact.points(inp.q, inp.d)
    if inp.size <= SMALL_GRID:
        return pts
    rng = random.Random(f"{seed}/check/{rid}")
    return [pts[0]] + rng.sample(pts[1:], SAMPLES)


class Checker:
    """Checks outputs of one workload; caches per-input reference data."""

    def __init__(self, seed: int):
        self.seed = seed
        self._scaled = {}
        self._masses = {}

    # -- per-input reference data

    def scaled(self, inp):
        if inp.name not in self._scaled:
            self._scaled[inp.name] = exact.common_scale([_coords(inp, v) for v in inp.values])
        return self._scaled[inp.name]

    def masses(self, inp) -> dict:
        """Direct-scan mass rows {line: [m_0..m_{p-1}]}, scalars as in parse_scalar."""
        if inp.name not in self._masses:
            p, d = inp.p, inp.d
            rows = {}
            if inp.kind == COMPLEX:
                for s in exact.lines(p, d):
                    rows[s] = exact.mass_row(inp.values, exact.dots(p, d, s), p, 0j)
            else:
                den, ints = self.scaled(inp)
                cols = [[v[j] for v in ints] for j in range(len(ints[0]))]
                zero_row = [0] * p
                for s in exact.lines(p, d):
                    ts = exact.dots(p, d, s)
                    per = [exact.mass_row(c, ts, p, 0) if any(c) else zero_row for c in cols]
                    rows[s] = [tuple(Fraction(m[t], den) for m in per) for t in range(p)]
            self._masses[inp.name] = rows
        return self._masses[inp.name]

    def active_lines(self, inp) -> list:
        """Lines whose punctured spectrum is not zero, from the mass rows: the
        spectrum on the line through s is the length-p DFT of row s."""
        p = inp.p
        roots = [cmath.exp(-2j * cmath.pi * e / p) for e in range(p)]
        out = []
        for s, row in self.masses(inp).items():
            if inp.kind == COMPLEX:
                active = any(
                    abs(sum(m * roots[k * t % p] for t, m in enumerate(row))) / inp.size > TOL
                    for k in range(1, p)
                )
            else:
                active = any(m != row[0] for m in row)
            if active:
                out.append(s)
        return out

    # -- checks

    def check(self, req, text: str) -> None:
        """Raise Mismatch unless ``text`` is the correct output of ``req``."""
        try:
            out = json.loads(text)
        except ValueError as exc:
            raise Mismatch(f"output is not JSON: {exc}") from exc
        getattr(self, "_check_" + req.command)(req, out)

    def _spectrum_values(self, req, out, sign: int) -> None:
        inp = req.inp
        approximate = inp.kind == COMPLEX
        if sign < 0:
            kinds = (COMPLEX,) if approximate else (CYCLOTOMIC,)
        else:
            kinds = (RATIONAL, CYCLOTOMIC)
        kind, values = _grid_function(out, inp, kinds)
        norm = inp.size if sign < 0 else 1
        index = {x: i for i, x in enumerate(exact.points(inp.q, inp.d))}
        for m in _sample(inp, req.rid, self.seed):
            got = parse_scalar(values[index[m]], kind, inp.p, inp.ell)
            if approximate:
                want = exact.complex_char_sum(inp.values, inp.q, inp.d, m, sign, norm)
            else:
                den, ints = self.scaled(inp)
                want = exact.char_sum(ints, den, inp.p, inp.ell, inp.d, m, sign, norm)
                if kind == RATIONAL:
                    _expect(not any(want[1:]), f"value at {m} is not rational")
            _expect(_same(got, want, approximate), f"value at {m} differs from the reference")

    def _check_transform(self, req, out) -> None:
        self._spectrum_values(req, out, -1)

    def _check_inverse(self, req, out) -> None:
        self._spectrum_values(req, out, +1)

    def _check_bandwidth(self, req, out) -> None:
        inp = req.inp
        lines = self.active_lines(inp)
        cbw = len(lines)
        _expect(out["lines"] == [list(s) for s in lines], "active lines differ")
        _expect(out["cbw"] == cbw, "cbw differs")
        _expect(Fraction(out["bw"]) == Fraction(cbw * (inp.p - 1), inp.size - 1), "bw differs")
        _expect(math.isclose(out["bwd"], math.log((inp.p - 1) * cbw + 1, inp.p),
                             rel_tol=1e-12, abs_tol=1e-12), "bwd differs")
        _expect(out["approximate"] is (inp.kind == COMPLEX), "approximate flag differs")

    def _check_project(self, req, out) -> None:
        inp = req.inp
        _expect(out.get("p") == inp.p and out.get("d") == inp.d, "wrong grid")
        rows = self.masses(inp)
        _expect([tuple(r["s"]) for r in out["masses"]] == list(rows), "directions differ")
        approximate = inp.kind == COMPLEX
        for r in out["masses"]:
            want = rows[tuple(r["s"])]
            got = [parse_scalar(m, inp.kind, inp.p, inp.ell) for m in r["m"]]
            _expect(len(got) == inp.p, "wrong row length")
            _expect(all(_same(g, w, approximate) for g, w in zip(got, want)),
                    f"masses along {r['s']} differ")

    def _check_reconstruct(self, req, out) -> None:
        inp = req.inp
        _, values = _grid_function(out, inp, (RATIONAL,))
        _expect([Fraction(v) for v in values] == inp.values, "reconstruction differs from f")

    def _check_decompose(self, req, out) -> None:
        inp = req.inp
        p, d = inp.p, inp.d
        _expect(out.get("p") == p and out.get("d") == d, "wrong grid")
        _expect(out["form"] == "reduced", "wrong form")
        parts = out["parts"]
        _expect([tuple(w["s"]) for w in parts] == self.active_lines(inp),
                "part directions differ from the active lines")
        parse = lambda v: parse_scalar(v, inp.kind, p, inp.ell)  # noqa: E731
        constant = parse(out["constant"])
        coeffs = [[parse(c) for c in w["coeffs"]] for w in parts]
        _expect(all(len(c) == p for c in coeffs), "wrong coefficient count")
        if inp.kind == COMPLEX:
            _expect(all(_close(c[0], 0j) for c in coeffs), "reduced part with c_0 != 0")
            acc = [constant] * inp.size
            for w, c in zip(parts, coeffs):
                acc = [a + c[t] for a, t in zip(acc, exact.dots(p, d, w["s"]))]
            _expect(all(_close(a, v) for a, v in zip(acc, inp.values)),
                    "decomposition does not evaluate to f")
            return
        _expect(all(not any(c[0]) for c in coeffs), "reduced part with c_0 != 0")
        flat = [constant] + [v for c in coeffs for v in c]
        den, ints = exact.common_scale(flat)
        const_i, coeff_i = ints[0], ints[1:]
        want_den, want = self.scaled(inp)
        for j in range(exact.degree(p, inp.ell)):
            if not (const_i[j] or any(v[j] for v in coeff_i) or any(v[j] for v in want)):
                continue  # a coordinate that is zero on both sides
            acc = [const_i[j]] * inp.size
            for k, w in enumerate(parts):
                col = [v[j] for v in coeff_i[k * p:(k + 1) * p]]
                acc = [a + col[t] for a, t in zip(acc, exact.dots(p, d, w["s"]))]
            _expect(
                all(a * want_den == v[j] * den for a, v in zip(acc, want)),
                "decomposition does not evaluate to f",
            )

    def _check_zpl(self, req, out) -> None:
        inp = req.inp
        p, ell, d, q = inp.p, inp.ell, inp.d, inp.q
        den, ints = self.scaled(inp)
        pts = exact.points(q, d)
        origin = pts[0]
        support = {
            m for m in pts
            if any(exact.char_sum(ints, den, p, ell, d, m, -1, inp.size))
        }
        lines = exact.ring_lines(p, ell, d)
        top = [(g, pt) for g, level, pt in lines if level == ell]
        if not support - {origin}:
            want_top = (True, True, None, None)
        else:
            x0 = next(iter(support))
            through = next((g for g, pt in top if support <= pt), None)
            shifted = next(
                (g for g, pt in top
                 if all(tuple((a - b) % q for a, b in zip(x, x0)) in pt for x in support)),
                None,
            )
            gen = through or shifted
            want_top = (gen is not None, False, list(gen) if gen else None,
                        ell if gen else None)
        got = out["top_level_wavelet"]
        _expect((got["is_wavelet"], got["is_constant"], got["generator"], got["level"])
                == want_top, "top-level wavelet verdict differs")

        unclaimed = support - {origin}
        levels = []
        for j in range(ell):
            for g, level, pt in lines:
                if level != ell - j:
                    continue
                mine = unclaimed & pt
                if any(exact.vector_valuation(x, p, ell) == j for x in mine):
                    unclaimed -= mine
                    levels.append(level)
        if len(levels) != 1 and (not levels or origin in support):
            levels.append(None)
        ms = out["multiscale"]
        _expect(ms["levels"] == levels and ms["parts"] == len(levels),
                "multiscale parts differ")
        # The zpl output holds no parts, only charkit's own verdict that they
        # sum to f, so this one field is the program's self-report and is not
        # checked independently.
        _expect(ms["reconstruction"] == "exact", "multiscale parts do not sum to f")

    def _check_verify(self, req, out) -> None:
        _expect(out.get("seed") == req.extra["seed"], "wrong seed")
        suites = out["suites"]
        _expect([s["suite"] for s in suites] == [req.extra["suite"]], "wrong suite")
        _expect(out["passed"] is True, "suite reports a failure")
        _expect(all(c["passed"] for s in suites for c in s["checks"]), "a check failed")
        _expect(not any(s["counterexamples"] for s in suites), "counterexamples reported")
