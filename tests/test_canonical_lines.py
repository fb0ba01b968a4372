"""A grid's canonical lines, prepared once and read whole.

The directions of sinogram and decomposition rows and the lines of a
bandwidth report are written from texts made once per generator, so
``bandwidth_report_dumps`` must write ``canonical_dumps`` of
``bandwidth_report_payload`` for every kind, a report of no line
included, and a table of lines that are not canonical, or on a grid of
too many lines to enumerate, must still be written.  The sinogram reader
takes a file of every canonical generator in canonical order whole, by
one compare after the int check of the coordinates (``[True, False] ==
[1, 0]``), and hands every other file to the per-value reader: each
must give the table, or the exit code and message, of the per-value
reader.
``support_profile`` counts the hits of every line from one flat list of
punctured indices, and must give the lines, and name the first mixed
line, as a loop over the lines of ``line_indices`` does.
"""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charkit import cli, fileio
from charkit.bandwidth import bandwidth, support_profile
from charkit.corpus import (
    random_complex_function,
    random_cyclotomic_function,
    random_rational_function,
    rng_for,
)
from charkit.errors import TheoremViolation
from charkit.fourier import GridFunction, _lattice_of
from charkit.geometry import Ambient, ProjectiveLine, dots, enumerate_lines, line_indices
from charkit.scalars import Cyclotomic
from charkit.wavelets import MassTable, mass_table

FIXED = settings(derandomize=True, database=None, deadline=None)
KINDS = ("rational", "cyclotomic", "complex")
RANDOM = {
    "rational": random_rational_function,
    "cyclotomic": random_cyclotomic_function,
    "complex": random_complex_function,
}


def run_cli(capsys, *argv) -> tuple:
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _value(rng, p, kind):
    if kind == "complex":
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if kind == "rational":
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Cyclotomic(p, [Fraction(rng.randint(-3, 3)) for _ in range(p - 1)])


def _functions(ambient, kind):
    """A random function of ``kind``, a function of x.s and x.s' only (its
    spectrum lies on the lines of s and s') and a constant (no line)."""
    rng = rng_for(3301, f"canonical-lines/{ambient.p}/{ambient.d}/{kind}")
    lines = enumerate_lines(ambient)
    two = None
    for line in rng.sample(lines, min(2, len(lines))):
        values = [_value(rng, ambient.p, kind) for _ in range(ambient.p)]
        part = GridFunction(ambient, kind, [values[u] for u in dots(ambient, line.rep)])
        two = part if two is None else two + part
    constant = {"rational": Fraction(-5, 3), "cyclotomic": Cyclotomic.zeta(ambient.p), "complex": 0.5 - 2j}
    return [RANDOM[kind](ambient, rng), two, GridFunction.constant(ambient, constant[kind])]


# --- the bandwidth writer writes the canonical payload

BANDWIDTH_GRIDS = [(2, d) for d in range(1, 11)] + [(3, 6), (5, 3), (7, 2)]


@pytest.mark.parametrize("p,d", BANDWIDTH_GRIDS)
@pytest.mark.parametrize("kind", KINDS)
def test_the_bandwidth_writer_writes_the_canonical_text_of_its_payload(p, d, kind):
    ambient = Ambient(p, d)
    seen = set()
    for f in _functions(ambient, kind):
        report = bandwidth(f)
        want = fileio.canonical_dumps(fileio.bandwidth_report_payload(report))
        assert fileio.bandwidth_report_dumps(report) == want
        seen.add(report.cbw)
        if report.cbw == 0:
            assert '"lines": []' in want
    assert 0 in seen and max(seen) >= min(2, len(enumerate_lines(ambient)))


@pytest.mark.parametrize("p,d", [(2, 1), (2, 10), (3, 6), (7, 2)])
@pytest.mark.parametrize("form", ["json", "table"])
def test_cli_bandwidth_writes_the_report_to_stdout_and_to_output(tmp_path, capsys, p, d, form):
    for i, f in enumerate(_functions(Ambient(p, d), "rational")):
        report = bandwidth(f)
        payload = fileio.bandwidth_report_payload(report)
        want = fileio.canonical_dumps(payload) if form == "json" else cli._render_table(payload)
        fn, out = tmp_path / f"f{i}.json", tmp_path / f"out{i}.json"
        fileio.save_function(f, fn)
        argv = ["bandwidth", "--input", str(fn), "--format", form]
        assert run_cli(capsys, *argv) == (0, want, "")
        assert run_cli(capsys, *argv, "--output", str(out)) == (0, "", "")
        assert out.read_text(encoding="utf-8") == want


def test_the_line_writers_write_lines_that_are_not_canonical_or_not_enumerable():
    # (2, 0) generates the line of (1, 0) on Z_3^2 but is not its canonical
    # generator; Z_2^21 has too many lines to enumerate
    for ambient, line in [(Ambient(3, 2), ProjectiveLine((2, 0))), (Ambient(2, 21), ProjectiveLine((1,) * 21))]:
        table = MassTable(ambient, [(line, tuple(Fraction(t, 3) for t in range(ambient.p)))])
        assert fileio.sinogram_dumps(table) == fileio.canonical_dumps(fileio.sinogram_to_payload(table))


# --- the sinogram reader: one compare with the canonical generators

READER_GRIDS = [(2, 1), (2, 4), (3, 2), (3, 3), (5, 2), (7, 1)]


def _per_value(monkeypatch, call):
    """``call()`` with the whole-list reader turned off, so that the
    per-value reader reads every file: the table or the error it gives."""
    with monkeypatch.context() as m:
        m.setattr(fileio, "_sinogram_whole", lambda ambient, entries: None)
        return call()


def _variants(payload, rng) -> dict:
    """The canonical file ``payload`` and files made from it: rows
    permuted, generators multiplied by a unit (the masses relabelled to
    match), coordinates moved by multiples of p, a row missing, a row
    repeated, a row's direction replaced by another's (as many rows as
    lines, not canonical), and bool coordinates."""
    p, rows = payload["p"], payload["masses"]
    out = {"canonical": payload}
    shuffled = rows[:]
    rng.shuffle(shuffled)
    out["permuted"] = {**payload, "masses": shuffled}
    if p > 2:
        scaled = []
        for row in rows:
            c = rng.randrange(2, p)
            m = [None] * p
            for t, mass in enumerate(row["m"]):
                m[c * t % p] = mass  # x.(c s) = c (x.s)
            scaled.append({"s": [c * x % p for x in row["s"]], "m": m})
        out["non-canonical generators"] = {**payload, "masses": scaled}
    moved = [{**row, "s": [x + p * rng.choice([-2, -1, 1, 3]) for x in row["s"]]} for row in rows]
    out["coordinates out of range"] = {**payload, "masses": moved}
    out["missing"] = {**payload, "masses": rows[:-1]}
    out["duplicate"] = {**payload, "masses": rows + rows[:1]}
    if len(rows) > 1:
        out["duplicate in place"] = {**payload, "masses": rows[:-1] + [{**rows[-1], "s": rows[0]["s"]}]}
    out["bool coordinates"] = {**payload, "masses": [{**rows[0], "s": [bool(x) for x in rows[0]["s"]]}] + rows[1:]}
    return out


@pytest.mark.parametrize("p,d", READER_GRIDS)
@pytest.mark.parametrize("kind", KINDS)
def test_the_reader_gives_the_per_value_reader_table_or_error(tmp_path, capsys, monkeypatch, p, d, kind):
    ambient = Ambient(p, d)
    rng = rng_for(3302, f"canonical-lines/reader/{p}/{d}/{kind}")
    canonical = json.loads(fileio.sinogram_dumps(mass_table(RANDOM[kind](ambient, rng))))
    for name, payload in _variants(canonical, random.Random(f"{p}/{d}/{kind}")).items():
        fn = tmp_path / "sinogram.json"
        fn.write_text(json.dumps(payload))
        argv = ("tomography", "reconstruct", "--input", str(fn))
        got = run_cli(capsys, *argv)
        assert got == _per_value(monkeypatch, lambda: run_cli(capsys, *argv)), name
        try:
            table = fileio.sinogram_from_payload(payload)
        except Exception as exc:  # the per-value reader must refuse it alike
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                _per_value(monkeypatch, lambda: fileio.sinogram_from_payload(payload))
            assert name.startswith(("duplicate", "bool")), name
            continue
        want = _per_value(monkeypatch, lambda: fileio.sinogram_from_payload(payload))
        assert table == want and table.directions() == want.directions(), name
        assert (table._masses.kind, _lattice_of(table._masses)) == (want._masses.kind, _lattice_of(want._masses))
        # only a file of the canonical directions is taken as it is, with the grid's own lines
        canonical_order = [row["s"] for row in payload["masses"]] == [row["s"] for row in canonical["masses"]]
        assert (table.directions() is enumerate_lines(ambient)) == canonical_order, name


def test_bool_coordinates_are_refused_before_the_compare(tmp_path, capsys):
    payload = json.loads(fileio.sinogram_dumps(mass_table(random_rational_function(Ambient(2, 3), rng_for(1, "b")))))
    payload["masses"][0]["s"] = [False, False, True]  # == [0, 0, 1], the first canonical generator
    fn = tmp_path / "sinogram.json"
    fn.write_text(json.dumps(payload))
    message = "data error: sinogram direction must be a list of 3 integers, got [False, False, True]\n"
    assert run_cli(capsys, "tomography", "reconstruct", "--input", str(fn)) == (2, "", message)


def test_a_canonical_file_of_many_lines_reads_as_its_table():
    ambient = Ambient(2, 10)
    table = mass_table(random_rational_function(ambient, rng_for(3303, "canonical-lines/2/10")))
    read = fileio.sinogram_from_payload(json.loads(fileio.sinogram_dumps(table)))
    assert read == table and read.directions() is enumerate_lines(ambient)


# --- line support counted on whole columns


def per_line_profile(F, source_kind):
    """The active lines, or the message naming the first mixed line, by a
    loop over the lines of ``line_indices``."""
    nonzero = F.nonzero()
    active = []
    for line, indices in line_indices(F.ambient).items():
        hits = sum(nonzero[i] for i in indices[1:])
        if source_kind == "rational" and F.kind != "complex" and 0 < hits < len(indices) - 1:
            return (
                f"rational source has a mixed line through {line.rep}: "
                "zero and nonzero values on one punctured line"
            )
        if hits:
            active.append(line)
    return tuple(active)


@st.composite
def spectra(draw):
    """A spectrum on a small grid whose zeros lie on random points, on whole
    punctured lines, or on whole lines but for one point."""
    p, d = draw(st.sampled_from([(2, 3), (2, 6), (3, 2), (3, 4), (5, 2), (7, 2)]))
    ambient = Ambient(p, d)
    kind = draw(st.sampled_from(KINDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mode = draw(st.sampled_from(["points", "lines", "lines but one point"]))
    if mode == "points":
        mask = [rng.random() < 0.5 for _ in range(ambient.size)]
    else:
        mask = [False] * ambient.size
        for indices in line_indices(ambient).values():
            if rng.random() < 0.5:
                for i in indices[1:]:
                    mask[i] = True
        if mode == "lines but one point":
            i = rng.randrange(1, ambient.size)
            mask[i] = not mask[i]
    values = [_value(rng, p, kind) if on else 0 for on in mask]
    return GridFunction(ambient, kind, values), draw(st.sampled_from([None, *KINDS]))


@settings(FIXED, max_examples=300)
@given(spectra())
def test_support_profile_equals_the_per_line_loop(case):
    F, source_kind = case
    want = per_line_profile(F, source_kind)
    if isinstance(want, str):
        with pytest.raises(TheoremViolation) as exc:
            support_profile(F, source_kind)
        assert str(exc.value) == want
    else:
        report = support_profile(F, source_kind)
        assert report.lines == want and report.cbw == len(want)
