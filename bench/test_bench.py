"""Self-tests of the benchmark: python3 -m pytest bench -q

One in-process pass of each workload must pass every reference check; a
perturbed spectrum must count as failed and contribute no timing; timings
must be scaled to the probe's reference speed; the tracer must reach every
module binding and restore it; and the benchmark must refuse to run where
the charkit sources are missing.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import charkit.cli as cli  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from child import CALIBRATE_REF_S, digest, run_pass  # noqa: E402
from refcheck import Checker, Mismatch  # noqa: E402

SEED = 3


def _child_result(codes, hashes, walls, lat, slow=1.0):
    """A child result as child.py writes it: a cold pass plus warm passes,
    on a host ``slow`` times slower than the probe's reference speed."""
    def cal(t):
        return [slow * CALIBRATE_REF_S] * (len(t) + 1)

    cold = {"wall": walls[0], "lat": lat[0], "cal": cal(lat[0]), "rc": codes,
            "hash": hashes[0]}
    warm = [{"wall": w, "lat": t, "cal": cal(t), "rc": codes, "hash": h, "bytes": 0,
             "traced": False}
            for w, t, h in zip(walls[1:], lat[1:], hashes[1:])]
    return {"setup_s": 1.0, "import_s": 0.1, "rss_kb": 1024, "cold": cold, "passes": warm}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_pass_smoke(workload, tmp_path):
    requests = inputs.build(workload, SEED, tmp_path)
    _, _, _, codes, texts = run_pass(cli, [r.argv for r in requests])
    good, failures = run.check_outputs(requests, {"rc": codes, "texts": texts}, SEED)
    assert failures == {}
    assert len(good) == len(requests)


def test_perturbed_spectrum_is_failed_and_untimed(tmp_path):
    requests = [r for r in inputs.build("few-lines", SEED, tmp_path)
                if r.command == "transform" and r.inp.kind == "rational" and r.inp.p == 11]
    for rid, req in enumerate(requests):
        req.rid = rid
    _, _, _, codes, texts = run_pass(cli, [r.argv for r in requests])

    spectrum = json.loads(texts[0])
    coeffs = spectrum["values"][1]["coeffs"]
    coeffs[0] = str(Fraction(coeffs[0]) + 1)
    bad = json.dumps(spectrum)
    with pytest.raises(Mismatch):
        Checker(SEED).check(requests[0], bad)

    # Perturbed in the checked pass: every instance of the request fails.
    good, failures = run.check_outputs(requests, {"rc": codes, "texts": [bad]}, SEED)
    assert list(failures) == [0] and good == {}
    ok_hash = digest(texts[0])
    summary = run.summarize(
        [_child_result(codes, [[ok_hash]] * 3, [1.0, 2.0, 3.0], [[0.5], [0.5], [0.5]])],
        good, 1)
    assert summary["failed"] == summary["attempted"] == 3
    assert summary["metrics"]["wall_s"] is None
    assert summary["metrics"]["req_p50_ms"] is None

    # Perturbed in one warm pass only: that instance fails and is not timed,
    # although it is the fastest.
    good = {0: ok_hash}
    hashes = [[ok_hash], [ok_hash], [digest(bad)], [ok_hash]]
    summary = run.summarize(
        [_child_result(codes, hashes, [9.0, 1.0, 0.1, 3.0], [[9.0], [0.5], [0.01], [0.7]])],
        good, 1)
    assert summary["attempted"] == 4 and summary["failed"] == 1
    assert summary["metrics"]["wall_s"] == pytest.approx(0.6)
    assert summary["metrics"]["req_p50_ms"] == pytest.approx(600.0)
    assert summary["metrics"]["req_tail_ms"] == pytest.approx(600.0)


def test_timings_are_taken_at_the_probe_reference_speed():
    codes, hashes = [0, 0], [["a", "b"]] * 3
    good = {0: "a", 1: "b"}
    lat = [[0.4, 0.2], [0.1, 0.3], [0.2, 0.2]]
    fast = run.summarize([_child_result(codes, hashes, [1.0] * 3, lat)], good, 2)
    slow = run.summarize(
        [_child_result(codes, hashes, [1.0] * 3, [[2 * t for t in x] for x in lat], slow=2.0)],
        good, 2)
    assert fast["metrics"]["wall_s"] == pytest.approx(0.4)
    assert slow["metrics"]["wall_s"] == pytest.approx(0.4)
    assert slow["detail"]["host_slowdown"] == pytest.approx(2.0)
    # The same raw set-up time on a host twice as slow is half the work.
    assert fast["metrics"]["setup_s"] == pytest.approx(1.0)
    assert slow["metrics"]["setup_s"] == pytest.approx(0.5)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    from spans import Tracer

    # ``import charkit.bandwidth`` would name the function the package
    # re-exports, not the module.
    bandwidth = importlib.import_module("charkit.bandwidth")
    fourier = importlib.import_module("charkit.fourier")

    requests = [r for r in inputs.build("few-lines", SEED, tmp_path)
                if r.command == "bandwidth" and r.inp.kind == "rational" and r.inp.p == 11]
    original = fourier.forward
    tracer = Tracer()
    tracer.install_layers()
    try:
        assert bandwidth.forward is not original and fourier.forward is not original
        _, _, _, codes, _ = run_pass(cli, [r.argv for r in requests])
    finally:
        tracer.uninstall()
    assert codes == [0]
    assert fourier.forward is original and bandwidth.forward is original
    assert tracer.agg["fourier.forward"][0] == 1
    assert tracer.agg["bandwidth.support_profile"][0] == 1
    calls, total, self_s = tracer.agg["cli.main"]
    assert calls == 1 and 0 < self_s < total
    assert tracer.counters["fourier.coeff_ops"] == 121 * 2 * 11 * 10
    assert set(tracer.agg) >= {"cli.main", "fourier.forward", "fileio.load"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "few-lines", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
