"""charkit benchmark: CLI requests in-process, closed loop, one client.

    python3 bench/run.py --workload {few-lines,many-lines,verify,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The inputs are generated from ``--seed``
by the benchmark's own code (``inputs.py``) and written under
``bench/.work``.  Every measurement runs in a fresh interpreter
(``child.py``) with CHARKIT_THREADS=1 and PYTHONHASHSEED=0, one request
after another on one thread.

--trace 0 runs CHILDREN children one after another.  Each one measures
setup (interpreter start, ``import charkit``, the cold first pass) and then
runs warm passes over the request list, for an equal share of the
``--seconds`` of warm time not yet spent, and one pass at least.  Every
timing is taken at a reference host speed (``summarize`` says why and
how).  wall_s is the median over warm passes of the pass's time;
req_p50_ms and req_tail_ms are percentiles over the requests of each
request's median time.  setup_s and peak_rss_mb are medians over the
children; ok_frac is the share of request instances, cold and warm, whose
output was correct.

--trace 1 runs two children that alternate untraced and traced warm
passes: one wraps every layer's public functions (``spans.py``), the other
only Cyclotomic arithmetic.  It reports the per-layer metrics per traced
pass, with times at the reference host speed, and the tracing overhead as
traced wall over untraced wall.

After the children end, every output is checked against a reference that
does not share charkit's code path (``refcheck.py``), and every warm
output must be byte-identical to the checked one.  A request that fails
either check, or exits nonzero, counts as failed and none of its timings
are used.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 1 when any output
is wrong and 2 when the benchmark could not run.

The metric names and units come from BENCHMARK.json at the checkout root.
Each run also writes its full report, including every per-layer metric
and the machine and settings, to bench/.work/result-*.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from child import CALIBRATE_REF_S, digest  # noqa: E402
from refcheck import Checker, Mismatch  # noqa: E402
from spans import LAYERS  # noqa: E402

CHILDREN = 3
# Untraced/traced pass pairs per traced child, for a median overhead ratio.
TRACE_ROUNDS = 2
DEADLINE_S = 170.0
PINNED_ENV = {"CHARKIT_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# --- environment ----------------------------------------------------------------


def commit() -> str:
    # Search no higher than the checkout, which need not be a git repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "commit": commit(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **PINNED_ENV,
    }


# --- children ----------------------------------------------------------------


def spawn(plan: Path, out: Path, budget: float, min_passes: int, mode: str,
          deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), "--plan", str(plan), "--out", str(out),
           "--spawned", repr(spawned), "--budget", repr(budget),
           "--min-passes", str(min_passes), "--mode", mode]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measurement ({mode}) ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"measurement ({mode}) failed:\n{proc.stderr}")
    return json.loads(out.read_text(encoding="utf-8"))


# --- checking and aggregation ------------------------------------------------------


def check_outputs(requests, reference: dict, seed: int) -> tuple:
    """Reference-check one cold pass.  Returns ({rid: good hash}, failures)."""
    checker = Checker(seed)
    good, failures = {}, {}
    for req in requests:
        text = reference["texts"][req.rid]
        try:
            if reference["rc"][req.rid] != 0:
                raise Mismatch(f"exit code {reference['rc'][req.rid]}: {text.strip()[-300:]}")
            checker.check(req, text)
        except (Mismatch, AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            failures[req.rid] = f"{' '.join(req.argv[:2])}: {type(exc).__name__}: {exc}"
            continue
        good[req.rid] = digest(text)
    return good, failures


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it
    (nearest rank), and never below the median."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def quantile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def normalized(run: dict) -> list:
    """Each request's latency at the reference host speed: scaled by
    CALIBRATE_REF_S over the mean of the probes run just before and just
    after it (``child.run_pass``)."""
    cal = run["cal"]
    return [t * 2 * CALIBRATE_REF_S / (a + b) for t, a, b in zip(run["lat"], cal, cal[1:])]


def summarize(results: list, good: dict, n_requests: int) -> dict:
    """End-to-end metrics from the children of one untraced run.

    A request instance is ok when it exited 0 and its output hash equals
    the reference-checked hash; only ok untraced warm instances are timed,
    and wall_s counts only passes whose every request was ok.

    A shared virtual machine changes speed by up to a half, for a fraction
    of a second or for minutes at a time, and raw times follow it: on a
    2-vCPU Xeon VM, passes of one run took 1.8 to 3.3 s, and whole runs
    landed in slow phases.  So each request's time is scaled by the host's
    speed measured next to it: a fixed pure-Python probe runs before and
    after every request, and the request's latency is divided by the mean
    of the two probe times and multiplied by the probe's reference time
    (``normalized``).  On that VM the ratio of a pass's time to its probes'
    time stayed within a few per cent while the pass time itself changed
    by 1.8x.  setup_s is scaled by the speed of the child's cold pass.
    The raw pass times and set-up times are in the report as detail.
    """
    attempted = ok = 0
    walls, raw_walls, setups, slowdown = [], [], [], []
    per_request = [[] for _ in range(n_requests)]
    for res in results:
        cold = res["cold"]
        setups.append(res["setup_s"] * sum(normalized(cold)) / sum(cold["lat"]))
        for run in [cold] + res["passes"]:
            flags = [run["rc"][i] == 0 and run["hash"][i] == good.get(i)
                     for i in range(n_requests)]
            attempted += len(flags)
            ok += sum(flags)
            if run is cold or run["traced"]:
                continue
            times = normalized(run)
            raw_walls.append(run["wall"])
            slowdown.append(sum(run["lat"]) / sum(times))
            if all(flags):
                walls.append(sum(times))
            for i, (t, f) in enumerate(zip(times, flags)):
                if f:
                    per_request[i].append(t)
    timed = [statistics.median(ts) for ts in per_request if ts]
    pct = tail_percentile(n_requests)
    metrics = {
        "wall_s": statistics.median(walls) if walls else None,
        "req_p50_ms": 1e3 * statistics.median(timed) if timed else None,
        "req_tail_ms": 1e3 * quantile(timed, pct) if timed else None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in results) / 1024,
        "ok_frac": ok / attempted,
    }
    detail = {
        "req_tail_pct": pct,
        "req_timed": len(timed),
        "passes": len(raw_walls),
        "pass_raw_min_s": min(raw_walls),
        "pass_raw_median_s": statistics.median(raw_walls),
        "host_slowdown": statistics.median(slowdown),
        "setup_raw_s": statistics.median(r["setup_s"] for r in results),
        "import_s": statistics.median(r["import_s"] for r in results),
    }
    raw = {"pass_walls": walls,
           "pass_raw_walls": raw_walls,
           "setup_s": setups,
           "setup_raw_s": [r["setup_s"] for r in results],
           "request_median_s": [statistics.median(ts) if ts else None for ts in per_request]}
    return {"attempted": attempted, "failed": attempted - ok, "metrics": metrics,
            "detail": detail, "raw": raw}


def speed_scale(passes: list) -> float:
    """The factor that takes raw times measured during these passes to the
    probe's reference speed."""
    return (sum(sum(normalized(p)) for p in passes)
            / sum(sum(p["lat"]) for p in passes))


def layer_metrics(layers: dict, scalars: dict) -> dict:
    """Per-layer metrics per traced pass, times at the probe's reference
    speed, plus the tracing overhead: the median over traced passes of
    traced wall over the untraced pass run just before it in the same
    interpreter."""
    traced = [p for p in layers["passes"] if p["traced"]]
    n = len(traced)
    time_per_pass = speed_scale(traced) / n
    agg = layers["trace"]["agg"]
    counters = layers["trace"]["counters"]
    out = {}
    names = {name or f"{module}.{attr}" for module, attr, name in LAYERS} | set(agg)
    for name in sorted(names):
        calls, total, self_s = agg.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_s"] = self_s * time_per_pass
        out[f"{name}.total_s"] = total * time_per_pass
    for suite in inputs.SUITE_ORDER:
        out[f"verify.{suite}.s"] = out.pop(f"verify.{suite}.total_s")
        del out[f"verify.{suite}.calls"], out[f"verify.{suite}.self_s"]
    for name in ("fourier.coeff_ops", "wavelets.points_scanned", "multiscale.inverse_calls"):
        out[name] = counters.get(name, 0) / n

    def self_time(name):
        return agg.get(name, [0, 0.0, 0.0])[2] * time_per_pass

    kernel_s = self_time("fourier.forward") + self_time("fourier.inverse")
    served_s = agg["cli.main"][1] * time_per_pass
    out["fourier.coeff_ops_per_s"] = out["fourier.coeff_ops"] / kernel_s if kernel_s else 0.0
    out["fourier.share"] = kernel_s / served_s
    out["wavelets.masses.share"] = self_time("wavelets.masses") / served_s
    out["fileio.bytes_out"] = statistics.mean(p["bytes"] for p in traced)
    out["cli.exit_nonzero"] = statistics.mean(sum(1 for c in p["rc"] if c != 0) for p in traced)

    scalar_passes = [p for p in scalars["passes"] if p["traced"]]
    out["scalars.cyclotomic_ops"] = (
        scalars["trace"]["counters"].get("scalars.cyclotomic_ops", 0) / len(scalar_passes))
    out["scalars.cyclotomic.self_s"] = scalars["trace"]["agg"].get(
        "scalars.cyclotomic", [0, 0.0, 0.0])[2] * speed_scale(scalar_passes) / len(scalar_passes)

    def overhead(res):
        walls = [sum(normalized(p)) for p in res["passes"]]
        return statistics.median(t / u for u, t in zip(walls[::2], walls[1::2]))

    out["trace.overhead"] = overhead(layers)
    out["trace.scalars_overhead"] = overhead(scalars)
    return out


# --- one workload ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = WORK / f"run-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        requests = inputs.build(workload, seed, workdir)
        plan = workdir / "plan.json"
        plan.write_text(json.dumps({"src": str(SRC / "charkit"),
                                    "requests": [r.argv for r in requests]}),
                        encoding="utf-8")
        if trace:
            modes = ("layers", "scalars")
        else:
            modes = ("none",) * CHILDREN
        results = []
        for k, mode in enumerate(modes):
            # Each child gets an equal share of the warm time still unspent.
            left = len(modes) - k
            spent = sum(p["wall"] for r in results for p in r["passes"])
            budget = max(0.0, seconds - spent) / left
            min_passes = TRACE_ROUNDS if trace else 1
            results.append(spawn(plan, workdir / f"child{k}.json", budget, min_passes, mode,
                                 deadline))
        good, failures = check_outputs(requests, results[0]["cold"], seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(results, good, len(requests))
    detail = dict(summary["detail"])
    if trace:
        detail.update(layer_metrics(*results))
        wanted = spec["per_layer"]
        values = detail
    else:
        wanted = spec["end_to_end"]
        values = summary["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {missing}")
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "requests_per_pass": len(requests),
        "env": environment(),
        "correct": not failures and summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "failures": failures,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "detail": detail,
        "raw": summary["raw"],
    }
    (WORK / f"result-{tag}.json").write_text(json.dumps(report, indent=2) + "\n",
                                             encoding="utf-8")
    return report


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"# {w}: env {json.dumps(report['env'], sort_keys=True)}")
    print(f"# {w}: {report['requests_per_pass']} requests per pass, "
          f"{report['attempted']} attempted, {report['failed']} failed")
    for rid, why in sorted(report["failures"].items()):
        print(f"# {w}: FAILED request {rid}: {why}")
    if report["trace"]:
        for name, value in sorted(report["detail"].items()):
            print(f"# {w}: layer {name} = {value:.6g}")
    else:
        d = report["detail"]
        print(f"# {w}: {d['passes']} warm passes; req_tail_ms is p{d['req_tail_pct']} "
              f"of {d['req_timed']} requests; raw passes took {d['pass_raw_min_s']:.6g} s at "
              f"best, {d['pass_raw_median_s']:.6g} s at the median; the host ran "
              f"{d['host_slowdown']:.3g}x slower than the probe's reference speed")
    for name, m in report["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{w:<11} {name:<36} {value:>14} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "charkit" / "__init__.py").is_file():
        print(f"error: no charkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Write the bytecode caches first, so that no child's setup_s includes
    # compiling the sources, as no installed package's import would.
    compileall.compile_dir(str(SRC / "charkit"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for workload in workloads:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
