"""One measurement in a fresh interpreter: import charkit, run the cold
first pass, then closed-loop warm passes until the time budget is spent
(at least --min-passes).

Requests are CLI argument lists run in-process through
``charkit.cli.main(argv)``, one after another on one thread, with stdout
captured as the request's output.  The cold pass keeps every output text;
warm passes keep a SHA-1 of each, which ``run.py`` compares with the
reference-checked cold output.

Before the first request of a pass and after every request, the child
times ``calibrate``, a fixed piece of pure-Python work that charkit cannot
change.  Its time is a probe of the host's speed at that moment, which
``run.py`` uses to take the host's changes of speed out of the timings.

    python3 bench/child.py --plan PLAN --out RESULT --spawned T
                           --budget S --min-passes N
                           --mode {none,layers,scalars}

``--spawned`` is the CLOCK_MONOTONIC time at which the parent started this
process, so ``setup_s`` covers interpreter start, ``import charkit`` and
the cold pass, without the probes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

# The time of one ``calibrate`` call on a 2-vCPU Intel Xeon VM under
# Python 3.11.7 at that host's full speed (its median was 1.8 ms); it
# converts probe-normalised timings back to seconds.
CALIBRATE_REF_S = 1.0e-3


def calibrate() -> Fraction:
    """Fixed work like charkit's: Fraction arithmetic, big ints, dicts."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[i % 17] = acc * acc
    return acc


def run_pass(cli, plan):
    """Run every request once, with a probe before the first and after each.

    Returns (wall, latencies, probe times, exit codes, texts); the probe
    list is one longer than the request list."""
    lat, cal, codes, texts = [], [], [], []
    clock = time.perf_counter

    def probe():
        t0 = clock()
        calibrate()
        cal.append(clock() - t0)

    # Start every pass from the same collector state, so that automatic
    # collections fall on the same requests in every pass.
    gc.collect()
    start = clock()
    probe()
    for argv in plan:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = clock()
            try:
                code = cli.main(argv)
            except Exception:  # an escaped exception fails this request only
                traceback.print_exc()
                code = -1
            lat.append(clock() - t0)
        probe()
        codes.append(code)
        texts.append(out.getvalue() if code == 0 else err.getvalue())
    return clock() - start, lat, cal, codes, texts


def digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--mode", choices=("none", "layers", "scalars"), default="none")
    args = ap.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    t0 = time.monotonic()
    import charkit.cli as cli

    import_s = time.monotonic() - t0
    expected = Path(plan["src"]).resolve()
    if expected not in Path(cli.__file__).resolve().parents:
        print(f"charkit was imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2

    requests = plan["requests"]
    cold_wall, cold_lat, cold_cal, cold_codes, cold_texts = run_pass(cli, requests)
    setup_s = time.monotonic() - args.spawned - sum(cold_cal)

    tracer = None
    if args.mode != "none":
        from spans import Tracer

        tracer = Tracer()
        install = tracer.install_layers if args.mode == "layers" else tracer.install_scalars
    # A traced run alternates untraced and traced passes, so that each
    # traced pass has an untraced neighbour on a host whose speed drifts.
    kinds = (False, True) if tracer is not None else (False,)

    passes = []
    start = time.monotonic()
    while True:
        for traced in kinds:
            if traced:
                install()
            wall, lat, cal, codes, texts = run_pass(cli, requests)
            if traced:
                tracer.uninstall()
            passes.append({
                "wall": wall,
                "lat": lat,
                "cal": cal,
                "rc": codes,
                "hash": [digest(t) for t in texts],
                "bytes": sum(len(t.encode("utf-8")) for t, c in zip(texts, codes) if c == 0),
                "traced": traced,
            })
        # After --min-passes, start another round only if it should end
        # within half a round of the budget, so the children measure about
        # --seconds in all.
        rounds = len(passes) // len(kinds)
        elapsed = time.monotonic() - start
        if rounds >= args.min_passes and elapsed + elapsed / rounds / 2 >= args.budget:
            break

    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cold": {
            "wall": cold_wall,
            "lat": cold_lat,
            "cal": cold_cal,
            "rc": cold_codes,
            "hash": [digest(t) for t in cold_texts],
            "texts": cold_texts,
        },
        "passes": passes,
    }
    if tracer is not None:
        result["trace"] = {"agg": dict(tracer.agg), "counters": dict(tracer.counters)}
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
