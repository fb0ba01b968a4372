"""Time the two paths of ``fourier.set_spectrum`` on grids on each side of
``geometry.MAX_SET_SPECTRUM_TABLE``.

warm: many sets on one grid in one process, the table already built.  The
ratio is the time of transforming each indicator over the time of summing
its rows from the table (above 1, the table is faster), at six set
densities from one point to the whole grid.  The cap is lifted for this
part, so grids over it are timed with a table too.

cold: in a fresh interpreter, 5 runs each, median: the first
``set_spectrum`` call on a grid, ``forward`` of the indicator, and
building the table of point spectra.  The table's build over one
transform is set against N / (d*q), the count of transforms after which
``set_spectrum`` builds it.

    PYTHONPATH=src python3 tools/set_spectrum_sweep.py [warm|cold|all]
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

WARM_GRIDS = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (5, 2), (2, 6), (3, 4),
              (7, 2), (2, 7), (5, 3), (2, 8), (11, 2), (13, 2), (3, 5)]
COLD_GRIDS = [(2, 4), (3, 3), (3, 4), (7, 2), (2, 7)]
DENSITIES = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]  # 0.0: a single point

COLD = r'''
import random, sys, time
from charkit.geometry import Ambient
from charkit.fourier import GridFunction, _point_spectra, forward, set_spectrum
a = Ambient(*map(int, sys.argv[1].split(",")))
pts = a.points()
E = random.Random(7).sample(pts, max(1, round(float(sys.argv[3]) * len(pts))))
t = time.perf_counter()
if sys.argv[2] == "set_spectrum":
    set_spectrum(a, E)
elif sys.argv[2] == "forward":
    forward(GridFunction.indicator(a, E))
else:
    _point_spectra(a)
print(time.perf_counter() - t)
'''


def warm() -> None:
    from charkit import fourier
    from charkit.fourier import GridFunction, _point_spectra, forward, set_spectrum
    from charkit.geometry import MAX_SET_SPECTRUM_TABLE, Ambient

    print("warm: forward / table per set, at densities", DENSITIES)
    fourier.MAX_SET_SPECTRUM_TABLE = 1 << 62
    for g in WARM_GRIDS:
        a = Ambient(*g)
        pts = a.points()
        cost = len(pts) ** 2 * (a.modulus - a.modulus // a.p)
        fourier._set_transforms[a] = a.size
        _point_spectra(a)
        ratios = []
        for frac in DENSITIES:
            k = max(1, round(frac * len(pts)))
            rng = random.Random(k)
            sets = [rng.sample(pts, k) for _ in range(5)]
            n = max(1, 2000 // len(pts))
            t_table = min(timeit.repeat(
                lambda: [set_spectrum(a, E) for E in sets], number=n, repeat=3))
            t_fwd = min(timeit.repeat(
                lambda: [forward(GridFunction.indicator(a, E)) for E in sets], number=n, repeat=3))
            ratios.append(t_fwd / t_table)
        side = "within" if cost <= MAX_SET_SPECTRUM_TABLE else "over  "
        print(f"{str(g):8s} N^2*width {cost:7d} {side} cap  "
              + " ".join(f"{r:5.2f}" for r in ratios), flush=True)


def cold() -> None:
    print("cold: ms in a fresh interpreter (median of 5)")
    src = str(Path(__file__).resolve().parent.parent / "src")

    def median_ms(g, what, frac=0.5):
        runs = [float(subprocess.run(
            [sys.executable, "-c", COLD, ",".join(map(str, g)), what, str(frac)],
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
        ).stdout) for _ in range(5)]
        return statistics.median(runs) * 1e3

    for g in COLD_GRIDS:
        (p, d), q = g, g[0]
        build = median_ms(g, "table")
        for frac in (0.0, 0.5, 1.0):
            first, fwd = median_ms(g, "set_spectrum", frac), median_ms(g, "forward", frac)
            print(f"{str(g):8s} density {frac:4.2f}  first set_spectrum {first:5.2f}  "
                  f"forward {fwd:5.2f}  table build {build:5.2f}  "
                  f"build/forward {build / fwd:5.2f}  N/(d*q) {p ** d / (d * q):5.2f}", flush=True)


if __name__ == "__main__":
    part = sys.argv[1] if len(sys.argv) > 1 else "all"
    if part in ("warm", "all"):
        warm()
    if part in ("cold", "all"):
        cold()
