"""Multi-scale analysis over Z_{p^l}.

Residues mod p^l carry a valuation (how many factors of p they contain),
so lines through the origin come in l different sizes and wavelets live at
l different scales.  The transform is exact over Q(zeta_{p^l}), and every
function splits into finitely many level-tagged wavelets.
"""

from fractions import Fraction

from charkit import (
    Ambient,
    GridFunction,
    forward,
    hyperplane_points,
    inverse,
    is_level_l_wavelet,
    line_through,
    multiscale_decompose,
    norm,
    unit_count,
    valuation,
)

ambient = Ambient(2, 2, ell=2)  # Z_4 x Z_4
print(f"Z_4: units={unit_count(ambient)}, "
      f"valuation(2)={valuation(ambient, 2)}, norm(2)={norm(ambient, 2)}")

# Lines at two scales: a unit generator spans 4 points (level 2), a
# doubled generator only 2 (level 1).  Hyperplanes scale the other way.
for v in [(1, 2), (2, 0)]:
    line = line_through(ambient, v)
    print(f"line of {v}: level {line.level(ambient)}, {len(line.points(ambient))} points; "
          f"hyperplane size {len(hyperplane_points(ambient, v, 0))}")

# The transform round-trips exactly, conductor 4 scalars and all.
f = GridFunction(ambient, "rational", [Fraction(k % 5, 2) for k in range(16)])
assert inverse(forward(f)) == f
print("\nexact round trip over Q(zeta_4):", True)

# A function constant on the fibers of x -> x.v is a top-level wavelet.
w = GridFunction.indicator(ambient, [x for x in ambient.points() if x[0] == 1])
res = is_level_l_wavelet(w, forward(w))
print(f"hyperplane family function: wavelet={res.is_wavelet}, "
      f"generator={res.generator}, level={res.level}")

# Generic functions decompose into wavelets across the available levels.
parts = multiscale_decompose(forward(f))
print(f"\nmultiscale decomposition: {len(parts)} parts, "
      f"levels {[part.level for part in parts]}")
total = None
for part in parts:
    total = part.function if total is None else total + part.function
print("parts sum back to f exactly:", total == f)
