"""Layer-boundary tracing for the traced benchmark run.

charkit has no instrumentation of its own, so the benchmark wraps each
layer's public functions from the outside.  Modules import each other's
functions by name (``from .fourier import forward``), so a function is
replaced at every module binding that holds it, including module-level
dicts such as ``verify.SUITES``.

Per span name the tracer keeps calls, total time and self time (total
minus the time covered by child spans), plus counters measured at the
same boundaries.
Wrapping the arithmetic methods of ``Cyclotomic`` costs far more per call
than the layer wrappers, so scalars are traced in a child of their own
(``install_scalars``) and never together with the layers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from inputs import SUITE_ORDER

# (module, function, span name); span names default to "<module>.<function>".
LAYERS = (
    ("cli", "main", None),
    ("cli", "_emit", "fileio.emit"),
    ("fileio", "function_to_payload", "fileio.emit"),
    ("fileio", "sinogram_to_payload", "fileio.emit"),
    ("fileio", "decomposition_to_payload", "fileio.emit"),
    ("fileio", "bandwidth_report_payload", "fileio.emit"),
    ("fileio", "load_function", "fileio.load"),
    ("fileio", "load_sinogram", "fileio.load"),
    ("fourier", "forward", None),
    ("fourier", "inverse", None),
    ("wavelets", "masses", None),
    ("wavelets", "mass_table", None),
    ("wavelets", "decompose", None),
    ("wavelets", "reconstruct_from_masses", None),
    ("wavelets", "associated_wavelet", None),
    ("wavelets", "is_wavelet", None),
    ("multiscale", "multiscale_decompose", None),
    ("multiscale", "is_level_l_wavelet", None),
    ("bandwidth", "support_profile", None),
    ("bandwidth", "bandwidth", None),
    ("bandwidth", "inverse_phi", None),
    ("bandwidth", "equidistribution_check", None),
    ("bandwidth", "uncertainty_check", None),
    ("bandwidth", "classify_small_cbw_set", None),
    ("bandwidth", "vanishing_certificate", None),
    ("varieties", "check_paraboloid_theorem", None),
    ("varieties", "is_good", None),
    ("varieties", "two_circle_analysis", None),
    ("varieties", "sphere_equidistribution_check", None),
    ("eigen", "self_dual_classify", None),
    ("eigen", "eigenfunction_pair", None),
    ("eigen", "affine_eigenfunction_pair", None),
    ("eigen", "eigen_residuals", None),
    ("eigen", "eigen_expand", None),
) + tuple(("verify", f"run_{s}", f"verify.{s}") for s in SUITE_ORDER)

# Arithmetic methods of charkit.scalars.Cyclotomic.
SCALAR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "scale", "mul_zeta", "galois", "conjugate",
)


def _transform_ops(counters, stack, args) -> None:
    """N * d * q * phi coefficient operations of one axis-pass transform."""
    f = args[0]
    amb = f.ambient
    phi = 1 if f.kind == "complex" else amb.p ** (amb.ell - 1) * (amb.p - 1)
    counters["fourier.coeff_ops"] += amb.size * amb.d * amb.modulus * phi


def _inverse_ops(counters, stack, args) -> None:
    _transform_ops(counters, stack, args)
    if any(frame[0] == "multiscale.multiscale_decompose" for frame in stack):
        counters["multiscale.inverse_calls"] += 1


def _points_scanned(counters, stack, args) -> None:
    counters["wavelets.points_scanned"] += args[0].ambient.size


HOOKS = {
    "fourier.forward": _transform_ops,
    "fourier.inverse": _inverse_ops,
    "wavelets.masses": _points_scanned,
}


class Tracer:
    """Wraps charkit functions and aggregates their spans in memory."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # frames: [name, time covered by children]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counters = defaultdict(int)
        self._undo = []

    # -- wrapping

    def _span(self, name: str, fn, hook):
        clock = self.clock
        stack = self.stack
        agg = self.agg
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(counters, stack, args)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                entry = agg[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` wherever a charkit module binds it."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "charkit" or modname.startswith("charkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod.__dict__, attr, original))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = wrapper

    def install_layers(self) -> None:
        import importlib

        for module, attr, name in LAYERS:
            mod = importlib.import_module(f"charkit.{module}")
            name = name or f"{module}.{attr}"
            original = getattr(mod, attr)
            self._rebind(original, self._span(name, original, HOOKS.get(name)))

    def install_scalars(self) -> None:
        """Count calls to Cyclotomic arithmetic and time the outermost ones."""
        from charkit.scalars import Cyclotomic

        clock = self.clock
        counters = self.counters
        agg = self.agg
        depth = [0]

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args):
                counters["scalars.cyclotomic_ops"] += 1
                if depth[0]:
                    return fn(*args)
                depth[0] = 1
                start = clock()
                try:
                    return fn(*args)
                finally:
                    depth[0] = 0
                    entry = agg["scalars.cyclotomic"]
                    dur = clock() - start
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += dur

            return wrapper

        for attr in SCALAR_METHODS:
            original = Cyclotomic.__dict__[attr]
            self._undo.append((None, attr, original))
            setattr(Cyclotomic, attr, wrap(original))

    def uninstall(self) -> None:
        from charkit.scalars import Cyclotomic

        for owner, key, original in reversed(self._undo):
            if owner is None:
                setattr(Cyclotomic, key, original)
            else:
                owner[key] = original
        self._undo.clear()
