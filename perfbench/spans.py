"""Span tracer installed over the landau package from outside it.

Every public function of every ``landau`` module is replaced, in every
module namespace that binds it (its own and each ``from ... import`` of
it), by one wrapper that records a span on a parent stack.  A span's self
time is its duration minus the time its child spans cover.  The
``scipy.fft`` transforms are wrapped the same way as the landau modules
look them up: through a bound ``scipy.fft`` module or a bound function.

Spans are aggregated in memory per key ``(layer, name)``; the layer is the
landau module that defines the function, or, for a transform, the module
that looks it up.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
import types
from collections import defaultdict

import numpy as np
import scipy.fft

LAYERS = (
    "grid_field", "coefficients", "_accel", "solver",
    "diagnostics", "degiorgi", "inequalities", "cli_io",
)

FFT_NAMES = (
    "fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn",
    "fft2", "ifft2", "rfft2", "irfft2",
)
_FFT_FUNCS = {id(getattr(scipy.fft, name)): name for name in FFT_NAMES}

ROOT = "bench"  # layer of the benchmark's own root spans


def layer_of(module_name: str) -> str:
    return module_name.rpartition(".")[2]


class _FFTModule:
    """Stand-in for ``scipy.fft`` whose transforms are wrapped."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.fft_points: dict = defaultdict(int)
        self.table_bytes = 0
        self._stack: list = []
        self._patches: list = []
        self._wrappers: dict = {}
        self._keys: dict = {}

    # -- spans ------------------------------------------------------------

    def _enter(self) -> list:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, key, frame, dt: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        self.calls[key] += 1
        self.total[key] += dt
        self.self_time[key] += dt - frame[0]

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span of the benchmark itself."""
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit((ROOT, name), frame, time.perf_counter() - t0)

    def _wrap(self, key, fn, observe=None):
        def wrapper(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(key, frame, time.perf_counter() - t0)
            if observe is not None:
                observe(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _fft_observer(self, key, inverse: bool):
        # points on the real side of the transform, from array shapes
        def observe(args, result):
            arr = result if inverse else args[0]
            self.fft_points[key] += int(np.size(arr))

        return observe

    def _observe_table(self, args, table) -> None:
        for f in dataclasses.fields(table):
            value = getattr(table, f.name)
            if isinstance(value, np.ndarray):
                self.table_bytes += value.nbytes

    # -- install / uninstall ---------------------------------------------

    def _wrapper_for(self, fn, layer: str, name: str):
        wrapped = self._wrappers.get(id(fn))
        if wrapped is None:
            key = (layer, name)
            observe = None
            if name in FFT_NAMES:
                observe = self._fft_observer(key, name.startswith("i"))
            elif key == ("coefficients", "build_kernel_table"):
                observe = self._observe_table
            wrapped = self._wrap(key, fn, observe)
            self._wrappers[id(fn)] = wrapped
            self._keys[id(fn)] = key
        return wrapped

    def key_of(self, fn):
        """Span key of an original (unwrapped) function, or None."""
        return self._keys.get(id(fn))

    def install(self) -> None:
        """Wrap every binding of a landau function or scipy transform."""
        if self._patches:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "landau" or name.startswith("landau."))
                   and isinstance(m, types.ModuleType)]
        for mod in modules:
            here = layer_of(mod.__name__)
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                new = None
                if value is scipy.fft:
                    new = _FFTModule(value, {
                        fname: self._wrapper_for(getattr(value, fname), here, fname)
                        for fname in FFT_NAMES
                    })
                elif id(value) in _FFT_FUNCS:
                    new = self._wrapper_for(value, here, _FFT_FUNCS[id(value)])
                elif (isinstance(value, types.FunctionType)
                      and not name.startswith("_")
                      and (value.__module__ or "").startswith("landau.")):
                    new = self._wrapper_for(
                        value, layer_of(value.__module__), value.__name__
                    )
                if new is not None:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, new)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patches):
            setattr(mod, name, value)
        self._patches.clear()

    # -- aggregates -------------------------------------------------------

    def layer_self(self) -> dict:
        out: dict = defaultdict(float)
        for (layer, _), t in self.self_time.items():
            out[layer] += t
        return out


def layer_metrics(tr: Tracer, accel_div_flux, accel_eig_range) -> dict:
    """Per-layer metrics from the aggregated spans.

    ``accel_div_flux`` and ``accel_eig_range`` are the original functions
    ``landau._accel`` dispatches to, whichever path it selected.
    """
    def calls(*keys):
        return sum(tr.calls.get(k, 0) for k in keys if k is not None)

    def total(*keys):
        return sum(tr.total.get(k, 0.0) for k in keys if k is not None)

    def self_s(*keys):
        return sum(tr.self_time.get(k, 0.0) for k in keys if k is not None)

    def fft_keys(layer, inverse):
        return [k for k in tr.calls if k[0] == layer and k[1] in FFT_NAMES
                and k[1].startswith("i") == inverse]

    co = "coefficients"
    fwd, inv = fft_keys(co, False), fft_keys(co, True)
    table_calls = calls((co, "kernel_table_for"))
    builds = calls((co, "build_kernel_table"))
    div_flux = tr.key_of(accel_div_flux)
    eig_range = tr.key_of(accel_eig_range)
    write_keys = [("cli_io", n) for n in (
        "write_snapshot", "write_diagnostics_csv", "write_ladder_csv",
        "write_report_csv", "write_run_plots",
    )]
    m = {
        "coefficients.compute_calls": calls((co, "compute_coefficients")),
        "coefficients.compute_s": total((co, "compute_coefficients")),
        "coefficients.compute_self_s": self_s((co, "compute_coefficients")),
        "coefficients.fft_fwd_calls": calls(*fwd),
        "coefficients.fft_fwd_s": total(*fwd),
        "coefficients.fft_inv_calls": calls(*inv),
        "coefficients.fft_inv_s": total(*inv),
        "coefficients.fft_points_computed": sum(tr.fft_points[k] for k in fwd + inv),
        "coefficients.table_builds": builds,
        "coefficients.table_build_s": total((co, "build_kernel_table")),
        "coefficients.table_mb_computed": tr.table_bytes / 1e6,
        "coefficients.table_cache_hit_ratio":
            (table_calls - builds) / table_calls if table_calls else 0.0,
        "accel.div_flux_calls": calls(div_flux),
        "accel.div_flux_s": total(div_flux),
        "accel.eig_range_calls": calls(eig_range),
        "accel.eig_range_s": total(eig_range),
        "solver.steps": calls(("solver", "step")),
        "solver.step_s": total(("solver", "step")),
        "solver.step_self_s": self_s(("solver", "step")),
        "solver.stable_dt_s": total(("solver", "stable_dt")),
        "grid_field.gradient_calls": calls(("grid_field", "gradient_values")),
        "grid_field.gradient_s": total(("grid_field", "gradient_values")),
        "grid_field.weight_field_calls": calls(("grid_field", "weight_field")),
        "grid_field.weight_field_s": total(("grid_field", "weight_field")),
        "diagnostics.record_calls": calls(("diagnostics", "record")),
        "diagnostics.record_s": total(("diagnostics", "record")),
        "diagnostics.level_set_energy_calls": calls(("diagnostics", "level_set_energy")),
        "diagnostics.level_set_energy_s": total(("diagnostics", "level_set_energy")),
        "degiorgi.measure_ladder_s": total(("degiorgi", "measure_ladder")),
        "degiorgi.fit_recurrence_s": total(("degiorgi", "fit_recurrence")),
        "inequalities.corpus_s": total(("inequalities", "make_corpus"),
                                       ("inequalities", "make_poincare_corpus")),
        "inequalities.sobolev_s": total(("inequalities", "check_weighted_sobolev")),
        "inequalities.interpolation_s": total(("inequalities", "check_interpolation")),
        "inequalities.poincare_s": total(("inequalities", "check_eps_poincare")),
        "inequalities.monitor_s": total(("inequalities", "minimum_principle_monitor")),
        "cli_io.initial_data_s": total(("cli_io", "make_initial_data")),
        "cli_io.write_s": total(*write_keys),
        "cli_io.run_experiment_self_s": self_s(("cli_io", "run_experiment")),
    }
    per_layer = tr.layer_self()
    for layer in LAYERS:
        # metric names start with a letter: layer _accel reports as accel
        m[f"{layer.lstrip('_')}.self_s"] = per_layer.get(layer, 0.0)
    return m
