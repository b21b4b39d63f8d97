"""Configuration, the run loop, experiment orchestration, persistence,
and plots.

INI-style config text maps onto nested dataclasses; initial-data families
are sampled and discretely renormalized to mass 1, momentum 0, energy 3;
``run_trajectory``, the package's one run loop, steps them to T with
``solver.step``, records diagnostics every step and writes each snapshot
as it is taken; results land on disk as CSV (repr-formatted cells so
reruns are byte-identical), raw LCF1 snapshots, hand-rolled SVG
polylines, and a summary text block.  The argparse front end maps error
classes onto exit codes: config and unreadable input 2, numeric 3,
failed hypothesis 4, failed checks 1; any other error propagates with
its traceback (exit 1).
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import struct
import sys
import typing
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import degiorgi, diagnostics, solver
from .coefficients import Workspace, spectral_vs_direct, table_nbytes
from .errors import ConfigError, HypothesisError, LandauError
from .grid_field import ScalarField, VelocityGrid, make_grid
from .inequalities import (
    CRITICAL,
    SUBCRITICAL,
    barrier_verdict,
    build_cutoff,
    check_eps_poincare,
    interpolation_ratios,
    interpolation_reports,
    iter_corpus,
    iter_poincare_corpus,
    sobolev_ratio,
    sobolev_report,
)

_FAMILIES = ("maxwellian", "bimaxwellian", "polytail", "mixture")

LCF_MAGIC = b"LCF1"
_LCF_HEADER = struct.Struct("<4sIdd")

CSV_SCHEMA_LINE = "# schema=1"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class GridConfig:
    n: int = 64
    l: float = 8.0


@dataclass
class InitialDataConfig:
    family: str = "maxwellian"
    separation: float = 1.2
    k: float = 10.0
    seed: int = 2026
    modes: int = 3


@dataclass
class RunControlConfig:
    T: float = 1.0
    cfl: float = 0.5
    dt_min: float = 1e-9
    dt_max: float = 0.02
    snapshot_cadence: int = 50
    positivity_clip: bool = False


@dataclass
class DiagnosticsConfig:
    p_list: tuple = (1.5,)
    m_list: tuple = (4.5,)
    f_floor: float = 1e-14


@dataclass
class EpsRegularityConfig:
    enabled: bool = False
    K: float | None = None


@dataclass
class LadderConfig:
    enabled: bool = False
    regime: str = CRITICAL
    K: float | None = None
    amplitude: float | None = None
    N_levels: int = 8
    p: float = 2.0
    t: float | None = None


@dataclass
class BarrierConfig:
    enabled: bool = False
    regime: str = CRITICAL
    a: float | None = None
    k: float = 10.0
    n_weight: float = -6.0


@dataclass
class InequalitiesConfig:
    enabled: bool = False
    corpus_seed: int = 2026
    corpus_size: int = 50


@dataclass
class ExperimentConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    initial_data: InitialDataConfig = field(default_factory=InitialDataConfig)
    run: RunControlConfig = field(default_factory=RunControlConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    eps_regularity: EpsRegularityConfig = field(default_factory=EpsRegularityConfig)
    ladder: LadderConfig = field(default_factory=LadderConfig)
    barrier: BarrierConfig = field(default_factory=BarrierConfig)
    inequalities: InequalitiesConfig = field(default_factory=InequalitiesConfig)


# INI section -> ExperimentConfig attribute; the experiment sections, the
# ones whose dataclass has an ``enabled`` field, sit under ``experiments.``
_SECTIONS = {
    (f"experiments.{name}" if hasattr(cls, "enabled") else name): name
    for name, cls in typing.get_type_hints(ExperimentConfig).items()
}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _parse_float_list(raw: str) -> tuple:
    values = tuple(float(p) for p in raw.split(",") if p.strip())
    if not values:
        raise ValueError(raw)
    return values


# field type -> (parser of its INI value, what the value must be)
_PARSERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    float | None: (float, "a number"),
    bool: (_parse_bool, "a boolean"),
    str: (str.strip, "text"),
    tuple: (_parse_float_list, "a comma-separated list of numbers"),
}


def parse_config(text: str) -> ExperimentConfig:
    """Validated config from INI text; unset keys take the defaults."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    cfg = ExperimentConfig()
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        target = getattr(cfg, _SECTIONS[section])
        types = typing.get_type_hints(type(target))
        for key, raw in cp.items(section):
            if key not in types:
                raise ConfigError(f"unknown key {section}.{key}")
            parse, kind = _PARSERS[types[key]]
            try:
                setattr(target, key, parse(raw))
            except ValueError:
                raise ConfigError(f"{section}.{key} must be {kind}") from None
        # any key switches an experiment on unless enabled says otherwise
        if "enabled" in types and not cp.has_option(section, "enabled"):
            target.enabled = True

    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming the first key whose value is out of range."""
    grid, idc, rc, dc = cfg.grid, cfg.initial_data, cfg.run, cfg.diagnostics
    eps_K, lc, bc, ic = cfg.eps_regularity.K, cfg.ladder, cfg.barrier, cfg.inequalities
    regimes = (CRITICAL, SUBCRITICAL)
    ex = "experiments."
    rules = (
        (grid.n % 2 != 0, "grid.n must be even"),
        (grid.n < 8, "grid.n must be at least 8"),
        (not grid.l > 0.0, "grid.l must be positive"),
        (idc.family not in _FAMILIES,
         "initial_data.family must be one of " + ", ".join(_FAMILIES)),
        (idc.modes < 1, "initial_data.modes must be at least 1"),
        (idc.seed < 0, "initial_data.seed must be nonnegative"),
        (not rc.T > 0.0, "run.T must be positive"),
        (not 0.0 < rc.cfl <= 1.0, "run.cfl must lie in (0, 1]"),
        (not rc.dt_min > 0.0, "run.dt_min must be positive"),
        (rc.dt_max < rc.dt_min, "run.dt_max must be at least run.dt_min"),
        (rc.snapshot_cadence < 1, "run.snapshot_cadence must be at least 1"),
        (any(p < 1.0 for p in dc.p_list), "diagnostics.p_list entries must be at least 1"),
        (not dc.f_floor > 0.0, "diagnostics.f_floor must be positive"),
        (eps_K is not None and not eps_K >= 0.0, ex + "eps_regularity.K must be nonnegative"),
        (lc.regime not in regimes, ex + "ladder.regime must be critical or subcritical"),
        (lc.K is not None and not lc.K >= 0.0, ex + "ladder.K must be nonnegative"),
        (lc.K == 0.0 and lc.regime == SUBCRITICAL,
         ex + "ladder.K must be positive when subcritical"),
        (lc.amplitude is not None and not lc.amplitude > 0.0,
         ex + "ladder.amplitude must be positive"),
        (not 1 <= lc.N_levels <= 12, ex + "ladder.N_levels must lie in [1, 12]"),
        (not lc.p > 1.5, ex + "ladder.p must exceed 3/2"),
        (lc.t is not None and not 0.0 < lc.t <= rc.T, ex + "ladder.t must lie in (0, run.T]"),
        (bc.regime not in regimes, ex + "barrier.regime must be critical or subcritical"),
        (bc.a is not None and not bc.a > 0.0, ex + "barrier.a must be positive"),
        (not bc.k > 0.0, ex + "barrier.k must be positive"),
        (bc.n_weight >= -3.0, ex + "barrier.n_weight must be below -3"),
        (ic.corpus_size < 4, ex + "inequalities.corpus_size must be at least 4"),
        (ic.corpus_seed < 0, ex + "inequalities.corpus_seed must be nonnegative"),
    )
    for violated, message in rules:
        if violated:
            raise ConfigError(message)


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class InitialData:
    field: ScalarField
    residuals: tuple
    tail_fraction: float
    params: dict


def _family_profile(idc: InitialDataConfig):
    """Profile evaluator u -> values; u already shifted and dilated, as
    three 1-D views that broadcast to the grid."""
    family = idc.family
    if family == "maxwellian":
        return lambda u: np.exp(-0.5 * (u[0] ** 2 + u[1] ** 2 + u[2] ** 2))
    if family == "bimaxwellian":
        sep = idc.separation

        def two_bumps(u):
            r2 = u[1] ** 2 + u[2] ** 2
            return 0.5 * (
                np.exp(-0.5 * ((u[0] - sep) ** 2 + r2))
                + np.exp(-0.5 * ((u[0] + sep) ** 2 + r2))
            )

        return two_bumps
    if family == "polytail":
        if idc.k <= 9.0:
            raise HypothesisError("hypothesis: polytail requires k > 9")
        k = idc.k
        return lambda u: 1.0 / (1.0 + np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2) ** k)
    # mixture: seeded gaussian bumps with random centers and widths
    rng = np.random.default_rng(idc.seed)
    centers = np.clip(rng.normal(0.0, 1.0, size=(idc.modes, 3)), -2.0, 2.0)
    widths = rng.uniform(0.5, 1.0, size=idc.modes)
    weights = rng.uniform(0.5, 1.5, size=idc.modes)

    def bumps(u):
        out = 0.0  # u holds broadcast 1-D views, so no zeros_like(u[0])
        for c, w, amp in zip(centers, widths, weights):
            r2 = (u[0] - c[0]) ** 2 + (u[1] - c[1]) ** 2 + (u[2] - c[2]) ** 2
            out = out + amp * np.exp(-0.5 * r2 / w ** 2)
        return out

    return bumps


def make_initial_data(config: ExperimentConfig, grid: VelocityGrid) -> InitialData:
    """Sample the configured family and renormalize it discretely.

    Fixed-point loop over (amplitude, center, dilation): rescale to unit
    mass, recenter to kill momentum, dilate to energy 3.  At most 12
    updates; residuals of the final iterate are reported.
    """
    idc = config.initial_data
    profile = _family_profile(idc)
    center = np.zeros(3)
    lam = 1.0
    amp = 1.0
    vals = None
    mass = mom = energy = None
    for it in range(13):
        u = tuple(lam * (x - c) for x, c in zip(grid.axes, center))
        vals = amp * lam ** 3 * profile(u)
        mass, mom, energy = diagnostics.moments(grid, vals)
        if not mass > 0.0:
            raise ConfigError("initial_data: sampled profile has nonpositive mass")
        mom = np.array(mom) / mass
        energy = energy / mass
        centered_energy = energy - float(mom @ mom)
        resid = max(abs(mass - 1.0), float(np.max(np.abs(mom))), abs(energy - 3.0))
        if resid < 1e-13 or it == 12:
            break
        amp /= mass
        # sampled field is profile(lam*(v - center)), so its mean sits at
        # center + m/lam; shifting center by -mom moves the mean to zero
        center -= mom
        if centered_energy > 0.0:
            lam *= math.sqrt(centered_energy / 3.0)

    residuals = (mass - 1.0, float(np.max(np.abs(mom))), energy - 3.0)
    outside = grid.radius2 > (0.5 * grid.l) ** 2
    tail = float(np.sum(vals[outside]) / np.sum(vals))
    if tail > 1e-2:
        raise ConfigError(
            f"initial_data: domain too small, {tail:.3e} of mass outside |v| <= l/2"
        )
    if tail > 1e-4:
        warnings.warn(
            f"domain too small: {tail:.3e} of mass outside |v| <= l/2",
            stacklevel=2,
        )
    params = {
        "family": idc.family,
        "center": tuple(float(c) for c in center),
        "dilation": float(lam),
        "amplitude": float(amp),
    }
    if idc.family == "polytail":
        params["k"] = float(idc.k)
    if idc.family == "mixture":
        params["seed"] = int(idc.seed)
    return InitialData(
        field=ScalarField(grid, vals),
        residuals=residuals,
        tail_fraction=tail,
        params=params,
    )


# ---------------------------------------------------------------------------
# snapshot format


def write_snapshot(path: str, f: ScalarField, t: float) -> None:
    """Raw little-endian dump: magic, u32 n, f64 l, f64 t, then n^3 f64."""
    header = _LCF_HEADER.pack(LCF_MAGIC, f.grid.n, f.grid.l, float(t))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))


def read_snapshot(path: str, grid: VelocityGrid | None = None) -> tuple[ScalarField, float]:
    """The field and time in an LCF1 file; on ``grid`` when its (n, l)
    match the file's, so equal grids share their per-node arrays.  The
    values are read straight into the field's array."""
    with open(path, "rb") as fh:
        header = fh.read(_LCF_HEADER.size)
        if len(header) < _LCF_HEADER.size or header[:4] != LCF_MAGIC:
            raise ConfigError(f"not an LCF1 snapshot: {path}")
        _, n, l, t = _LCF_HEADER.unpack(header)
        # the size is checked before n^3 values are allocated
        if os.fstat(fh.fileno()).st_size != _LCF_HEADER.size + 8 * n ** 3:
            raise ConfigError(f"truncated snapshot: {path}")
        vals = np.empty((n, n, n), dtype="<f8")
        if fh.readinto(vals) != vals.nbytes:
            raise ConfigError(f"truncated snapshot: {path}")
    try:
        if grid is None or (grid.n, grid.l) != (n, l):
            grid = make_grid(int(n), float(l))
        f = ScalarField(grid, vals)
    except ValueError as exc:  # odd or small n, bad l, non-finite values
        raise ConfigError(f"bad snapshot {path}: {exc}") from None
    return f, float(t)


@dataclass(frozen=True)
class FileSnapshot:
    """A snapshot kept on disk: ``f`` reads the LCF1 file at ``path`` onto
    ``grid`` at every access, with ``read_snapshot``'s checks, and nothing
    of the field is held between accesses."""

    path: str
    grid: VelocityGrid
    t: float
    step_count: int

    @property
    def f(self) -> ScalarField:
        return read_snapshot(self.path, self.grid)[0]


@dataclass(frozen=True)
class Trajectory:
    """A run to time T: its ``FileSnapshot``s and one diagnostics record
    per step, t = 0 included."""

    grid: VelocityGrid
    states: tuple
    records: tuple
    T: float


# ---------------------------------------------------------------------------
# CSV emission (repr cells: byte-stable and round-trip exact)


def _fmt(x) -> str:
    return repr(float(x))


def _write_lines(path: str, lines) -> None:
    """Text file of lines, LF-terminated on every platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def diagnostics_columns(p_list, m_list) -> list:
    cols = [
        "t", "mass", "px", "py", "pz", "energy", "entropy", "fisher",
        "fisher_sqrt_form", "linf", "c0_hat", "sup_A",
    ]
    cols += [f"lp_{p:g}_m_{m:g}" for p in p_list for m in m_list]
    return cols


def diagnostics_row(rec, p_list, m_list) -> str:
    cells = [
        _fmt(rec.t), _fmt(rec.mass), _fmt(rec.momentum[0]), _fmt(rec.momentum[1]),
        _fmt(rec.momentum[2]), _fmt(rec.energy), _fmt(rec.entropy),
        _fmt(rec.fisher), _fmt(rec.fisher_sqrt_form), _fmt(rec.linf),
        _fmt(rec.c0_hat), _fmt(rec.sup_A),
    ]
    cells += [_fmt(rec.lp_norms[(p, m)]) for p in p_list for m in m_list]
    return ",".join(cells)


def write_diagnostics_csv(path: str, records, p_list, m_list) -> None:
    lines = [CSV_SCHEMA_LINE, ",".join(diagnostics_columns(p_list, m_list))]
    lines += [diagnostics_row(r, p_list, m_list) for r in records]
    _write_lines(path, lines)


def write_ladder_csv(path: str, ladder, fit) -> None:
    lines = [CSV_SCHEMA_LINE, "n,level,t_n,energy,a_sup,b_int,usable,bracket,ratio,slack"]
    per_rung = {}
    if fit is not None and fit.verdict == "fitted":
        for rung, br, ratio, slack in zip(fit.rungs, fit.brackets, fit.ratios, fit.slack):
            per_rung[rung] = (br, ratio, slack)
    for n in range(len(ladder.levels)):
        row = [
            str(n), _fmt(ladder.levels[n]), _fmt(ladder.times[n]),
            _fmt(ladder.energies[n]), _fmt(ladder.a_values[n]),
            _fmt(ladder.b_values[n]), str(int(ladder.usable[n])),
        ]
        if n in per_rung:
            row += [_fmt(v) for v in per_rung[n]]
        else:
            row += ["", "", ""]
        lines.append(",".join(row))
    _write_lines(path, lines)


def write_report_csv(path: str, report) -> None:
    lines = [CSV_SCHEMA_LINE, "sample,ratio"]
    lines += [f"{i},{_fmt(r)}" for i, r in enumerate(report.ratios)]
    _write_lines(path, lines)


def read_csv_columns(path: str) -> dict:
    """Columns of a schema-1 CSV as float lists keyed by header name."""
    with open(path, "r") as fh:
        rows = [line.rstrip("\n") for line in fh]
    rows = [r for r in rows if r and not r.startswith("#")]
    if not rows:
        raise ConfigError(f"empty csv: {path}")
    header = rows[0].split(",")
    cols = {name: [] for name in header}
    for row in rows[1:]:
        cells = row.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"ragged csv row in {path}")
        try:
            for name, cell in zip(header, cells):
                cols[name].append(float(cell) if cell else math.nan)
        except ValueError:
            raise ConfigError(f"non-numeric csv cell in {path}") from None
    return cols


# ---------------------------------------------------------------------------
# SVG plots


def svg_line_plot(path: str, xs, ys, title: str, xlabel: str, ylabel: str) -> None:
    """Single-polyline chart with axes and ticks; no external renderer."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    pts = [(float(x), float(y)) for x, y in zip(xs, ys)
           if math.isfinite(x) and math.isfinite(y)]
    if pts:
        xmin = min(p[0] for p in pts)
        xmax = max(p[0] for p in pts)
        ymin = min(p[1] for p in pts)
        ymax = max(p[1] for p in pts)
    else:
        xmin, xmax, ymin, ymax = 0.0, 1.0, 0.0, 1.0
    if xmax == xmin:
        pad = max(1e-12, abs(xmin) * 0.05 + 1e-12)
        xmin, xmax = xmin - pad, xmax + pad
    if ymax == ymin:
        pad = max(1e-12, abs(ymin) * 0.05 + 1e-12)
        ymin, ymax = ymin - pad, ymax + pad

    def sx(x):
        return ml + (x - xmin) / (xmax - xmin) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - ymin) / (ymax - ymin) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    axis = (
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        f'stroke="#000000" stroke-width="1"/>'
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    parts.append(axis)
    for i in range(5):
        fx = xmin + (xmax - xmin) * i / 4.0
        fy = ymin + (ymax - ymin) * i / 4.0
        px = sx(fx)
        py = sy(fy)
        parts.append(
            f'<line x1="{px:.2f}" y1="{height - mb}" x2="{px:.2f}" '
            f'y2="{height - mb + 5}" stroke="#000000" stroke-width="1"/>'
            f'<text x="{px:.2f}" y="{height - mb + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{fx:.4g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
            f'<text x="{ml - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{fy:.4g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})">{ylabel}</text>'
    )
    if len(pts) >= 2:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f77b4" '
            f'stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    _write_lines(path, parts)


def write_run_plots(outdir: str, t, linf, fisher, entropy) -> None:
    svg_line_plot(os.path.join(outdir, "linf.svg"), t, linf,
                  "sup norm", "t", "||f||_inf")
    svg_line_plot(os.path.join(outdir, "fisher.svg"), t, fisher,
                  "fisher information", "t", "i(f)")
    svg_line_plot(os.path.join(outdir, "entropy.svg"), t, entropy,
                  "entropy", "t", "entropy")
    t_linf = [ti * li for ti, li in zip(t, linf)]
    svg_line_plot(os.path.join(outdir, "t_linf.svg"), t, t_linf,
                  "smoothing envelope", "t", "t * ||f||_inf")


# ---------------------------------------------------------------------------
# experiment driver


# n^3 arrays of doubles live at a run's peak, in the eig_range (n >= 48)
# or the div_flux (below) of a step's new state: the run's Workspace (22
# plus 16 n^2 doubles: one buffer whose product spectrum overlays a, grad a
# and grad f), the chunk scratch of eig_range (4 at n <= 48 and 2 at
# n = 64 with two lanes, more with more lanes) or the smaller face buffers
# of div_flux, the run's input, the old state's f and rhs and the new f
# and rhs (5), and the weights that the ellipticity floor and the records
# read (1 to 3); the grid keeps no |v|^2 or 1 + |v|^2 cube.  No snapshot
# is held: each goes to disk as it is taken.  Traced cold runs, table
# excluded, two lanes: 3-step bimaxwellian 35.6, 34.3, 33.9, 32.4 and
# 30.3 at n = 16/24/32/48/64; the harness32 configuration (cadence 1,
# every section) 37.1-39.7, 35.4-36.7, 34.9-35.2 and 33.5-33.6 at
# n = 16/24/32/48, after 6 and after 24 steps.  One lane: bimaxwellian
# 34.3, 33.2 and 29.8 at n = 24/32/64, harness32 36.2 and 34.6 at
# n = 24/32.  Four lanes: bimaxwellian 34.6, 33.6 and 32.3 at
# n = 24/32/64.  Below n = 24 the per-step records, about a kilobyte
# each, weigh in.
_STEP_ARRAYS = 38


def _estimated_peak_bytes(n: int) -> int:
    """Memory a whole ``landau run`` at grid size n needs at least: the
    kernel table, two octant symbols of (n+1)^3 doubles, plus a step's
    working set.  The snapshots are written as they are taken and not
    kept, so the bound holds for any step count; the interpreter's own
    footprint and the per-step records, about a kilobyte each, come on
    top."""
    return table_nbytes(n) + _STEP_ARRAYS * 8 * n ** 3


def _memory_limit_bytes() -> float:
    """The smaller of MemAvailable and the cgroup (v2) memory.max, read
    only; inf where neither can be read."""
    limit = math.inf
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    limit = int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open("/sys/fs/cgroup/memory.max") as fh:
            raw = fh.read().strip()
        if raw != "max":
            limit = min(limit, int(raw))
    except (OSError, ValueError):
        pass
    return limit


def _check_memory(n: int) -> None:
    need = _estimated_peak_bytes(n)
    have = _memory_limit_bytes()
    if need > have:
        raise ConfigError(
            f"memory: a run at n={n} needs at least {need / 1e6:.0f} MB, "
            f"more than the {have / 1e6:.0f} MB available"
        )


def run_trajectory(f0: ScalarField, rc: RunControlConfig, dc: DiagnosticsConfig,
                   outdir: str) -> Trajectory:
    """Advance f0 to time rc.T, recording diagnostics every step.

    A snapshot is taken every ``rc.snapshot_cadence`` steps from t = 0 and
    always at T, and written to snapshot_{i:04d}.lcf in outdir as it is
    taken: a breakdown leaves those before it, and the run holds none of
    them.  One ``Workspace`` takes every coefficient set of the run; between
    sets its first four rows are the records' scratch.
    """
    T = rc.T
    if not T > 0.0:
        raise ValueError("T must be positive")
    if float(np.min(f0.values)) < -1e-12 * max(1.0, float(np.max(f0.values))):
        raise ValueError("initial data must be nonnegative")
    control = solver.StepControl(cfl=rc.cfl, dt_min=rc.dt_min, dt_max=rc.dt_max,
                                 positivity_clip=rc.positivity_clip)
    grid = f0.grid
    work = Workspace.for_grid(grid)  # freed when the run returns
    scratch = work.coefficients[:4]
    snaps, records = [], []
    t_end = T * (1.0 - 1e-12)
    state = solver.make_state(f0, 0.0, work)
    while True:
        records.append(diagnostics.record(state, dc.p_list, dc.m_list, dc.f_floor, scratch))
        done = state.t >= t_end
        if done or state.step_count % rc.snapshot_cadence == 0:
            path = os.path.join(outdir, f"snapshot_{len(snaps):04d}.lcf")
            write_snapshot(path, state.f, state.t)
            snaps.append(FileSnapshot(path, grid, state.t, state.step_count))
        if done:
            return Trajectory(grid, tuple(snaps), tuple(records), float(T))
        state = solver.step(state, control, dt_limit=T - state.t, work=work)


def _check_line(name: str, ok: bool, detail: str) -> str:
    return f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"


def run_experiment(config: ExperimentConfig, outdir: str) -> int:
    """Run the configured experiment and write all artifacts to outdir.

    Returns 0 when every enabled check passes, 1 otherwise; hypothesis
    and config violations, and a run too large for the memory at hand,
    raise before the run starts.
    """
    os.makedirs(outdir, exist_ok=True)
    # hypothesis gates come first so bad configs fail before the long run
    if config.barrier.enabled and config.barrier.regime == SUBCRITICAL:
        if config.barrier.k <= 5.0:
            raise HypothesisError("hypothesis: k > 5 required")

    grid = make_grid(config.grid.n, config.grid.l)
    # before the kernel table is built, so a run that cannot fit exits 2
    _check_memory(grid.n)
    init = make_initial_data(config, grid)
    dc = config.diagnostics
    traj = run_trajectory(init.field, config.run, dc, outdir)
    records = traj.records

    write_diagnostics_csv(
        os.path.join(outdir, "diagnostics.csv"), records, dc.p_list, dc.m_list
    )
    write_run_plots(outdir, [r.t for r in records], [r.linf for r in records],
                    [r.fisher for r in records], [r.entropy for r in records])

    # each section gives (summary lines, checks); lines precede all checks
    sections = [_run_section(init, traj)]
    if config.eps_regularity.enabled:
        sections.append(_eps_regularity_section(config.eps_regularity, traj))
    if config.ladder.enabled:
        sections.append(_ladder_section(config.ladder, traj, outdir))
    if config.barrier.enabled:
        sections.append(_barrier_section(config.barrier, init, traj, outdir))
    if config.inequalities.enabled:
        ic = config.inequalities
        sections.append(([], _inequality_checks(
            grid, ic.corpus_size, ic.corpus_seed, outdir, "inequality_"
        )))
    lines = [line for section_lines, _ in sections for line in section_lines]
    return _finish(outdir, lines, [c for _, checks in sections for c in checks])


def _finish(outdir: str, lines: list, checks: list) -> int:
    """Write lines, one line per check and the verdict to summary.txt and
    stdout; 0 when every check passes, 1 otherwise."""
    lines = lines + [_check_line(name, ok, detail) for name, ok, detail in checks]
    n_fail = sum(1 for _, ok, _ in checks if not ok)
    verdict = "PASS" if n_fail == 0 else f"FAIL ({n_fail} of {len(checks)})"
    lines.append(f"verdict: {verdict}")
    _write_lines(os.path.join(outdir, "summary.txt"), lines)
    print("\n".join(lines))
    return 0 if n_fail == 0 else 1


def _run_section(init: InitialData, traj):
    """Summary header, conservation and monotonicity checks of every run."""
    grid, records = traj.grid, traj.records
    lines = [
        "landau experiment summary (schema=1)",
        f"grid: n={grid.n} l={_fmt(grid.l)} h={_fmt(grid.h)}",
        f"initial_data: family={init.params['family']}",
        f"renormalization residuals: mass={init.residuals[0]:.3e} "
        f"momentum={init.residuals[1]:.3e} energy={init.residuals[2]:.3e}",
        f"tail fraction outside |v|<=l/2: {init.tail_fraction:.3e}",
        f"run: T={_fmt(traj.T)} steps={traj.states[-1].step_count} "
        f"snapshots={len(traj.states)}",
    ]
    mass0 = records[0].mass
    mass_drift = max(abs(r.mass - mass0) for r in records) / abs(mass0)
    mom_drift = max(max(abs(c) for c in r.momentum) for r in records)
    e0 = records[0].energy
    energy_drift = max(abs(r.energy - e0) for r in records) / abs(e0)
    ds = np.diff([r.entropy for r in records])
    max_ds = float(np.max(ds)) if ds.size else 0.0
    fisher = np.array([r.fisher for r in records])
    max_df = float(np.max(np.diff(fisher[10:]) / fisher[10:-1])) if fisher.size > 11 else 0.0
    checks = [
        ("mass_conservation", mass_drift <= 1e-12,
         f"max relative drift {mass_drift:.3e} (tol 1e-12)"),
        ("momentum_drift", mom_drift <= 1e-2, f"max component {mom_drift:.3e} (tol 1e-2)"),
        ("energy_drift", energy_drift <= 1e-2,
         f"max relative drift {energy_drift:.3e} (tol 1e-2)"),
        ("entropy_monotone", max_ds <= 1e-8,
         f"max per-step increase {max_ds:.3e} (tol 1e-8)"),
        ("fisher_monotone", max_df <= 1e-3,
         f"max relative per-step increase {max_df:.3e} after step 10 (tol 1e-3)"),
    ]
    return lines, checks


def _eps_regularity_section(ec: EpsRegularityConfig, traj):
    K = ec.K if ec.K is not None else 0.6 * max(r.linf for r in traj.records)
    eps = diagnostics.eps_regularity(traj, K, window=(0.5 * traj.T, traj.T))
    return (
        [f"eps_regularity: K={_fmt(K)} window=[T/2,T] eps={_fmt(eps)}"],
        [("eps_regularity_finite", math.isfinite(eps), f"eps={eps:.6e} at K={K:.6e}")],
    )


def _ladder_section(lc: LadderConfig, traj, outdir: str):
    v = degiorgi.ladder_verdict(
        traj, lc.regime, K=lc.K, amplitude=lc.amplitude, t=lc.t,
        N_levels=lc.N_levels, p=lc.p,
    )
    ladder, fit = v.ladder, v.fit
    lines, checks = [], []
    if v.skipped is not None:
        lines.append(f"ladder fit skipped: {v.skipped}")
    write_ladder_csv(os.path.join(outdir, "ladder.csv"), ladder, fit)
    E0 = ladder.energies[0]
    lines.append(
        f"ladder: regime={lc.regime} K={_fmt(ladder.K)} "
        f"amplitude={_fmt(ladder.amplitude)} t={_fmt(ladder.t)} E0={_fmt(E0)}"
    )
    if v.sound is not None:
        lines.append(f"ladder note: {fit.note}")
        checks.append((
            "ladder_soundness", v.sound,
            f"measured sup {v.tail_linf:.6e} <= predicted {v.predicted:.6e} "
            f"(C_hat={fit.c_hat:.6e})",
        ))
        if v.decay_ok is not None:
            detail = (
                f"max rung ratio {v.worst_ratio:.3f} for n<=6 (tol 0.9, E0 below eps0)"
                if v.decay_active else f"vacuous: E0={E0:.3e} above eps0={v.eps0:.3e}"
            )
            checks.append(("ladder_decay", v.decay_ok, detail))
    elif fit is not None:
        lines.append("ladder: all levels empty (vacuous)")
    return lines, checks


def _barrier_section(bc: BarrierConfig, init: InitialData, traj, outdir: str):
    v = barrier_verdict(traj, init.field, bc.regime, bc.k, n_weight=bc.n_weight, a=bc.a)
    rows = [f"{_fmt(s.t)},{_fmt(m)},{_fmt(r)}"
            for s, m, r in zip(traj.states, v.monitor.values, v.monitor.ratios)]
    _write_lines(os.path.join(outdir, "barrier.csv"),
                 [CSV_SCHEMA_LINE, "t,monitor,min_ratio"] + rows)
    checks = [
        ("barrier_hypothesis", v.hypothesis_ok, "initial data sits above the barrier"),
        ("barrier_monotone", v.monotone_ok,
         f"max monitor increase {v.monitor.max_increase:.3e} (tol {v.monotone_tol:.3e})"),
        ("barrier_lower_bound", v.lower_bound_ok,
         f"min ratio {v.min_ratio:.6f} (tol {v.lower_tol:.6f})"),
    ]
    line = (f"barrier: regime={bc.regime} a={_fmt(v.params.a)} k={_fmt(bc.k)} "
            f"eta={_fmt(v.params.eta_rate)}")
    return [line], checks


def _inequality_checks(grid: VelocityGrid, size: int, seed: int, outdir: str,
                       prefix: str) -> list:
    """Run the inequality panel, write one CSV per report, return its checks."""
    checks = []
    for rep in run_inequality_suite(grid, size, seed):
        write_report_csv(os.path.join(outdir, f"inequality_{rep.name}.csv"), rep)
        detail = f"max ratio {rep.max_ratio:.6e}, halves spread {rep.halves_spread:.3f}"
        if rep.notes:
            detail += f" ({rep.notes})"
        checks.append((prefix + rep.name, rep.passed, detail))
    return checks


def run_inequality_suite(grid: VelocityGrid, size: int, seed: int):
    """The fixed panel of inequality reports used by the CLI.

    One pass over each corpus: every sample feeds the Sobolev ratio and
    both interpolation ratios, then is dropped, and the Poincare pairs
    stream into their check, so the panel holds one sample at a time."""
    qs = (2.5, 13.0 / 6.0)
    rows = [(sobolev_ratio(f, 4.5), interpolation_ratios(f, 1.5, qs, 4.5))
            for f in iter_corpus(grid, size, seed)]
    pairs = iter_poincare_corpus(grid, size, seed)
    eps_grid = np.logspace(-2.0, 0.0, 7)
    return [
        sobolev_report(4.5, [s for s, _ in rows], seed),
        *interpolation_reports(1.5, qs, 4.5, [i for _, i in rows], seed),
        check_eps_poincare(pairs, 2.0, eps_grid, 2.0, seed),
    ]


# ---------------------------------------------------------------------------
# CLI


def _load_config(path: str | None) -> ExperimentConfig:
    text = ""
    if path:
        with open(path, "r") as fh:
            text = fh.read()
    return parse_config(text)


def _check_grid_flags(args) -> None:
    """--n, --l and --seed of the subcommands that build their own grid."""
    if args.n % 2 != 0 or args.n < 8:
        raise ConfigError("--n must be even and at least 8")
    if not args.l > 0.0:
        raise ConfigError("--l must be positive")
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")


def _cmd_run(args) -> int:
    return run_experiment(_load_config(args.config), args.out)


def _cmd_ladder(args) -> int:
    config = _load_config(args.config)
    config.ladder.enabled = True
    config.eps_regularity.enabled = False
    config.barrier.enabled = False
    config.inequalities.enabled = False
    return run_experiment(config, args.out)


def _cmd_diagnose(args) -> int:
    p_list, m_list = (1.5,), (4.5,)
    print(CSV_SCHEMA_LINE)
    print("file," + ",".join(diagnostics_columns(p_list, m_list)))
    grid = work = None
    for path in args.snapshots:
        f, t = read_snapshot(path, grid)
        # a nonzero field needs positive mass for its coefficient set
        if np.any(f.values) and not f.grid.cell_volume() * float(np.sum(f.values)) > 0.0:
            raise ConfigError(f"bad snapshot {path}: nonpositive total mass")
        if f.grid is not grid:  # one workspace per grid, not per file
            grid, work = f.grid, Workspace.for_grid(f.grid)
        state = solver.make_state(f, t, work)
        rec = diagnostics.record(state, p_list, m_list, scratch=work.coefficients[:4])
        print(f"{os.path.basename(path)}," + diagnostics_row(rec, p_list, m_list))
    return 0


def _cmd_verify_inequalities(args) -> int:
    _check_grid_flags(args)
    if args.size < 4:
        raise ConfigError("--size must be at least 4")
    os.makedirs(args.out, exist_ok=True)
    checks = _inequality_checks(make_grid(args.n, args.l), args.size, args.seed,
                                args.out, "")
    gap = abs(build_cutoff(1.0).c_hat - build_cutoff(10.0).c_hat)
    checks.append(("cutoff_scale_invariance", gap <= 1e-10,
                   f"|C(R=1) - C(R=10)| = {gap:.3e} (tol 1e-10; 0 by "
                   f"construction: c_hat depends on r/R only)"))
    header = (f"inequality suite: n={args.n} l={_fmt(args.l)} size={args.size} "
              f"seed={args.seed}")
    return _finish(args.out, [header], checks)


def _cmd_convolve_check(args) -> int:
    if args.n > 20:
        raise ConfigError("convolve-check: --n must be at most 20")
    _check_grid_flags(args)
    grid = make_grid(args.n, args.l)
    rng = np.random.default_rng(args.seed)
    f = ScalarField(grid, rng.random((args.n,) * 3))
    errors = spectral_vs_direct(f)
    for component, err in errors.items():
        print(f"component {component}: rel err {err:.3e}")
    worst = max(errors.values())
    ok = worst <= 1e-10
    print(_check_line("convolve_check", ok, f"max rel err {worst:.3e} (tol 1e-10)"))
    return 0 if ok else 1


def _cmd_plot(args) -> int:
    cols = read_csv_columns(args.csv)
    for need in ("t", "linf", "fisher", "entropy"):
        if need not in cols:
            raise ConfigError(f"csv missing column {need}: {args.csv}")
    outdir = args.out if args.out else (os.path.dirname(args.csv) or ".")
    os.makedirs(outdir, exist_ok=True)
    write_run_plots(outdir, cols["t"], cols["linf"], cols["fisher"], cols["entropy"])
    print(f"wrote 4 plots to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landau",
        description="velocity-space collision simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("--config", default=None, help="INI config path")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_diag = sub.add_parser("diagnose", help="print diagnostics for snapshots")
    p_diag.add_argument("snapshots", nargs="+", help="LCF1 snapshot paths")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_ineq = sub.add_parser("verify-inequalities", help="run the inequality suite")
    p_ineq.add_argument("--seed", type=int, default=2026)
    p_ineq.add_argument("--size", type=int, default=50)
    p_ineq.add_argument("--n", type=int, default=32)
    p_ineq.add_argument("--l", type=float, default=8.0)
    p_ineq.add_argument("--out", default="ineq_out")
    p_ineq.set_defaults(func=_cmd_verify_inequalities)

    p_lad = sub.add_parser("ladder", help="run and measure the iteration ladder")
    p_lad.add_argument("--config", default=None)
    p_lad.add_argument("--out", default="out")
    p_lad.set_defaults(func=_cmd_ladder)

    p_conv = sub.add_parser("convolve-check",
                            help="spectral vs direct-sum coefficients")
    p_conv.add_argument("--n", type=int, default=12)
    p_conv.add_argument("--l", type=float, default=6.0)
    p_conv.add_argument("--seed", type=int, default=2026)
    p_conv.set_defaults(func=_cmd_convolve_check)

    p_plot = sub.add_parser("plot", help="render SVG plots from a diagnostics csv")
    p_plot.add_argument("csv")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LandauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeError) as exc:  # unreadable or undecodable input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
