"""Conservative explicit time integration of the collision equation.

The update is divergence-form: face fluxes F = A grad f - f grad a with
arithmetic face averaging, differenced back onto cells.  The divergence is
the exact adjoint of the face difference, so total mass telescopes to
round-off every step.  Heun two-stage stepping with a parabolic CFL bound;
the nonlocal coefficients are rebuilt at each stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel, diagnostics
from .coefficients import CoefficientSet, compute_coefficients
from .errors import NumericError, StiffnessError
from .grid_field import (
    ScalarField,
    SymMatrixField,
    VectorField,
    VelocityGrid,
    gradient_values,
)


@dataclass(frozen=True)
class StepControl:
    cfl: float = 0.5
    dt_min: float = 1e-9
    dt_max: float = math.inf
    positivity_clip: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not self.dt_min > 0.0:
            raise ValueError("dt_min must be positive")
        if self.dt_min > self.dt_max:
            raise ValueError("dt_min must not exceed dt_max")


@dataclass(frozen=True)
class SimulationState:
    f: ScalarField
    t: float
    coeffs: CoefficientSet
    step_count: int = 0
    undershoot: float = 0.0
    clipped_mass: float = 0.0


def _zero_coefficients(grid: VelocityGrid) -> CoefficientSet:
    z = np.zeros((grid.n,) * 3)
    return CoefficientSet(
        a=ScalarField(grid, z),
        grad_a=VectorField(grid, np.zeros((3,) + z.shape)),
        A=SymMatrixField(grid, np.zeros((6,) + z.shape)),
    )


def _coefficients_for(grid: VelocityGrid, values: np.ndarray) -> CoefficientSet:
    # the identically-zero state has no dynamics and no ellipticity
    if not np.any(values):
        return _zero_coefficients(grid)
    return compute_coefficients(ScalarField(grid, values))


def make_state(f: ScalarField, t: float = 0.0) -> SimulationState:
    undershoot = max(0.0, -float(np.min(f.values)))
    return SimulationState(
        f=f,
        t=float(t),
        coeffs=_coefficients_for(f.grid, f.values),
        undershoot=undershoot,
    )


def _rhs(grid: VelocityGrid, values: np.ndarray, coeffs: CoefficientSet) -> np.ndarray:
    return _accel.div_flux(
        values,
        gradient_values(grid, values),
        coeffs.A.values,
        coeffs.grad_a.values,
        grid.h,
    )


def stable_dt(state: SimulationState, control: StepControl) -> float:
    """Parabolic step bound cfl h^2 / (6 sup_A + h max|grad a|)."""
    grid = state.f.grid
    ga = state.coeffs.grad_a.values
    gmax = math.sqrt(float(np.max(ga[0] ** 2 + ga[1] ** 2 + ga[2] ** 2)))
    denom = 6.0 * state.coeffs.sup_A + grid.h * gmax
    if denom <= 0.0:
        return control.dt_max  # no dynamics
    dt = control.cfl * grid.h * grid.h / denom
    if dt < control.dt_min:
        raise StiffnessError(
            f"stiffness: stable step {dt:.3e} fell below dt_min "
            f"{control.dt_min:.3e} at t={state.t:.6g}"
        )
    return min(dt, control.dt_max)


def step(
    state: SimulationState, control: StepControl, dt_limit: float | None = None
) -> SimulationState:
    """One Heun step; dt_limit trims the step (used to land exactly on T)."""
    grid = state.f.grid
    dt = stable_dt(state, control)
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    if not (math.isfinite(dt) and dt > 0.0):
        raise NumericError("no finite positive time step available")

    f0 = state.f.values
    k1 = _rhs(grid, f0, state.coeffs)
    f1 = f0 + dt * k1
    # the stage set dies here, before the new state's set is built
    k2 = _rhs(grid, f1, _coefficients_for(grid, f1))
    f2 = f0 + 0.5 * dt * (k1 + k2)
    del f1, k1, k2  # not live while the new state's set is built

    if not np.all(np.isfinite(f2)):
        raise NumericError(f"solution lost finiteness at t={state.t + dt:.6g}")

    undershoot = max(state.undershoot, max(0.0, -float(np.min(f2))))
    clipped = state.clipped_mass
    if control.positivity_clip and np.any(f2 < 0.0):
        total = float(np.sum(f2))
        f2 = np.maximum(f2, 0.0)
        pos_total = float(np.sum(f2))
        clipped += (pos_total - total) * grid.cell_volume()
        if pos_total > 0.0 and total > 0.0:
            f2 = f2 * (total / pos_total)

    return SimulationState(
        f=ScalarField(grid, f2),
        t=state.t + dt,
        coeffs=_coefficients_for(grid, f2),
        step_count=state.step_count + 1,
        undershoot=undershoot,
        clipped_mass=clipped,
    )


@dataclass(frozen=True)
class Snapshot:
    f: ScalarField
    t: float
    step_count: int


@dataclass(frozen=True)
class Trajectory:
    grid: VelocityGrid
    states: tuple
    records: tuple
    T: float


def run(
    f_in: ScalarField,
    T: float,
    control: StepControl | None = None,
    snapshot_every: int | None = None,
    p_list=(1.5,),
    m_list=(4.5,),
    f_floor: float = 1e-14,
) -> Trajectory:
    """Advance f_in to time T, recording diagnostics every step.

    Snapshots are kept every ``snapshot_every`` steps from t = 0 when
    given, and always at the endpoint.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    if float(np.min(f_in.values)) < -1e-12 * max(1.0, float(np.max(f_in.values))):
        raise ValueError("initial data must be nonnegative")
    control = control or StepControl()

    state = make_state(f_in, 0.0)
    grid = f_in.grid
    records = [diagnostics.record(state, p_list, m_list, f_floor)]
    snaps = []
    if snapshot_every is not None:
        snaps.append(Snapshot(state.f, state.t, 0))

    t_end = T * (1.0 - 1e-12)
    while state.t < t_end:
        try:
            state = step(state, control, dt_limit=T - state.t)
        except NumericError as exc:
            exc.last_state = state  # state dump for post-mortem
            raise
        records.append(diagnostics.record(state, p_list, m_list, f_floor))
        if snapshot_every is not None and state.step_count % snapshot_every == 0:
            snaps.append(Snapshot(state.f, state.t, state.step_count))

    if not snaps or snaps[-1].step_count != state.step_count:
        snaps.append(Snapshot(state.f, state.t, state.step_count))
    return Trajectory(grid, tuple(snaps), tuple(records), float(T))
