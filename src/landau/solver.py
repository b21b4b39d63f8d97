"""Conservative explicit time integration of the collision equation.

The update is divergence-form: face fluxes F = A grad f - f grad a with
arithmetic face averaging, differenced back onto cells.  The divergence is
the exact adjoint of the face difference, so total mass telescopes to
round-off every step.  Heun two-stage stepping with a parabolic CFL bound;
the nonlocal coefficients are rebuilt at each stage.

This module is a stepper: ``make_state`` and ``step``.  The run loop that
drives it to a time T, records diagnostics and writes snapshots is
``cli_io.run_trajectory``.  A state keeps its flux divergence, the first
stage of the next step, and the three scalars of its coefficient set that
the step bound and the diagnostics read, but not the set.  So no two sets
are ever alive at once, and a caller that passes one ``Workspace`` to
every step has every set, every gradient of f and every spectrum of the
coefficient transforms written into it.  The grid-sized arrays a step
allocates are the stage f, the stage's flux divergence, which the new f
is built in, and the new state's divergence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .coefficients import CoefficientSet, Workspace, compute_coefficients
from .errors import NumericError, StiffnessError
from .grid_field import ScalarField, gradient_values, squared_norm


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
    """f at time t, with what later steps and records read of its
    coefficient set: ``rhs``, the flux divergence at f with f's own
    coefficients (the next step's first stage), the ellipticity range
    ``c0_hat`` and ``sup_A``, and ``grad_a_max`` = max over nodes of
    |grad a|."""

    f: ScalarField
    t: float
    rhs: np.ndarray
    c0_hat: float
    sup_A: float
    grad_a_max: float
    step_count: int = 0
    undershoot: float = 0.0
    clipped_mass: float = 0.0


def _coefficients(f: ScalarField, work: Workspace) -> CoefficientSet | None:
    # the identically-zero field has no dynamics and no set
    return compute_coefficients(f, work=work) if np.any(f.values) else None


def _rhs(f: ScalarField, coeffs: CoefficientSet | None, work: Workspace) -> np.ndarray:
    """Flux divergence at f with the coefficient set coeffs."""
    if coeffs is None:
        return np.zeros_like(f.values)
    return _accel.div_flux(
        f.values,
        gradient_values(f.grid, f.values, out=work.gradient),
        coeffs.A.values,
        coeffs.grad_a.values,
        f.grid.h,
    )


def _state(f: ScalarField, t: float, work: Workspace, **history) -> SimulationState:
    coeffs = _coefficients(f, work)
    if coeffs is None:
        return SimulationState(f, t, _rhs(f, None, work), 0.0, 0.0, 0.0, **history)
    # the ellipticity range first, whose work arrays set the peak of a
    # step: the rhs is not alive yet, and the eigenvalues go into the
    # gradient buffer that the rhs fills next
    c0_hat, sup_A = coeffs.ellipticity_range(out=work.gradient[:2])
    rhs = _rhs(f, coeffs, work)
    # grad a is not read again: the norm squares it in place
    grad_a_max = math.sqrt(float(np.max(squared_norm(coeffs.grad_a.values))))
    return SimulationState(f, t, rhs, c0_hat, sup_A, grad_a_max, **history)


def make_state(
    f: ScalarField, t: float = 0.0, work: Workspace | None = None
) -> SimulationState:
    """The state of f at t; ``work`` is the run's workspace, else a fresh
    one is used and dropped."""
    undershoot = max(0.0, -float(np.min(f.values)))
    return _state(f, float(t), work or Workspace.for_grid(f.grid),
                  undershoot=undershoot)


def stable_dt(state: SimulationState, control: StepControl) -> float:
    """Parabolic step bound cfl h^2 / (6 sup_A + h max|grad a|)."""
    grid = state.f.grid
    denom = 6.0 * state.sup_A + grid.h * state.grad_a_max
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
    state: SimulationState,
    control: StepControl,
    dt_limit: float | None = None,
    work: Workspace | None = None,
) -> SimulationState:
    """One Heun step; dt_limit trims the step (used to land exactly on T).
    ``work`` is the run's workspace, else a fresh one is used and dropped."""
    grid = state.f.grid
    dt = stable_dt(state, control)
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    if not (math.isfinite(dt) and dt > 0.0):
        raise NumericError("no finite positive time step available")
    work = work or Workspace.for_grid(grid)

    f0 = state.f.values
    k1 = state.rhs
    f1 = np.multiply(k1, dt)
    f1 += f0
    # the stage set is written over by the new state's set
    stage = ScalarField(grid, f1)
    k2 = _rhs(stage, _coefficients(stage, work), work)
    del f1, stage
    # f0 + 0.5 dt (k1 + k2), built in k2's memory: each element sees the
    # same operations on the same operands as the plain expression
    f2 = np.add(k1, k2, out=k2)
    f2 *= 0.5 * dt
    np.add(f0, f2, out=f2)

    if not np.all(np.isfinite(f2)):
        raise NumericError(f"solution lost finiteness at t={state.t + dt:.6g}")

    undershoot = max(state.undershoot, max(0.0, -float(np.min(f2))))
    clipped = state.clipped_mass
    if control.positivity_clip and np.any(f2 < 0.0):
        total = float(np.sum(f2))
        np.maximum(f2, 0.0, out=f2)
        pos_total = float(np.sum(f2))
        clipped += (pos_total - total) * grid.cell_volume()
        if pos_total > 0.0 and total > 0.0:
            f2 *= total / pos_total

    return _state(
        ScalarField(grid, f2),
        state.t + dt,
        work,
        step_count=state.step_count + 1,
        undershoot=undershoot,
        clipped_mass=clipped,
    )
