"""Conservative explicit time integration of the collision equation.

The update is divergence-form: face fluxes F = A grad f - f grad a with
arithmetic face averaging, differenced back onto cells.  The divergence is
the exact adjoint of the face difference, so total mass telescopes to
round-off every step.  Heun two-stage stepping with a parabolic CFL bound;
the nonlocal coefficients are rebuilt at each stage.

This module is a stepper: ``make_state`` and ``step``.  A step is two
halves, ``heun_update``, which builds the new f, and ``complete_state``,
which builds the new state's coefficient set, ellipticity range and flux
divergence; ``step`` is their composition.  The run loop that drives it
to a time T, records diagnostics and writes snapshots is
``cli_io.run_trajectory``: it calls the two halves and drops the old
state between them, so the old f and its flux divergence are freed
before the new set is built.  A state keeps its flux divergence, the
first stage of the next step, and the three scalars of its coefficient
set that the step bound and the diagnostics read, but not the set.  So
no two sets are ever alive at once, and a caller that passes one
``Workspace`` to every step has every set, every gradient of f and every
spectrum of the coefficient transforms written into it.  The grid-sized
arrays a step allocates are the stage f, the new f and the new state's
flux divergence; the stage's flux divergence and the work arrays of the
ellipticity range and of both flux divergences go into the workspace's
``scratch``.  A set is bare arrays and is checked once per state: a
state whose flux divergence or coefficient bounds are not finite raises
``NumericError``, and a stage's set is checked through the new f it
builds.
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


def _rhs(f: ScalarField, coeffs: CoefficientSet | None, work: Workspace,
         in_scratch: bool = False) -> np.ndarray:
    """Flux divergence at f with the coefficient set coeffs: a new array,
    or with ``in_scratch`` the first n^3 doubles of ``work.scratch``, dead
    once the next set is started.  The face buffers take the rest of the
    scratch."""
    size = f.values.size
    if in_scratch:
        out = work.scratch[:size].reshape(f.values.shape)
    else:
        out = np.empty_like(f.values)
    if coeffs is None:
        out.fill(0.0)
        return out
    grad_f = gradient_values(f.grid, f.values, out=work.gradient)
    return _accel.div_flux(f.values, grad_f, coeffs.A, coeffs.grad_a, f.grid.h,
                           out=out, scratch=work.scratch[size:])


def _state(f: ScalarField, t: float, work: Workspace, **history) -> SimulationState:
    coeffs = _coefficients(f, work)
    if coeffs is None:
        return SimulationState(f, t, _rhs(f, None, work), 0.0, 0.0, 0.0, **history)
    # the ellipticity range first: its eigenvalues go into the gradient
    # buffer that the rhs fills next, and its work arrays into the scratch
    c0_hat, sup_A = coeffs.ellipticity_range(out=work.gradient[:2], scratch=work.scratch)
    rhs = _rhs(f, coeffs, work)
    # grad a is not read again: the norm squares it in place
    grad_a_max = math.sqrt(float(np.max(squared_norm(coeffs.grad_a))))
    # the rhs reads every row of A and of grad a, so it is finite only if
    # the set is; min and max take no temporary and propagate nan
    bounds = (float(np.min(rhs)), float(np.max(rhs)), c0_hat, sup_A, grad_a_max)
    if not all(map(math.isfinite, bounds)):
        raise NumericError(f"non-finite flux divergence or coefficient bound at t={t:.6g}")
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


@dataclass(frozen=True)
class HeunUpdate:
    """A Heun step's new f at time t and the history the new state
    carries, before its coefficient set is built (``complete_state``)."""

    f: ScalarField
    t: float
    step_count: int
    undershoot: float
    clipped_mass: float


def heun_update(
    state: SimulationState,
    control: StepControl,
    dt_limit: float | None = None,
    work: Workspace | None = None,
) -> HeunUpdate:
    """The first half of a Heun step: the new f.  dt_limit trims the step
    (used to land exactly on T).  ``work`` is the run's workspace, else a
    fresh one is used and dropped."""
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
    # the stage set is written over by the new state's set, and the stage
    # rhs lives in the workspace's scratch until then
    stage = ScalarField(grid, f1)
    k2 = _rhs(stage, _coefficients(stage, work), work, in_scratch=True)
    del f1, stage
    # f0 + 0.5 dt (k1 + k2), built in a new array once the stage f is
    # freed: each element sees the same operations on the same operands as
    # the plain expression
    f2 = np.add(k1, k2)
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
    return HeunUpdate(ScalarField(grid, f2), state.t + dt, state.step_count + 1,
                      undershoot, clipped)


def complete_state(update: HeunUpdate, work: Workspace | None = None) -> SimulationState:
    """The second half of a Heun step: the state of the new f, with its
    coefficient set's bounds and flux divergence.  ``work`` is the run's
    workspace, else a fresh one is used and dropped."""
    f = update.f
    return _state(f, update.t, work or Workspace.for_grid(f.grid),
                  step_count=update.step_count, undershoot=update.undershoot,
                  clipped_mass=update.clipped_mass)


def step(
    state: SimulationState,
    control: StepControl,
    dt_limit: float | None = None,
    work: Workspace | None = None,
) -> SimulationState:
    """One Heun step, ``complete_state`` of ``heun_update``; dt_limit trims
    the step (used to land exactly on T).  ``work`` is the run's workspace,
    else a fresh one is used for both halves and dropped.  The caller's
    state stays alive through the second half; ``cli_io.run_trajectory``
    calls the halves itself to drop it."""
    work = work or Workspace.for_grid(state.f.grid)
    return complete_state(heun_update(state, control, dt_limit, work), work)
