"""Shared fixtures: grids and the canonical verification runs.

The trajectory fixtures are session-scoped because the n=64 runs cost
tens of seconds each; unit tests stick to the small grids.  Every run goes
through ``run_trajectory``, the loop ``landau run`` executes, and keeps its
snapshots on disk in a temporary directory.
"""
import warnings
from typing import NamedTuple

import pytest

import landau
from landau.cli_io import (
    DiagnosticsConfig,
    ExperimentConfig,
    GridConfig,
    InitialDataConfig,
    InitialData,
    RunControlConfig,
    Trajectory,
    make_initial_data,
    run_trajectory,
)


ACCEPTANCE_LINES = []


def record_criterion(num: int, ok: bool, detail: str) -> bool:
    """One verdict line per acceptance criterion, echoed after the run."""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid8():
    return landau.make_grid(8, 4.0)


@pytest.fixture(scope="session")
def grid16():
    return landau.make_grid(16, 8.0)


@pytest.fixture(scope="session")
def grid32():
    return landau.make_grid(32, 8.0)


@pytest.fixture(scope="session")
def grid48():
    return landau.make_grid(48, 8.0)


@pytest.fixture(scope="session")
def grid64():
    return landau.make_grid(64, 8.0)


@pytest.fixture
def weight_builds(monkeypatch):
    """record(grid) empties the grid's weight cache and returns a list
    that collects the index m of every <v>^m the grid builds from then on."""
    class Recording(dict):
        def __init__(self, log):
            super().__init__()
            self.log = log

        def __setitem__(self, m, w):
            self.log.append(m)
            super().__setitem__(m, w)

    def record(grid):
        log = []
        monkeypatch.setitem(grid.__dict__, "_weights", Recording(log))
        return log

    return record


class Snapshot(NamedTuple):
    """A snapshot held in memory, for trajectories built by hand."""

    f: landau.ScalarField
    t: float
    step_count: int


class RunBundle(NamedTuple):
    data: InitialData
    traj: Trajectory


def build_run(tmp_path_factory, family, n, l, T, dt_max, cadence, *, seed=2026,
              k=10.0, separation=1.2) -> RunBundle:
    """One renormalized initial datum evolved to T, its snapshots in a new
    temporary directory."""
    cfg = ExperimentConfig()
    cfg.grid = GridConfig(n=n, l=l)
    cfg.initial_data = InitialDataConfig(
        family=family, seed=seed, k=k, separation=separation
    )
    grid = landau.make_grid(n, l)
    with warnings.catch_warnings():
        # small mixture tails trip the domain warning; the hard gate still applies
        warnings.simplefilter("ignore")
        data = make_initial_data(cfg, grid)
    rc = RunControlConfig(T=T, cfl=0.5, dt_min=1e-9, dt_max=dt_max,
                          snapshot_cadence=cadence)
    traj = run_trajectory(data.field, rc, DiagnosticsConfig(),
                          str(tmp_path_factory.mktemp(family)))
    return RunBundle(data, traj)


@pytest.fixture(scope="session")
def run_bimax32(tmp_path_factory):
    return build_run(tmp_path_factory, "bimaxwellian", 32, 8.0, 1.0, 0.05, 10)


@pytest.fixture(scope="session")
def run_bimax48(tmp_path_factory):
    return build_run(tmp_path_factory, "bimaxwellian", 48, 8.0, 1.0, 0.05, 10)


@pytest.fixture(scope="session")
def run_bimax64(tmp_path_factory):
    # the long equilibration run
    return build_run(tmp_path_factory, "bimaxwellian", 64, 8.0, 5.0, 0.05, 10)


@pytest.fixture(scope="session")
def run_cons64(tmp_path_factory):
    # wide box so the tails carry < 0.01% of mass and energy
    return build_run(tmp_path_factory, "bimaxwellian", 64, 12.0, 1.0, 0.05, 10)


@pytest.fixture(scope="session")
def run_mu48(tmp_path_factory):
    # the normalized equilibrium: a fixed point of the flow
    return build_run(tmp_path_factory, "maxwellian", 48, 8.0, 1.0, 0.02, 10)


@pytest.fixture(scope="session")
def run_mu64(tmp_path_factory):
    return build_run(tmp_path_factory, "maxwellian", 64, 8.0, 1.0, 0.02, 10)


@pytest.fixture(scope="session")
def run_poly48(tmp_path_factory):
    return build_run(tmp_path_factory, "polytail", 48, 8.0, 1.0, 0.02, 5)


@pytest.fixture(scope="session")
def run_poly64(tmp_path_factory):
    return build_run(tmp_path_factory, "polytail", 64, 8.0, 1.0, 0.02, 5)


@pytest.fixture(scope="session")
def run_mixtures(tmp_path_factory):
    return {
        seed: build_run(tmp_path_factory, "mixture", 32, 8.0, 1.0, 0.02, 5,
                        seed=seed)
        for seed in (2026, 2027, 2028)
    }
