"""Benchmark workloads: the landau command each one runs and its inputs.

The solver workloads run one fixed input on every seed: their initial data
take no seed, and a fixed input keeps the step count and the reference
outputs the same on every run.  On ``inequalities48`` the seed picks the
corpus seed from ``CORPUS_SEEDS``, each of which passes the inequality
checks at the full scale; the corpus size stays fixed, so every seed costs
the same.  Each input has reference outputs in ``reference.json``.  The
``smoke`` scale shrinks every workload to n=16 for the benchmark's own test.
"""
from __future__ import annotations

from dataclasses import dataclass

SCALES = ("full", "smoke")
CORPUS_SEEDS = (2026, 7, 11, 12345)


@dataclass(frozen=True)
class Job:
    """One workload at one scale and input."""

    workload: str
    scale: str
    params: dict
    n: int
    config: str | None  # INI text for `landau run`; None for other commands

    @property
    def solver(self) -> bool:
        return self.config is not None

    @property
    def reference_key(self) -> str:
        key = f"{self.workload}/{self.scale}"
        if "corpus_seed" in self.params:
            key += f"/{self.params['corpus_seed']}"
        return key

    def argv(self, config_path: str, outdir: str) -> list:
        """Command line for ``landau.cli_io.main``."""
        if self.solver:
            return ["run", "--config", config_path, "--out", outdir]
        p = self.params
        return ["verify-inequalities", "--n", str(self.n), "--size", str(p["size"]),
                "--seed", str(p["corpus_seed"]), "--out", outdir]


def _bimax(scale: str, seed: int) -> Job:
    # coefficient FFTs dominate each step; the n=64 kernel table sets memory
    n, T = (64, 0.1) if scale == "full" else (16, 0.04)
    config = f"""\
[grid]
n = {n}
l = 8.0
[initial_data]
family = bimaxwellian
[run]
T = {T!r}
dt_max = 0.02
snapshot_cadence = 1000
"""
    return Job("bimax64", scale, {}, n, config)


def _harness(scale: str, seed: int) -> Job:
    # the full verification path: per-step diagnostics, monitors, snapshot IO
    n, T = (32, 0.5) if scale == "full" else (16, 0.05)
    config = f"""\
[grid]
n = {n}
l = 8.0
[initial_data]
family = polytail
k = 10.0
[run]
T = {T!r}
dt_max = 0.01
snapshot_cadence = 1
[diagnostics]
p_list = 1.5, 2.0
m_list = 4.5, 6.0
[experiments.eps_regularity]
enabled = true
[experiments.ladder]
regime = critical
[experiments.barrier]
regime = critical
k = 10.0
"""
    return Job("harness32", scale, {}, n, config)


def _inequalities(scale: str, seed: int) -> Job:
    # makes no coefficient or solver call: the bypass for coefficient changes
    # at n=16 the spread gates need a larger corpus to pass on every seed
    n, size = (48, 100) if scale == "full" else (16, 150)
    params = {"corpus_seed": CORPUS_SEEDS[seed % len(CORPUS_SEEDS)], "size": size}
    return Job("inequalities48", scale, params, n, None)


_MAKERS = {"bimax64": _bimax, "harness32": _harness, "inequalities48": _inequalities}
WORKLOADS = tuple(_MAKERS)


def make_job(workload: str, seed: int, scale: str = "full") -> Job:
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return _MAKERS[workload](scale, seed)
