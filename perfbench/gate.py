"""Correctness gate for benchmark runs.

A run of a workload command passes when it exits with the expected code,
its summary ends in ``verdict: PASS``, its deterministic artifacts are
byte-identical to those of the first run in the same benchmark process,
and its key outputs match ``reference.json``.  The reference tolerance
``RTOL`` admits round-off-level rewrites of the numerics (a pruned
transform matches ``irfftn`` to about 3e-16) and rejects a wrong
coefficient, which moves these outputs by far more than 1e-9.

This module reads artifacts with its own parser so that a defect in the
program's CSV reader cannot hide a defect in its output.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

RTOL = 1e-9
# mass drift is round-off (~1e-16); compare it against an absolute floor
MASS_DRIFT_ATOL = 1e-13

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_FIXED_ARTIFACTS = ("diagnostics.csv", "ladder.csv", "barrier.csv")


def is_deterministic(filename: str) -> bool:
    return filename in _FIXED_ARTIFACTS or (
        filename.startswith("inequality_") and filename.endswith(".csv")
    )


def read_csv(path: Path) -> dict:
    """Columns of a schema-1 CSV as float lists; empty cells are NaN."""
    rows = [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    header = rows[0].split(",")
    cols = {name: [] for name in header}
    for row in rows[1:]:
        cells = row.split(",")
        if len(cells) != len(header):
            raise ValueError(f"ragged row in {path.name}")
        for name, cell in zip(header, cells):
            cols[name].append(float(cell) if cell else math.nan)
    return cols


def key_outputs(outdir: Path) -> dict:
    """The outputs compared against the reference values."""
    out = {}
    diag = outdir / "diagnostics.csv"
    if diag.exists():
        cols = read_csv(diag)
        mass = cols["mass"]
        out["mass_drift"] = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
        out["final_entropy"] = cols["entropy"][-1]
        out["final_linf"] = cols["linf"][-1]
    ladder = outdir / "ladder.csv"
    if ladder.exists():
        out["ladder_energies"] = read_csv(ladder)["energy"]
    for path in sorted(outdir.glob("inequality_*.csv")):
        ratios = [r for r in read_csv(path)["ratio"] if math.isfinite(r)]
        out[f"max_ratio.{path.stem[len('inequality_'):]}"] = max(ratios)
    return out


def inspect(outdir) -> dict:
    """What the gate and the metrics need from one run's output directory."""
    outdir = Path(outdir)
    hashes, nbytes, nfiles, samples = {}, 0, 0, 0
    paths = sorted(outdir.iterdir()) if outdir.is_dir() else []
    for path in paths:
        nfiles += 1
        nbytes += path.stat().st_size
        if is_deterministic(path.name):
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.name.startswith("inequality_"):
            samples += len(read_csv(path)["ratio"])
    summary_path = outdir / "summary.txt"
    summary = summary_path.read_text() if summary_path.exists() else ""
    verdict = re.findall(r"^verdict: (.*)$", summary, re.M)
    steps = re.search(r"\bsteps=(\d+)", summary)
    return {
        "verdict": verdict[-1] if verdict else None,
        "steps": int(steps.group(1)) if steps else None,
        "samples": samples,
        "hashes": hashes,
        "outputs": key_outputs(outdir),
        "bytes_written": nbytes,
        "files_written": nfiles,
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def compare_outputs(got: dict, ref: dict) -> list:
    """Reasons the outputs miss the reference; empty when they match."""
    reasons = []
    if set(got) != set(ref):
        reasons.append(f"outputs {sorted(got)} differ from reference {sorted(ref)}")
    for name in sorted(set(got) & set(ref)):
        g, r = got[name], ref[name]
        if isinstance(r, list):
            scale = max((abs(x) for x in r), default=0.0)
            ok = len(g) == len(r) and all(
                abs(a - b) <= RTOL * scale for a, b in zip(g, r)
            )
        else:
            atol = MASS_DRIFT_ATOL if name == "mass_drift" else 0.0
            ok = abs(g - r) <= RTOL * abs(r) + atol
        if not ok:
            reasons.append(f"{name} = {g!r} misses reference {r!r}")
    return reasons


def check_run(run: dict, first: dict, ref: dict | None, expected_rc: int = 0) -> list:
    """Reasons one run fails the gate; empty when it passes."""
    reasons = []
    if run["rc"] != expected_rc:
        reasons.append(f"exit code {run['rc']} (expected {expected_rc})")
    if run["verdict"] != "PASS":
        reasons.append(f"verdict {run['verdict']!r}")
    if run["hashes"] != first["hashes"]:
        changed = sorted(
            name for name in set(run["hashes"]) | set(first["hashes"])
            if run["hashes"].get(name) != first["hashes"].get(name)
        )
        reasons.append(f"artifacts differ from the first run: {', '.join(changed)}")
    if ref is None:
        reasons.append("no reference values for this input")
    else:
        reasons += compare_outputs(run["outputs"], ref)
    return reasons
