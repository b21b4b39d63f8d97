"""landau benchmark: end-to-end and per-layer metrics of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bimax64 --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
result holds the end-to-end metrics, measured untraced:

- ``setup_s``: fresh process to ready-to-step (import, argument and config
  parse, cold kernel-table build for solver workloads); median of
  ``SETUP_SAMPLES`` fresh processes, the measured one included.
- ``run_s``: median wall time of the workload command, run repeatedly in
  one process with the kernel-table cache warm.
- ``steps_per_s``: Heun steps per ``run_s``; on ``inequalities48``, which
  steps no solver, corpus samples checked per ``run_s``.
- ``peak_rss_mb``: peak resident memory of the measured process.

``error_rate`` (failed runs over runs attempted) is printed with them and
carried by the ``attempted`` and ``failed`` fields of the result; a run
fails on a wrong exit code, a FAIL verdict or a miss in ``gate.py``.

With ``--trace 1`` a separate process wraps the public functions of each
landau module (``spans.py``) and reports per-layer counts and times over
one traced set-up and a fixed number of traced runs (``--seconds`` does
not apply), plus the tracing overhead against untraced runs interleaved
with them.  Counters named ``*_computed`` are computed from array shapes
and dtypes, and ``cli_io.bytes_written`` from the sizes of the files
written; none of them is measured traffic.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``all``, one such line
follows each workload.  The exit code is 0 whenever every workload printed
its result, also when a result reads ``"correct": false``: the result line
carries the verdict, and the benchmark's contract asks for exit code 0
with it.  The exit code is not 0 when a workload could not be measured
(a worker crashed or timed out) or the checkout holds no landau sources;
then no result line is printed for that workload.  Every process this
script starts is waited for before it exits.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
ACCOUNTING_RTOL = 1e-3
WORKER_TIMEOUT_S = 170.0

# metric units by name suffix, first match wins; anything else is a count
_UNITS = (("_per_s", "1/s"), ("_mb", "MB"), ("_mb_computed", "MB"),
          ("bytes_written", "B"), ("_ratio", "ratio"), ("_s", "s"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in _UNITS if name.endswith(suffix)), "count")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    """Commit of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, workdir: Path, deadline: float):
    """Start a worker; return (setup seconds, parsed result or None)."""
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, LANDAU_THREADS=str(nproc()))
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--mode", mode,
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    with open(workdir / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=env, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"{mode} worker timed out") from None
    if proc.returncode != 0 or ready.strip() != "ready":
        tail = (workdir / "stderr.txt").read_text()[-2000:]
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{tail}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def accounting_miss(metrics: dict) -> str | None:
    """Why the reported self times fail to add up to the traced wall time.

    The sum runs over the printed ``<layer>.self_s`` metrics and
    ``other.self_s``, so a layer the report leaves out shows as a miss.
    """
    names = [f"{layer.lstrip('_')}.self_s" for layer in spans.LAYERS] + ["other.self_s"]
    missing = [name for name in names if name not in metrics]
    if missing:
        return f"no {', '.join(missing)} in the result"
    if any(metrics[name] < 0 for name in names):
        return "a negative self time"
    wall = metrics["trace.wall_s"]
    total = sum(metrics[name] for name in names)
    if abs(total - wall) > ACCOUNTING_RTOL * wall:
        return f"self times sum to {total:.6f} s, the wall time is {wall:.6f} s"
    return None


def gate_runs(job, runs: list) -> list:
    """Per-run failure reasons from the correctness gate."""
    ref = gate.load_reference().get(job.reference_key)
    failures = []
    for run in runs:
        reasons = gate.check_run(run, runs[0], ref)
        if run["steps"] != runs[0]["steps"] or run["samples"] != runs[0]["samples"]:
            reasons.append("work per run differs from the first run")
        failures.append(reasons)
    return failures


def run_workload(args) -> dict:
    job = workloads.make_job(args.workload, args.seed, args.scale)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            _, result = spawn(args, "trace", workdir, deadline)
            setups = []
        else:
            setups = [spawn(args, "setup", workdir / f"setup{i}", deadline)[0]
                      for i in range(SETUP_SAMPLES - 1)]
            setup_s, result = spawn(args, "measure", workdir, deadline)
            setups.append(setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK_ROOT.rmdir()

    runs = result["runs"]
    failures = gate_runs(job, runs)
    failed = sum(1 for reasons in failures if reasons)
    correct = failed == 0
    if args.trace:
        metrics = result["metrics"]
        miss = accounting_miss(metrics)
        if miss is not None:
            correct = False
            print(f"trace accounting: {miss}")
    else:
        run_s = statistics.median(r["run_s"] for r in runs)
        work = runs[0]["steps"] if job.solver else runs[0]["samples"]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "steps_per_s": (work or 0) / run_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }

    env = dict(result["environment"], git_sha=git_sha(), nproc=nproc(),
               workload=args.workload, seed=args.seed, scale=args.scale,
               inputs=job.params, runs=len(runs),
               setup_samples=len(setups))
    print(f"== {args.workload} seed={args.seed} {job.params}")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, reasons in enumerate(failures):
        for reason in reasons:
            print(f"FAIL run {i}: {reason}")
    if args.trace:
        for name, calls, self_s in result["top_spans"]:
            print(f"span {name:<44} calls {calls:>7} self {self_s:.4f} s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"error_rate {failed / len(runs):.6g} ({failed} of {len(runs)} runs failed)")
    return {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES,
                    help="smoke shrinks every workload to n=16 for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "landau" / "__init__.py").is_file():
        print(f"error: no landau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            result = run_workload(args)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
