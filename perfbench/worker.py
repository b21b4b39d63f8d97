"""One benchmark process: set up a workload, then run it in this process.

Set-up imports landau from the checkout's ``src``, parses the workload's
command line and config, and, for solver workloads, builds the kernel
table cold.  The worker then prints ``ready``; the parent times set-up from
spawn to that line.  In ``setup`` mode it stops there.  In ``measure`` mode
it runs the workload command repeatedly, in-process with the kernel-table
cache warm, until ``--seconds`` have passed.  In ``trace`` mode it runs a
fixed number of traced repetitions, each followed by an untraced one.  The
last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 2  # byte-identity needs two runs of the same input
TRACED_REPS = 2  # fixed, so that counts repeat exactly between traced runs


def setup(job, config_path: Path):
    """Import, parse, and build what the workload needs before it runs."""
    import landau
    from landau import cli_io, coefficients

    if Path(landau.__file__).resolve().parent != SRC / "landau":
        raise ImportError(f"landau imported from {landau.__file__}, not {SRC}")
    cli_io.build_parser().parse_args(job.argv(str(config_path), "out"))
    if job.solver:
        config_path.write_text(job.config)
        cfg = cli_io.parse_config(config_path.read_text())
        grid = landau.make_grid(cfg.grid.n, cfg.grid.l)
        coefficients.kernel_table_for(grid)
    return cli_io


def run_once(job, cli_io, config_path: Path, outdir: Path, span=None) -> dict:
    """Run the workload command once and inspect what it wrote."""
    argv = job.argv(str(config_path), str(outdir))
    with contextlib.redirect_stdout(io.StringIO()), (span or contextlib.nullcontext()):
        t0 = time.perf_counter()
        try:
            rc = cli_io.main(argv)
        except Exception:  # a crash is a failed run, reported with its traceback
            rc = "exception: " + traceback.format_exc(limit=-3)
        run_s = time.perf_counter() - t0
    info = gate.inspect(outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    return {"rc": rc, "run_s": run_s, **info}


def environment() -> dict:
    import numpy
    import scipy
    from landau import _accel, coefficients

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "accel_uses_numba": bool(getattr(_accel, "USE_NUMBA", False)),
        "fft_workers": coefficients.fft_workers(),
    }


def measure(job, cli_io, config_path: Path, workdir: Path, seconds: float) -> dict:
    runs = []
    t_end = time.perf_counter() + seconds
    while len(runs) < MIN_REPS or time.perf_counter() < t_end:
        runs.append(run_once(job, cli_io, config_path, workdir / f"rep{len(runs)}"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"runs": runs, "peak_rss_mb": rss_mb}


def trace(job, tracer, cli_io, config_path: Path, workdir: Path, setup_wall: float) -> dict:
    """Traced repetitions alternating with untraced ones."""
    from landau import _accel

    runs, traced, untraced = [], [], []
    wall = setup_wall
    for i in range(TRACED_REPS):
        tracer.install()
        run = run_once(job, cli_io, config_path, workdir / f"traced{i}",
                       tracer.root("run"))
        tracer.uninstall()
        wall += run["run_s"]
        traced.append(run)
        untraced.append(run_once(job, cli_io, config_path, workdir / f"plain{i}"))
        runs += [traced[-1], untraced[-1]]

    metrics = spans.layer_metrics(tracer, _accel.div_flux, _accel.eig_range)
    metrics["cli_io.bytes_written"] = sum(r["bytes_written"] for r in traced)
    metrics["cli_io.files_written"] = sum(r["files_written"] for r in traced)
    # the benchmark's root spans and any span outside the eight layers
    metrics["other.self_s"] = sum(t for (layer, _), t in tracer.self_time.items()
                                  if layer not in spans.LAYERS)
    metrics["trace.wall_s"] = wall
    run_traced = statistics.median(r["run_s"] for r in traced)
    run_plain = statistics.median(r["run_s"] for r in untraced)
    metrics["trace.run_s"] = run_traced
    metrics["trace.overhead_s"] = run_traced - run_plain
    top = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])[:15]
    return {
        "runs": runs,
        "metrics": metrics,
        "top_spans": [[f"{k[0]}.{k[1]}", tracer.calls[k], t] for k, t in top],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    warnings.simplefilter("ignore")  # domain-size warnings from initial data
    job = workloads.make_job(args.workload, args.seed, args.scale)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "workload.ini"

    tracer = None
    if args.mode == "trace":
        # landau must be imported before its namespaces can be wrapped
        import landau  # noqa: F401
        from landau import cli_io  # noqa: F401

        tracer = spans.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        with tracer.root("setup"):
            cli_io = setup(job, config_path)
        setup_wall = time.perf_counter() - t0
        tracer.uninstall()
    else:
        cli_io = setup(job, config_path)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if tracer is None:
        result = measure(job, cli_io, config_path, workdir, args.seconds)
    else:
        result = trace(job, tracer, cli_io, config_path, workdir, setup_wall)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
