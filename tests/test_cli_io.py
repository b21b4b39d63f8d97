"""Config parsing, snapshot and CSV formats, the experiment driver, and the
command-line entry points."""
import dataclasses
import gc
import math
import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import landau
from landau import cli_io, diagnostics, solver
from landau.cli_io import (
    CSV_SCHEMA_LINE,
    LCF_MAGIC,
    ExperimentConfig,
    diagnostics_columns,
    diagnostics_row,
    main,
    make_initial_data,
    parse_config,
    read_csv_columns,
    read_snapshot,
    write_snapshot,
)
from landau.coefficients import Workspace
from landau.degiorgi import ladder_verdict
from landau.errors import ConfigError, HypothesisError
from landau.grid_field import make_grid
from landau.inequalities import barrier_verdict

RUN_CFG = """\
[grid]
n = 16
l = 8.0
[initial_data]
family = polytail
k = 10.0
[run]
T = 0.05
dt_max = 0.01
snapshot_cadence = 2
[experiments.eps_regularity]
enabled = true
[experiments.ladder]
enabled = true
[experiments.barrier]
regime = critical
k = 10.0
"""


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    # one tiny full-featured run, executed twice for the determinism checks
    base = tmp_path_factory.mktemp("cli_run")
    cfg = base / "run.ini"
    cfg.write_text(RUN_CFG)
    outs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("out1", "out2"):
            out = base / name
            rc = main(["run", "--config", str(cfg), "--out", str(out)])
            outs.append((out, rc))
    return cfg, outs


def test_parse_defaults():
    cfg = parse_config("")
    assert cfg.grid.n == 64 and cfg.grid.l == 8.0
    assert cfg.initial_data.family == "maxwellian"
    assert cfg.run.T == 1.0 and cfg.run.cfl == 0.5
    assert cfg.run.dt_max == 0.02 and cfg.run.snapshot_cadence == 50
    assert cfg.diagnostics.p_list == (1.5,) and cfg.diagnostics.m_list == (4.5,)
    assert not cfg.eps_regularity.enabled and not cfg.ladder.enabled
    assert not cfg.barrier.enabled and not cfg.inequalities.enabled


def test_parse_values():
    cfg = parse_config(
        "[grid]\nn = 32\nl = 6.5\n"
        "[initial_data]\nfamily = mixture\nseed = 7\nmodes = 2\n"
        "[run]\nT = 0.5\npositivity_clip = true\n"
        "[diagnostics]\np_list = 1.5, 2\nm_list = 4.5\n"
    )
    assert cfg.grid.n == 32 and cfg.grid.l == 6.5
    assert cfg.initial_data.seed == 7 and cfg.initial_data.modes == 2
    assert cfg.run.positivity_clip is True
    assert cfg.diagnostics.p_list == (1.5, 2.0)


ALL_FIELDS_CFG = """\
[grid]
n = 32
l = 6.5
[initial_data]
family = polytail
separation = 1.5
k = 11
seed = 7
modes = 2
[run]
T = 0.5
cfl = 0.25
dt_min = 1e-8
dt_max = 0.01
snapshot_cadence = 5
positivity_clip = yes
[diagnostics]
p_list = 1.5, 2
m_list = 4.5, 6
f_floor = 1e-12
[experiments.eps_regularity]
enabled = on
K = 0.02
[experiments.ladder]
enabled = true
regime = subcritical
K = 0.01
amplitude = 0.3
N_levels = 6
p = 2.5
t = 0.25
[experiments.barrier]
enabled = 1
regime = subcritical
a = 0.5
k = 12
n_weight = -7
[experiments.inequalities]
enabled = TRUE
corpus_seed = 11
corpus_size = 20
"""


def test_parse_every_field():
    expected = {
        "grid": {"n": 32, "l": 6.5},
        "initial_data": {
            "family": "polytail", "separation": 1.5, "k": 11.0, "seed": 7,
            "modes": 2,
        },
        "run": {
            "T": 0.5, "cfl": 0.25, "dt_min": 1e-8, "dt_max": 0.01,
            "snapshot_cadence": 5, "positivity_clip": True,
        },
        "diagnostics": {"p_list": (1.5, 2.0), "m_list": (4.5, 6.0), "f_floor": 1e-12},
        "eps_regularity": {"enabled": True, "K": 0.02},
        "ladder": {
            "enabled": True, "regime": "subcritical", "K": 0.01, "amplitude": 0.3,
            "N_levels": 6, "p": 2.5, "t": 0.25,
        },
        "barrier": {
            "enabled": True, "regime": "subcritical", "a": 0.5, "k": 12.0,
            "n_weight": -7.0,
        },
        "inequalities": {"enabled": True, "corpus_seed": 11, "corpus_size": 20},
    }
    cfg = parse_config(ALL_FIELDS_CFG)
    default = ExperimentConfig()
    assert set(expected) == {f.name for f in dataclasses.fields(cfg)}
    for name, values in expected.items():
        got = dataclasses.asdict(getattr(cfg, name))
        assert got == values
        for key, value in values.items():
            # every value differs from its default, so each one was parsed
            assert getattr(getattr(default, name), key) != value
            assert type(got[key]) is type(value)
    with pytest.raises(ConfigError, match=r"unknown section \[experiments.grid\]"):
        parse_config("[experiments.grid]\nn = 32\n")
    with pytest.raises(ConfigError, match=r"unknown section \[eps_regularity\]"):
        parse_config("[eps_regularity]\nK = 0.02\n")


def test_parse_errors():
    with pytest.raises(ConfigError, match=r"unknown section \[foo\]"):
        parse_config("[foo]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key grid.spacing"):
        parse_config("[grid]\nspacing = 1\n")
    with pytest.raises(ConfigError, match="unknown key initial_data.sigma"):
        parse_config("[initial_data]\nsigma = 0.3\n")
    with pytest.raises(ConfigError, match="unknown key initial_data.R"):
        parse_config("[initial_data]\nR = 1.25\n")
    with pytest.raises(ConfigError, match="grid.n must be an integer"):
        parse_config("[grid]\nn = eight\n")
    with pytest.raises(ConfigError, match="grid.l must be a number"):
        parse_config("[grid]\nl = wide\n")
    with pytest.raises(ConfigError, match="run.positivity_clip must be a boolean"):
        parse_config("[run]\npositivity_clip = maybe\n")
    with pytest.raises(ConfigError, match="comma-separated list of numbers"):
        parse_config("[diagnostics]\np_list = 1.5, xx\n")


@pytest.mark.parametrize("text,message", [
    ("[grid]\nn = 15\n", "grid.n must be even"),
    ("[grid]\nn = 6\n", "grid.n must be at least 8"),
    ("[grid]\nl = 0\n", "grid.l must be positive"),
    ("[initial_data]\nfamily = cauchy\n", "initial_data.family must be one of"),
    ("[initial_data]\nfamily = narrow_gaussian\n",
     "initial_data.family must be one of maxwellian, bimaxwellian, polytail, mixture$"),
    ("[initial_data]\nmodes = 0\n", "initial_data.modes must be at least 1"),
    ("[run]\nT = 0\n", "run.T must be positive"),
    ("[run]\ncfl = 1.5\n", "run.cfl must lie in"),
    ("[run]\ndt_min = 0\n", "run.dt_min must be positive"),
    ("[run]\ndt_min = 0.1\ndt_max = 0.01\n", "run.dt_max must be at least run.dt_min"),
    ("[run]\nsnapshot_cadence = 0\n", "run.snapshot_cadence must be at least 1"),
    ("[diagnostics]\np_list = 0.5\n", "p_list entries must be at least 1"),
    ("[diagnostics]\nf_floor = 0\n", "diagnostics.f_floor must be positive"),
    ("[experiments.ladder]\nregime = weird\n",
     "experiments.ladder.regime must be critical or subcritical"),
    ("[experiments.ladder]\nN_levels = 0\n",
     r"experiments.ladder.N_levels must lie in \[1, 12\]"),
    ("[experiments.ladder]\np = 1.5\n", "experiments.ladder.p must exceed 3/2"),
    ("[experiments.barrier]\nregime = weird\n",
     "experiments.barrier.regime must be critical or subcritical"),
    ("[experiments.barrier]\nn_weight = -3\n",
     "experiments.barrier.n_weight must be below -3"),
    ("[experiments.inequalities]\ncorpus_size = 3\n",
     "experiments.inequalities.corpus_size must be at least 4"),
    ("[run]\nT = 0.01\n[experiments.ladder]\nt = 5\n",
     r"experiments.ladder.t must lie in \(0, run.T\]"),
    ("[experiments.ladder]\nt = 0\n", r"experiments.ladder.t must lie in \(0, run.T\]"),
    ("[experiments.ladder]\nK = -1\n", "experiments.ladder.K must be nonnegative"),
    ("[experiments.ladder]\nregime = subcritical\nK = 0\n",
     "experiments.ladder.K must be positive when subcritical"),
    ("[experiments.ladder]\namplitude = 0\n",
     "experiments.ladder.amplitude must be positive"),
    ("[experiments.eps_regularity]\nK = -1\n",
     "experiments.eps_regularity.K must be nonnegative"),
    ("[experiments.barrier]\na = -1\n", "experiments.barrier.a must be positive"),
    ("[experiments.barrier]\nk = 0\n", "experiments.barrier.k must be positive"),
    ("[initial_data]\nseed = -1\n", "initial_data.seed must be nonnegative"),
    ("[experiments.inequalities]\ncorpus_seed = -1\n",
     "experiments.inequalities.corpus_seed must be nonnegative"),
])
def test_validate_messages(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_validate_accepts_boundary_values():
    cfg = parse_config("[run]\nT = 0.5\n[experiments.ladder]\nt = 0.5\nK = 0\n")
    assert cfg.ladder.t == cfg.run.T and cfg.ladder.K == 0.0
    assert parse_config("[experiments.eps_regularity]\nK = 0\n").eps_regularity.K == 0.0


def test_experiments_auto_enable():
    # setting any key switches the experiment on unless enabled says otherwise
    assert parse_config("[experiments.ladder]\nK = 0.01\n").ladder.enabled
    assert parse_config("[experiments.ladder]\n").ladder.enabled
    cfg = parse_config("[experiments.ladder]\nenabled = false\nK = 0.01\n")
    assert not cfg.ladder.enabled
    assert cfg.ladder.K == 0.01
    assert not parse_config("").ladder.enabled


def test_snapshot_roundtrip(tmp_path, grid8):
    f = landau.maxwellian(grid8)
    path = str(tmp_path / "snap.lcf")
    write_snapshot(path, f, 0.75)
    g, t = read_snapshot(path)
    assert t == 0.75
    assert g.grid.n == grid8.n and g.grid.l == grid8.l
    assert np.array_equal(g.values, f.values)


def test_snapshot_errors(tmp_path, grid8):
    bad = tmp_path / "bad.lcf"
    bad.write_bytes(b"nope" + b"\x00" * 32)
    with pytest.raises(ConfigError, match="not an LCF1 snapshot"):
        read_snapshot(str(bad))
    path = str(tmp_path / "trunc.lcf")
    write_snapshot(path, landau.maxwellian(grid8), 0.0)
    with open(path, "rb") as fh:
        blob = fh.read()
    short = tmp_path / "short.lcf"
    short.write_bytes(blob[:-8])
    with pytest.raises(ConfigError, match="truncated snapshot"):
        read_snapshot(str(short))


def test_diagnostics_columns_names():
    cols = diagnostics_columns((1.5, 2.0), (4.5,))
    assert cols[:12] == [
        "t", "mass", "px", "py", "pz", "energy", "entropy", "fisher",
        "fisher_sqrt_form", "linf", "c0_hat", "sup_A",
    ]
    assert cols[12:] == ["lp_1.5_m_4.5", "lp_2_m_4.5"]


def test_run_exit_and_artifacts(run_dirs):
    _, outs = run_dirs
    for out, rc in outs:
        assert rc == 0
        names = set(os.listdir(out))
        for need in ("diagnostics.csv", "ladder.csv", "barrier.csv", "summary.txt",
                     "linf.svg", "fisher.svg", "entropy.svg", "t_linf.svg",
                     "snapshot_0000.lcf", "snapshot_0003.lcf"):
            assert need in names
    summary = (outs[0][0] / "summary.txt").read_text()
    assert summary.startswith("landau experiment summary (schema=1)")
    assert summary.rstrip().endswith("verdict: PASS")
    assert "[FAIL]" not in summary
    for name in ("mass_conservation", "entropy_monotone", "fisher_monotone",
                 "eps_regularity_finite", "ladder_soundness", "ladder_decay",
                 "barrier_hypothesis", "barrier_monotone", "barrier_lower_bound"):
        assert f"[PASS] {name}:" in summary


def test_run_byte_identical(run_dirs):
    _, outs = run_dirs
    out1, out2 = outs[0][0], outs[1][0]
    for name in ("diagnostics.csv", "ladder.csv", "barrier.csv",
                 "snapshot_0000.lcf", "snapshot_0003.lcf"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_snapshots_match_a_reference_loop(tmp_path):
    # the snapshot files of run_trajectory are the states of a plain loop
    # over solver.step that takes a snapshot every snapshot_cadence steps
    # and at T, bit for bit, and there are no others; one record per step
    config = parse_config(RUN_CFG)
    rc = config.run
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the polytail's domain warning
        init = make_initial_data(config, make_grid(config.grid.n, config.grid.l))
    traj = cli_io.run_trajectory(init.field, rc, config.diagnostics, str(tmp_path))
    control = solver.StepControl(rc.cfl, rc.dt_min, rc.dt_max, rc.positivity_clip)
    states = [solver.make_state(init.field)]
    while states[-1].t < rc.T * (1.0 - 1e-12):
        states.append(solver.step(states[-1], control, dt_limit=rc.T - states[-1].t))
    want = [s for s in states[:-1] if s.step_count % rc.snapshot_cadence == 0]
    want.append(states[-1])
    assert [s.step_count for s in want] == [0, 2, 4, 5]
    assert sorted(os.listdir(tmp_path)) == [f"snapshot_{i:04d}.lcf" for i in range(4)]
    assert len(traj.states) == len(want)
    for i, (snap, ref) in enumerate(zip(traj.states, want)):
        assert snap.path == str(tmp_path / f"snapshot_{i:04d}.lcf")
        f, t = read_snapshot(snap.path)
        assert (t, snap.t, snap.step_count) == (ref.t, ref.t, ref.step_count)
        assert np.array_equal(f.values.view(np.uint64), ref.f.values.view(np.uint64))
    assert len(traj.records) == states[-1].step_count + 1


def test_file_snapshot_holds_no_array(tmp_path, grid8):
    f = landau.maxwellian(grid8)
    rc = cli_io.RunControlConfig(T=0.02, dt_max=0.01, snapshot_cadence=1)
    traj = cli_io.run_trajectory(f, rc, cli_io.DiagnosticsConfig(), str(tmp_path))
    snap = traj.states[0]
    assert snap.path == str(tmp_path / "snapshot_0000.lcf")
    assert (snap.grid, snap.t, snap.step_count) == (grid8, 0.0, 0)
    assert not any(isinstance(v, (np.ndarray, landau.ScalarField))
                   for v in vars(snap).values())
    # each access reads the file anew onto the kept grid, and the field
    # it returns is the caller's alone: dropped, its array is freed
    g = snap.f
    assert g.grid is grid8 and np.array_equal(g.values, f.values)
    assert snap.f.values is not g.values
    values = weakref.ref(g.values)
    del g
    assert values() is None
    assert traj.states[1].path == str(tmp_path / "snapshot_0001.lcf")


def _traced_run_peak(text: str, outdir) -> tuple[int, str]:
    config = parse_config(text)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cli_io.run_experiment(config, str(outdir))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, (outdir / "summary.txt").read_text()


def test_run_memory_does_not_grow_with_steps(tmp_path):
    # cadence 1: each snapshot goes to disk as it is taken, so 24 steps
    # peak where 6 do; kept in memory, the 18 more would add 18 n^3
    # doubles, against a bound of one n^3 of doubles (8 n^3 bytes).  The
    # warm-up takes the long run's path, so no first-run cache lands in
    # the long run alone, and the cyclic collector is off: a full
    # collection empties the interpreter's free lists, and the small
    # objects a run then parks in them count as traced memory, up to 3 n^3
    # doubles at n = 16 wherever a collection falls.  Then the two runs
    # differ by 0.3 n^3 doubles, and no cycle is freed behind the test
    n = 16
    text = ("[grid]\nn = 16\n[initial_data]\nfamily = bimaxwellian\n"
            "[run]\nT = {T}\ndt_max = 0.01\nsnapshot_cadence = 1\n")
    collecting = gc.isenabled()
    gc.disable()
    try:
        _traced_run_peak(text.format(T=0.24), tmp_path / "warm")  # first-run caches
        short, summary = _traced_run_peak(text.format(T=0.06), tmp_path / "short")
        assert "steps=6 snapshots=7" in summary
        long, summary = _traced_run_peak(text.format(T=0.24), tmp_path / "long")
        assert "steps=24 snapshots=25" in summary
    finally:
        if collecting:
            gc.enable()
    assert long - short < 8 * n ** 3


@pytest.mark.parametrize("breakdown", ["dt_min", "step"])
def test_breakdown_leaves_the_snapshots_taken(tmp_path, monkeypatch, capsys, breakdown):
    # exit 3, and every snapshot taken before the breakdown is on disk:
    # with dt_min above the CFL step the first step fails, after t = 0 is
    # written; a step that fails at t = 0.03 leaves t = 0, 0.01 and 0.02
    text = ("[grid]\nn = 16\n[initial_data]\nfamily = polytail\nk = 10.0\n"
            "[run]\nT = 0.05\ndt_max = 0.01\nsnapshot_cadence = 1\n")
    if breakdown == "dt_min":
        # the CFL step is about 4 at h = 1
        text = text.replace("dt_max = 0.01", "dt_min = 100.0\ndt_max = 100.0")
        taken = 1
    else:
        taken = 3
        step = solver.step

        def failing(state, *args, **kwargs):
            if state.step_count == taken - 1:
                raise landau.NumericError("forced breakdown")
            return step(state, *args, **kwargs)

        monkeypatch.setattr(solver, "step", failing)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert ("stiffness" if breakdown == "dt_min" else "forced breakdown") in err
    names = sorted(name for name in os.listdir(out) if name.endswith(".lcf"))
    assert names == [f"snapshot_{i:04d}.lcf" for i in range(taken)]
    times = [read_snapshot(str(out / name))[1] for name in names]
    assert times == pytest.approx([0.01 * i for i in range(taken)], abs=1e-15)
    assert "summary.txt" not in os.listdir(out)


def test_diagnostics_csv_contents(run_dirs):
    _, outs = run_dirs
    path = outs[0][0] / "diagnostics.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_SCHEMA_LINE
    assert lines[1] == ",".join(diagnostics_columns((1.5,), (4.5,)))
    cols = read_csv_columns(str(path))
    assert len(cols["t"]) == 6 and cols["t"][0] == 0.0
    assert np.allclose(cols["mass"], 1.0, rtol=1e-12)
    assert all(np.isfinite(cols["fisher"]))


def test_read_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# schema=1\n")
    with pytest.raises(ConfigError, match="empty csv"):
        read_csv_columns(str(empty))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ConfigError, match="ragged csv row"):
        read_csv_columns(str(ragged))


def test_plot_subcommand(run_dirs, tmp_path, capsys):
    _, outs = run_dirs
    csv = str(outs[0][0] / "diagnostics.csv")
    out = tmp_path / "plots"
    assert main(["plot", csv, "--out", str(out)]) == 0
    assert "wrote 4 plots" in capsys.readouterr().out
    assert {"linf.svg", "fisher.svg", "entropy.svg", "t_linf.svg"} <= set(os.listdir(out))
    bad = tmp_path / "bad.csv"
    bad.write_text("# schema=1\nt,mass\n0.0,1.0\n")
    assert main(["plot", str(bad)]) == 2
    assert "csv missing column linf" in capsys.readouterr().err


def test_diagnose_subcommand(tmp_path, grid8, capsys):
    f = landau.maxwellian(grid8)
    path = str(tmp_path / "state.lcf")
    write_snapshot(path, f, 0.25)
    assert main(["diagnose", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_SCHEMA_LINE
    assert lines[1] == "file," + ",".join(diagnostics_columns((1.5,), (4.5,)))
    rec = diagnostics.record(solver.make_state(f, 0.25), (1.5,), (4.5,))
    assert lines[2] == "state.lcf," + diagnostics_row(rec, (1.5,), (4.5,))
    assert main(["diagnose", str(tmp_path / "missing.lcf")]) == 2


def test_diagnose_builds_each_weight_once(tmp_path, monkeypatch, capsys):
    # equal grids across the files share one grid, so <v>^4.5 (the record's
    # norm) and <v>^3 (its ellipticity floor) are built once each, and one
    # workspace (29 n^3 doubles) serves every file
    grid = make_grid(16, 8.0)
    paths = []
    for i, scale in enumerate((1.0, 0.8, 1.3)):
        path = str(tmp_path / f"state{i}.lcf")
        f = landau.ScalarField(grid, scale * landau.maxwellian(grid).values)
        write_snapshot(path, f, 0.1 * i)
        paths.append(path)
    builds = []
    weight = landau.VelocityGrid.weight

    def counting(self, m):
        if float(m) not in self._weights:
            builds.append(float(m))
        return weight(self, m)

    monkeypatch.setattr(landau.VelocityGrid, "weight", counting)
    workspaces = []
    for_grid = Workspace.for_grid

    def counting_workspace(grid):
        workspaces.append(grid)
        return for_grid(grid)

    monkeypatch.setattr(Workspace, "for_grid", counting_workspace)
    assert main(["diagnose", *paths]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + len(paths)
    assert sorted(builds) == [3.0, 4.5]
    assert len(workspaces) == 1


def test_convolve_check_subcommand(capsys):
    assert main(["convolve-check", "--n", "8", "--l", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] convolve_check" in out
    assert out.count("component ") == 7
    assert main(["convolve-check", "--n", "30"]) == 2
    assert "must be at most 20" in capsys.readouterr().err
    assert main(["convolve-check", "--n", "9"]) == 2
    assert main(["convolve-check", "--n", "8", "--l", "-1"]) == 2
    assert "--l must be positive" in capsys.readouterr().err


def test_verify_inequalities_subcommand(tmp_path, capsys):
    out = tmp_path / "ineq"
    # a 6-sample corpus is deliberately too small for the halves gate, so
    # this exercises the failure path; the full-size suite runs elsewhere
    rc = main(["verify-inequalities", "--n", "16", "--size", "6",
               "--out", str(out)])
    assert rc == 1
    printed = capsys.readouterr().out
    assert printed.startswith("inequality suite: n=16 l=8.0 size=6 seed=2026")
    assert "[PASS] cutoff_scale_invariance" in printed
    # the verdict counts the failing checks among the four reports and the cutoff
    n_fail = printed.count("[FAIL] ")
    assert n_fail >= 1
    assert printed.splitlines()[-1] == f"verdict: FAIL ({n_fail} of 5)"
    assert (out / "summary.txt").read_text() == printed
    names = set(os.listdir(out))
    assert sum(1 for n in names if n.startswith("inequality_")) == 4
    for argv, flag in ((["--n", "9"], "--n"), (["--l", "0"], "--l"),
                       (["--size", "0"], "--size"), (["--size", "3"], "--size"),
                       (["--seed", "-1"], "--seed")):
        assert main(["verify-inequalities", *argv, "--out", str(out)]) == 2
        assert f"error: {flag} must be" in capsys.readouterr().err


def test_ladder_subcommand(tmp_path, capsys):
    cfg = tmp_path / "lad.ini"
    # barrier requested but the ladder command runs only the ladder
    cfg.write_text(RUN_CFG)
    out = tmp_path / "lad_out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["ladder", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = (out / "summary.txt").read_text()
    assert "ladder:" in summary and "barrier:" not in summary
    assert "eps_regularity" not in summary
    assert (out / "ladder.csv").exists() and not (out / "barrier.csv").exists()


SUBCRITICAL_BARRIER_CFG = """\
[grid]
n = 16
l = 8.0
[initial_data]
family = polytail
k = 10.0
[run]
T = 0.05
dt_max = 0.01
snapshot_cadence = 2
[experiments.barrier]
regime = subcritical
k = 10.0
"""

INEQUALITIES_RUN_CFG = """\
[grid]
n = 16
l = 8.0
[run]
T = 0.02
dt_max = 0.01
[experiments.inequalities]
corpus_size = 6
"""


def _run_config(tmp_path, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
    return rc, out, (out / "summary.txt").read_text().splitlines()


def test_run_subcritical_barrier(tmp_path, capsys):
    rc, out, summary = _run_config(tmp_path, SUBCRITICAL_BARRIER_CFG)
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == summary
    barrier = [line for line in summary if line.startswith("barrier:")]
    assert len(barrier) == 1
    assert barrier[0].startswith("barrier: regime=subcritical a=")
    assert " k=10.0 eta=" in barrier[0]
    for name in ("barrier_hypothesis", "barrier_monotone", "barrier_lower_bound"):
        assert sum(line.startswith(f"[PASS] {name}:") for line in summary) == 1
    assert summary[-1] == "verdict: PASS"
    rows = (out / "barrier.csv").read_text().splitlines()
    assert rows[:2] == [CSV_SCHEMA_LINE, "t,monitor,min_ratio"]
    n_snapshots = sum(1 for n in os.listdir(out) if n.startswith("snapshot_"))
    assert len(rows) == 2 + n_snapshots == 6
    t0, monitor0, ratio0 = (float(c) for c in rows[2].split(","))
    assert t0 == 0.0 and monitor0 == 0.0 and ratio0 >= 1.0


def test_run_inequalities_section(tmp_path, capsys):
    # a 6-sample corpus fails the halves gate on some reports
    rc, out, summary = _run_config(tmp_path, INEQUALITIES_RUN_CFG)
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == summary
    names = [line.split("] ")[1].split(":")[0]
             for line in summary if line.startswith("[")]
    assert names[5:] == [
        "inequality_weighted_sobolev_k4.5",
        "inequality_interpolation_p1.5_q2.5_k4.5",
        "inequality_interpolation_p1.5_q2.16667_k4.5",
        "inequality_eps_poincare_q2_p2",
    ]
    n_fail = sum(line.startswith("[FAIL] ") for line in summary)
    assert n_fail >= 1
    assert summary[-1] == f"verdict: FAIL ({n_fail} of 9)"
    csvs = sorted(n for n in os.listdir(out) if n.startswith("inequality_"))
    assert csvs == sorted(f"{name}.csv" for name in names[5:])


def test_summary_checks_are_the_library_verdicts(tmp_path, monkeypatch):
    # the ladder_* and barrier_* lines of a run are the flags that
    # ladder_verdict and barrier_verdict give on the same trajectory
    seen = {}
    real_run = cli_io.run_trajectory

    def recording_run(f0, *args, **kwargs):
        seen["f0"], seen["traj"] = f0, real_run(f0, *args, **kwargs)
        return seen["traj"]

    monkeypatch.setattr(cli_io, "run_trajectory", recording_run)
    _, _, summary = _run_config(tmp_path, RUN_CFG)
    cfg = parse_config(RUN_CFG)
    lc, bc = cfg.ladder, cfg.barrier
    lad = ladder_verdict(seen["traj"], lc.regime, K=lc.K, amplitude=lc.amplitude,
                         t=lc.t, N_levels=lc.N_levels, p=lc.p)
    bar = barrier_verdict(seen["traj"], seen["f0"], bc.regime, bc.k,
                          n_weight=bc.n_weight, a=bc.a)
    flags = {
        "ladder_soundness": lad.sound,
        "ladder_decay": lad.decay_ok,
        "barrier_hypothesis": bar.hypothesis_ok,
        "barrier_monotone": bar.monotone_ok,
        "barrier_lower_bound": bar.lower_bound_ok,
    }
    printed = {}
    for line in summary:
        if line.startswith(("[PASS] ", "[FAIL] ")):
            name = line[7:].split(":")[0]
            if name.startswith(("ladder_", "barrier_")):
                printed[name] = line.startswith("[PASS]")
    assert printed == flags


def test_exit_codes(tmp_path):
    def run_with(text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        return main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])

    assert run_with("[grid]\nn = 15\n") == 2
    assert run_with("[initial_data]\nfamily = polytail\nk = 4\n") == 4
    assert run_with("[experiments.barrier]\nregime = subcritical\nk = 4.0\n") == 4
    assert main(["run", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o")]) == 2


def test_bad_config_exits_before_solver(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the solver must not start")

    monkeypatch.setattr(cli_io, "run_trajectory", no_run)
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nT = 0.01\n[experiments.barrier]\na = -1\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "experiments.barrier.a must be positive" in capsys.readouterr().err


def test_run_too_large_for_memory_exits_2(tmp_path, monkeypatch, capsys):
    # the estimate is checked before any kernel table is looked up or built
    from landau import cli_io, coefficients

    monkeypatch.setattr(cli_io, "_memory_limit_bytes", lambda: 1e6)
    before = coefficients._cached_table.cache_info()
    cfg = tmp_path / "ok.ini"
    cfg.write_text("[grid]\nn = 16\n[run]\nT = 0.01\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "memory: a run at n=16 needs at least" in capsys.readouterr().err
    after = coefficients._cached_table.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize
    )


def test_memory_estimate_admits_the_benchmark_sizes():
    from landau import cli_io, coefficients

    # the table term is the two octant symbols alone
    step = cli_io._STEP_ARRAYS * 8 * 64 ** 3
    assert cli_io._estimated_peak_bytes(64) - step == coefficients.table_nbytes(64)
    assert cli_io._estimated_peak_bytes(64) < 0.2e9
    assert cli_io._memory_limit_bytes() > 0


@pytest.mark.parametrize("n", [24, 32])
def test_memory_estimate_covers_a_traced_run(tmp_path, capsys, n):
    # a cold 3-step bimaxwellian run: its workspace, spectrum pair
    # included, is allocated under the trace, its kernel table (the
    # estimate's other term) is not
    import tracemalloc

    from landau import cli_io, coefficients

    coefficients.kernel_table_for(make_grid(n, 8.0))
    config = parse_config(f"[grid]\nn = {n}\n[initial_data]\nfamily = bimaxwellian\n"
                          "[run]\nT = 0.06\ndt_max = 0.02\nsnapshot_cadence = 1000\n")
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cli_io.run_experiment(config, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "steps=3 " in capsys.readouterr().out
    assert cli_io._estimated_peak_bytes(n) - coefficients.table_nbytes(n) >= peak


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # an internal fault propagates (exit 1 with a traceback), not exit 2
    def broken_run(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli_io, "run_trajectory", broken_run)
    cfg = tmp_path / "ok.ini"
    cfg.write_text("[grid]\nn = 16\n[run]\nT = 0.01\n")
    with pytest.raises(ValueError, match="internal fault"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])


def test_bad_input_files_exit_2(tmp_path, capsys):
    csv = tmp_path / "text.csv"
    csv.write_text("# schema=1\nt,linf,fisher,entropy\n0.0,one,1.0,0.0\n")
    assert main(["plot", str(csv)]) == 2
    assert "non-numeric csv cell" in capsys.readouterr().err
    grid = make_grid(8, 4.0)
    snap = tmp_path / "nan.lcf"
    write_snapshot(str(snap), landau.ScalarField(grid, np.zeros((8, 8, 8))), 0.0)
    blob = bytearray(snap.read_bytes())
    blob[-8:] = np.array([np.nan]).tobytes()
    snap.write_bytes(bytes(blob))
    assert main(["diagnose", str(snap)]) == 2
    assert "bad snapshot" in capsys.readouterr().err
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\xff\xfe[grid]\n")
    assert main(["run", "--config", str(binary), "--out", str(tmp_path / "o")]) == 2


def test_diagnose_nonpositive_mass_exits_2(tmp_path, capsys):
    # readable but without positive mass: a bad input, not an internal fault
    snap = tmp_path / "negative.lcf"
    write_snapshot(str(snap), landau.ScalarField(make_grid(8, 4.0), -np.ones((8, 8, 8))), 0.0)
    assert main(["diagnose", str(snap)]) == 2
    assert f"bad snapshot {snap}: nonpositive total mass" in capsys.readouterr().err
    zero = tmp_path / "zero.lcf"
    write_snapshot(str(zero), landau.ScalarField(make_grid(8, 4.0), np.zeros((8, 8, 8))), 0.0)
    assert main(["diagnose", str(zero)]) == 0  # the zero field has no dynamics


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [1e200, 1e300, 1e306])
def test_diagnose_overflowing_coefficients_exits_3(tmp_path, capsys, value):
    # a finite constant f: at 1e200 and 1e300 the set is finite but its
    # eigenvalue range and flux divergence overflow, at 1e306 the mass and
    # the set do
    snap = tmp_path / "huge.lcf"
    f = landau.ScalarField(make_grid(8, 4.0), np.full((8, 8, 8), value))
    write_snapshot(str(snap), f, 0.0)
    assert main(["diagnose", str(snap)]) == 3
    assert "error: non-finite flux divergence" in capsys.readouterr().err


def test_run_reads_each_snapshot_once_per_consumer(tmp_path, monkeypatch):
    # the harness configuration at n = 16 keeps its 51 snapshots: the ladder
    # and the barrier read each once and eps-regularity the 26 of [T/2, T],
    # so 128 reads in all
    reads = []
    read = cli_io.read_snapshot

    def counted(path, grid=None):
        reads.append(os.path.basename(path))
        return read(path, grid)

    monkeypatch.setattr(cli_io, "read_snapshot", counted)
    text = RUN_CFG.replace("T = 0.05", "T = 0.5").replace(
        "snapshot_cadence = 2", "snapshot_cadence = 1")
    rc, out, _ = _run_config(tmp_path, text)
    assert rc == 0
    names = sorted(name for name in os.listdir(out) if name.endswith(".lcf"))
    assert len(names) == 51
    assert len(reads) == 128
    assert {reads.count(name) for name in names[:25]} == {2}
    assert {reads.count(name) for name in names[25:]} == {3}


def test_ladder_csv_layout(run_dirs):
    _, outs = run_dirs
    lines = (outs[0][0] / "ladder.csv").read_text().splitlines()
    assert lines[0] == CSV_SCHEMA_LINE
    assert lines[1] == "n,level,t_n,energy,a_sup,b_int,usable,bracket,ratio,slack"
    assert len(lines) == 2 + 9
    first = lines[2].split(",")
    assert first[0] == "0" and first[6] in ("0", "1")


def test_mixture_renormalization():
    cfg = parse_config("[grid]\nn = 16\n[initial_data]\nfamily = mixture\nseed = 2026\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        init = make_initial_data(cfg, make_grid(16, 8.0))
    assert max(abs(r) for r in init.residuals) <= 1e-12
    assert init.params["seed"] == 2026
    assert init.tail_fraction < 1e-2
    assert float(init.field.values.min()) > 0.0


def _old_initial_data(idc, grid):
    """make_initial_data's fixed-point loop as built from the (3, n, n, n)
    node coordinate cube: (values, residuals, center, dilation)."""
    coords = np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij")
    r2 = coords[0] * coords[0] + coords[1] * coords[1] + coords[2] * coords[2]
    vol = grid.cell_volume()
    if idc.family == "maxwellian":
        def profile(u):
            return np.exp(-0.5 * (u[0] ** 2 + u[1] ** 2 + u[2] ** 2))
    elif idc.family == "bimaxwellian":
        def profile(u):
            rr = u[1] ** 2 + u[2] ** 2
            return 0.5 * (np.exp(-0.5 * ((u[0] - idc.separation) ** 2 + rr))
                          + np.exp(-0.5 * ((u[0] + idc.separation) ** 2 + rr)))
    elif idc.family == "polytail":
        def profile(u):
            return 1.0 / (1.0 + np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2) ** idc.k)
    else:
        rng = np.random.default_rng(idc.seed)
        centers = np.clip(rng.normal(0.0, 1.0, size=(idc.modes, 3)), -2.0, 2.0)
        widths = rng.uniform(0.5, 1.0, size=idc.modes)
        amps = rng.uniform(0.5, 1.5, size=idc.modes)

        def profile(u):
            out = np.zeros_like(u[0])
            for c, w, a in zip(centers, widths, amps):
                rr = (u[0] - c[0]) ** 2 + (u[1] - c[1]) ** 2 + (u[2] - c[2]) ** 2
                out += a * np.exp(-0.5 * rr / w ** 2)
            return out
    center = np.zeros(3)
    lam = amp = 1.0
    for it in range(13):
        u = tuple(lam * (coords[d] - center[d]) for d in range(3))
        vals = amp * lam ** 3 * profile(u)
        mass = vol * float(np.sum(vals))
        mom = np.array([vol * float(np.sum(coords[d] * vals)) for d in range(3)]) / mass
        energy = vol * float(np.sum(r2 * vals)) / mass
        centered_energy = energy - float(mom @ mom)
        resid = max(abs(mass - 1.0), float(np.max(np.abs(mom))), abs(energy - 3.0))
        if resid < 1e-13 or it == 12:
            break
        amp /= mass
        center -= mom
        if centered_energy > 0.0:
            lam *= math.sqrt(centered_energy / 3.0)
    residuals = (mass - 1.0, float(np.max(np.abs(mom))), energy - 3.0)
    return vals, residuals, tuple(float(c) for c in center), float(lam)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("family", ["maxwellian", "bimaxwellian", "polytail", "mixture"])
def test_initial_data_matches_coordinate_construction(family, n):
    cfg = parse_config(f"[grid]\nn = {n}\n[initial_data]\nfamily = {family}\n")
    grid = make_grid(n, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        init = make_initial_data(cfg, grid)
    vals, residuals, center, lam = _old_initial_data(cfg.initial_data, grid)
    assert np.array_equal(init.field.values, vals)
    assert init.residuals == residuals
    assert init.params["center"] == center and init.params["dilation"] == lam


def test_polytail_params(grid16):
    cfg = parse_config("[initial_data]\nfamily = polytail\nk = 10\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        init = make_initial_data(cfg, grid16)
    assert init.params["k"] == 10.0
    bad = parse_config("[initial_data]\nfamily = polytail\nk = 9\n")
    with pytest.raises(HypothesisError, match="polytail requires k > 9"):
        make_initial_data(bad, grid16)
