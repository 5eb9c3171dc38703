"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import io
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cztube import guidance
from cztube.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE_QUERY,
    EXIT_OK,
    FLOAT_FMT,
    ConfigError,
    _trajectory_rows,
    main,
    parse_config,
    read_config,
    scenario_from_config,
    uncertainty_from_config,
)
from cztube.cone import CompactQuadraticCone, cqc_inner_approx
from cztube.czset import ConstrainedZonotope
from cztube.landing import CONTROL_DIM
from cztube.tube import deserialize_tube

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DET_CFG = """
# short-hop deterministic landing, coarse thrust lattice
scenario.g = 1.625
scenario.T_max = 8400
scenario.T_min = 2100
scenario.m_wet = 1905
scenario.m_dry = 1505
scenario.alpha = 0.00115
scenario.dt = 3
scenario.n_points = 30
scenario.r_i = 0, 0, 120
scenario.v_i = 0, 0, -10
"""

ROB_CFG = """
scenario.dt = 15
scenario.alpha = 0.0002875
scenario.n_points = 14
scenario.N = 4
scenario.r_i = 0, 0, 300
scenario.v_i = 0, 0, -5
uncertainty.sigma3_u = 0.01
uncertainty.sigma3_r_rate = 0.2
uncertainty.sigma3_v_rate = 0.005
uncertainty.lambda = 0.95
"""


@pytest.fixture(scope="module")
def det_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "det.cfg"
    path.write_text(DET_CFG)
    return path


@pytest.fixture(scope="module")
def rob_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "rob.cfg"
    path.write_text(ROB_CFG)
    return path


def _build_tube(tmp_path_factory, name, *argv):
    """Run build-tube; its output file and what it printed."""
    path = tmp_path_factory.mktemp("tube") / name
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["build-tube", *argv, "--out", str(path)])
    assert code == EXIT_OK
    return SimpleNamespace(path=path, stdout=out.getvalue())


@pytest.fixture(scope="module")
def det_build(det_cfg, tmp_path_factory):
    return _build_tube(tmp_path_factory, "det.cztb", "--config", str(det_cfg), "--max-n", "8")


@pytest.fixture(scope="module")
def rob_build(rob_cfg, tmp_path_factory):
    return _build_tube(tmp_path_factory, "rob.cztb", "--config", str(rob_cfg), "--robust")


@pytest.fixture(scope="module")
def det_tube(det_build):
    return det_build.path


@pytest.fixture(scope="module")
def rob_tube(rob_build):
    return rob_build.path


def _with_line(base, line):
    """base with the line for line's key replaced by line."""
    key = line.split(" = ")[0]
    return "\n".join([ln for ln in base.splitlines() if not ln.startswith(key + " ")]
                     + [line]) + "\n"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_config_parser_roundtrip(tmp_path):
    p = tmp_path / "x.cfg"
    p.write_text("a.b = 1.5\na.v = 1, 2, 3\na.s = hello  # trailing comment\n")
    cfg = parse_config(p)
    assert cfg["a.b"] == 1.5
    assert cfg["a.v"] == [1.0, 2.0, 3.0]
    assert cfg["a.s"] == "hello"


def test_config_parser_rejects_bad_lines(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("just words\n")
    with pytest.raises(Exception):
        parse_config(p)


def test_key_given_twice_is_a_config_error(tmp_path, capsys):
    # the last value of a repeated key would silently change the
    # experiment; the error names the file, both lines and the key
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(DET_CFG + "scenario.n_points = 50\n")
    first = DET_CFG.splitlines().index("scenario.n_points = 30") + 1
    second = len(DET_CFG.splitlines()) + 1
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    for part in (str(cfg), str(first), str(second), "scenario.n_points"):
        assert part in str(err.value)
    code = main(["build-tube", "--config", str(cfg), "--max-n", "2",
                 "--out", str(tmp_path / "t.cztb")])
    assert code == EXIT_CONFIG
    assert "scenario.n_points" in capsys.readouterr().err
    assert not (tmp_path / "t.cztb").exists()


def test_approx_cone_vertex_count(det_cfg, tmp_path):
    out = tmp_path / "cone.csv"
    code = main(["approx-cone", "--config", str(det_cfg), "--k", "4",
                 "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["x1", "x2", "x3", "x4"]
    assert len(rows) == 5  # four rim vertices plus the origin


def test_approx_cone_is_the_control_sets_cone(det_cfg, tmp_path):
    # the vertices are those of the cone build_control_set uses: radius
    # T_max / m_wet and scenario.n_points rim points, or --k of them
    scn = scenario_from_config(read_config(det_cfg))
    for k in (None, 7):
        out = tmp_path / f"cone{k}.csv"
        argv = [] if k is None else ["--k", str(k)]
        assert main(["approx-cone", "--config", str(det_cfg), *argv,
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        vertices, _ = cqc_inner_approx(CompactQuadraticCone(CONTROL_DIM, scn.accel_max),
                                       scn.n_points if k is None else k)
        assert np.array_equal(np.array(rows, dtype=float), vertices)


def test_cone_keys_are_unknown(tmp_path, capsys):
    # the cone comes from the scenario, so a config cannot set it apart
    # (the other cone.* keys: see test_scalar_key_takes_one_number)
    cfg = tmp_path / "cone.cfg"
    cfg.write_text(DET_CFG + "cone.t_max = 4\n")
    code = main(["approx-cone", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    assert "unknown config key 'cone.t_max'" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "line, argv",
    [
        ("scenario.n_points = 1, 2", ["build-tube", "--max-n", "2"]),
        ("scenario.g = 1, 2", ["build-tube", "--max-n", "2"]),
        ("scenario.theta_max_deg = steep", ["build-tube", "--max-n", "2"]),
        ("scenario.r_i = 0, abc, 120", ["build-tube", "--max-n", "2"]),
        ("scenario.r_i = 0, nan, 120", ["build-tube", "--max-n", "2"]),
        ("scenario.dt = nan", ["build-tube", "--max-n", "2"]),
        ("scenario.v_max = inf", ["build-tube", "--max-n", "2"]),
        ("scenario.n_points = 30.5", ["build-tube", "--max-n", "2"]),
        ("scenario.N = 4.5", ["build-tube", "--robust"]),
        ("uncertainty.lambda = 0.9, 0.95", ["build-tube", "--robust"]),
        ("cone.t_max = 4, 4", ["approx-cone"]),
        ("cone.dim = 4, 4", ["approx-cone"]),
        ("cone.k = 30.5", ["approx-cone"]),
        ("scenario.n_point = 50", ["build-tube", "--max-n", "2"]),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_scalar_key_takes_one_number(line, argv, tmp_path, capsys):
    # a list, a word, a number that is not finite, a fraction where an
    # integer belongs, or a misspelt or retired key (the cone.* keys: the
    # cone comes from the scenario) is a config error that names the key,
    # not a crash, a truncated value or a silent default.  The line
    # replaces the base config's own line for the key, so the error is
    # not the one for a key given twice
    key = line.split(" = ")[0]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with_line(ROB_CFG if "--robust" in argv else DET_CFG, line))
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "twice" not in err


@pytest.mark.parametrize("command", [["build-tube", "--robust"],
                                     ["montecarlo", "--trials", "1", "--tube", "t.cztb"]],
                         ids=lambda argv: argv[0])
def test_pre_steps_is_an_unknown_key(command, tmp_path, capsys):
    # the terminal set's pre-recursion steps are fixed (tube.PRE_STEPS),
    # so the commands that build that set cannot be given different ones
    cfg = tmp_path / "rob.cfg"
    cfg.write_text(ROB_CFG + "tube.pre_steps = 2\n")
    code = main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "unknown config key 'tube.pre_steps'" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_load(path):
    cfg = read_config(path)
    scenario_from_config(cfg)
    if path.name == "robust.cfg":
        assert uncertainty_from_config(cfg).lam == cfg["uncertainty.lambda"]


def test_build_tube_robust_requires_uncertainty(det_cfg, tmp_path, capsys):
    code = main(["build-tube", "--config", str(det_cfg), "--robust",
                 "--out", str(tmp_path / "t.cztb")])
    assert code == EXIT_CONFIG
    assert "uncertainty" in capsys.readouterr().err


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_build_tube_needs_a_set_before_it_builds(max_n, det_cfg, tmp_path, capsys,
                                                 monkeypatch):
    builds = []
    monkeypatch.setattr("cztube.tube.deterministic_recursion",
                        lambda *args, **kwargs: builds.append(args))
    code = main(["build-tube", "--config", str(det_cfg), "--max-n", max_n,
                 "--out", str(tmp_path / "t.cztb")])
    assert code == EXIT_CONFIG
    assert "--max-n" in capsys.readouterr().err
    assert builds == []
    assert not (tmp_path / "t.cztb").exists()


@pytest.mark.parametrize("build", ["det_build", "rob_build"])
def test_build_tube_reports_each_set_and_the_file_size(build, request):
    built = request.getfixturevalue(build)
    n = deserialize_tube(built.path).N
    lines = built.stdout.splitlines()
    steps = [ln for ln in lines if re.fullmatch(r"step \S+: n_g=\d+ n_e=\d+ .+", ln)]
    # one line per set, the terminal set last
    assert len(steps) == n and "terminal" in steps[-1]
    assert f"N: {n}" in lines
    assert f"file_bytes: {built.path.stat().st_size}" in lines


def test_rollout_monotone_altitude_and_mass(det_cfg, det_tube, tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["rollout", "--config", str(det_cfg), "--tube", str(det_tube),
                 "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[:4] == ["k", "t", "rx", "ry"]
    rz = [float(r[4]) for r in rows]
    z = [float(r[8]) for r in rows]
    assert abs(rz[0] - 120.0) <= 1e-9 and abs(rz[-1]) <= 1e-6
    assert all(b <= a + 1e-9 for a, b in zip(z, z[1:]))  # mass only depletes
    # controls are blank on the terminal row, populated elsewhere
    assert rows[-1][10] == "" and rows[0][10] != ""


def test_rollout_csv_float_precision(det_cfg, det_tube, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["rollout", "--config", str(det_cfg), "--tube", str(det_tube),
                 "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    for cell in rows[0][1:]:
        if cell == "":
            continue
        # 17 significant digits survive a parse/format round trip
        assert FLOAT_FMT % float(cell) == cell


def test_rollout_missing_tube_file(det_cfg, tmp_path, capsys):
    code = main(["rollout", "--config", str(det_cfg),
                 "--tube", str(tmp_path / "nope.cztb"),
                 "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_CONFIG


def test_rollout_asks_to_rebuild_a_version_2_tube(det_cfg, det_tube, tmp_path, capsys):
    raw = bytearray(det_tube.read_bytes())
    struct.pack_into("<I", raw, 4, 2)
    old = tmp_path / "v2.cztb"
    old.write_bytes(bytes(raw))
    code = main(["rollout", "--config", str(det_cfg), "--tube", str(old),
                 "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_CONFIG
    assert "build-tube" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_rollout_unreachable_start(det_tube, tmp_path, capsys):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(DET_CFG.replace("scenario.r_i = 0, 0, 120",
                                   "scenario.r_i = 3000, 0, 3000"))
    code = main(["rollout", "--config", str(cfg), "--tube", str(det_tube),
                 "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_INFEASIBLE_QUERY
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rollout", "reach"])
def test_deterministic_commands_reject_a_robust_tube(command, det_cfg, rob_tube, tmp_path,
                                                     capsys):
    extra = ["--step", "1"] if command == "reach" else []
    code = main([command, "--config", str(det_cfg), "--tube", str(rob_tube),
                 *extra, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "robust" in err and "deterministic" in err
    assert not (tmp_path / "o.csv").exists()


def test_montecarlo_rejects_a_deterministic_tube(rob_cfg, det_tube, tmp_path, capsys):
    code = main(["montecarlo", "--config", str(rob_cfg), "--tube", str(det_tube),
                 "--trials", "1", "--out", str(tmp_path / "mc.csv")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "robust" in err and "deterministic" in err
    assert not (tmp_path / "mc.csv").exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_montecarlo_needs_a_trial_before_it_loads_the_tube(trials, rob_cfg, tmp_path,
                                                          capsys, monkeypatch):
    loads = []
    monkeypatch.setattr("cztube.tube.deserialize_tube", lambda path: loads.append(path))
    code = main(["montecarlo", "--config", str(rob_cfg), "--tube", str(tmp_path / "t.cztb"),
                 "--trials", trials, "--out", str(tmp_path / "mc.csv")])
    assert code == EXIT_CONFIG
    assert "--trials" in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "mc.csv").exists()


def test_reach_step_bounds(det_cfg, det_tube, tmp_path, capsys):
    code = main(["reach", "--config", str(det_cfg), "--tube", str(det_tube),
                 "--step", "0", "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_CONFIG
    assert "--step" in capsys.readouterr().err
    code = main(["reach", "--config", str(det_cfg), "--tube", str(det_tube),
                 "--step", "99", "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_CONFIG


def test_reach_boundary_output(det_cfg, det_tube, tmp_path):
    out = tmp_path / "reach.csv"
    code = main(["reach", "--config", str(det_cfg), "--tube", str(det_tube),
                 "--step", "8", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["rx", "ry"]
    assert len(rows) == 128
    pts = np.array([[float(a), float(b)] for a, b in rows])
    assert np.all(np.isfinite(pts))


def test_reach_repeats_bytewise(det_cfg, det_tube, tmp_path):
    # a footprint's sweep continues from each direction's optimum, so its
    # points depend on the order of its directions, which is fixed: two
    # runs on one tube file write the same bytes
    outs = [tmp_path / "reach1.csv", tmp_path / "reach2.csv"]
    for out in outs:
        assert main(["reach", "--config", str(det_cfg), "--tube", str(det_tube),
                     "--step", "8", "--out", str(out)]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_montecarlo_runs_no_erosion(rob_cfg, rob_tube, tmp_path, monkeypatch):
    # the robust tube file carries its eroded targets: the trials steer
    # into those, and nothing is eroded online
    erosions = []
    erode = ConstrainedZonotope.pontryagin_difference

    def spy(self, generators):
        erosions.append(len(generators))
        return erode(self, generators)

    monkeypatch.setattr(ConstrainedZonotope, "pontryagin_difference", spy)
    assert len(deserialize_tube(rob_tube).eroded) == 3
    assert main(["montecarlo", "--config", str(rob_cfg), "--tube", str(rob_tube),
                 "--trials", "2", "--out", str(tmp_path / "mc.csv")]) == EXIT_OK
    assert erosions == []


def test_montecarlo_reproducible_and_svg(rob_cfg, rob_tube, tmp_path):
    out1, out2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
    svg = tmp_path / "mc.svg"
    code = main(["montecarlo", "--config", str(rob_cfg), "--tube", str(rob_tube),
                 "--trials", "2", "--seed", "3", "--out", str(out1),
                 "--svg", str(svg)])
    assert code == EXIT_OK
    assert main(["montecarlo", "--config", str(rob_cfg), "--tube", str(rob_tube),
                 "--trials", "2", "--seed", "3", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header[0] == "trial" and header[-1] == "fuel_kg"
    assert len(rows) == 2
    assert all(r[2] == "1" for r in rows)  # both trials succeed
    text = svg.read_text()
    assert text.startswith("<svg") and "<circle" in text and "polyline" in text


def test_ddto_rollout_cli(det_cfg, det_tube, tmp_path, capsys):
    out = tmp_path / "ddto.csv"
    code = main(["rollout", "--config", str(det_cfg), "--tube", str(det_tube),
                 "--ddto", "5,0,0", "--out", str(out)])
    assert code == EXIT_OK
    assert "branch_step" in capsys.readouterr().out
    code = main(["rollout", "--config", str(det_cfg), "--tube", str(det_tube),
                 "--ddto", "5,0", "--out", str(out)])
    assert code == EXIT_CONFIG


def test_trajectory_rows_count_time_by_row_when_an_index_repeats():
    # a decision-deferral rollout that branches at step 5 and re-enters
    # the tube at step 4 lists index 4 twice; time still advances one dt
    # per row, and the terminal row follows the last record
    state, control = np.arange(8.0), np.ones(4)
    ks = [3, 4, 4, 5]
    log = guidance.RolloutLog(3, [guidance.StepRecord(k, state, control) for k in ks],
                              np.zeros(8), 0.0, branch_step=5)
    rows = _trajectory_rows(SimpleNamespace(dt=2.0), log)
    assert [row[0] for row in rows] == [3, 4, 4, 5, 6]
    assert [row[1] for row in rows] == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert rows[-1][-4:] == [None] * 4


@pytest.mark.parametrize("line", ["scenario.n_points = 20", "scenario.T_max = 8000",
                                  "scenario.N = 6"])
def test_deterministic_tube_from_another_scenario_asks_for_a_rebuild(line, det_cfg, det_tube,
                                                                     tmp_path, capsys):
    cfg = tmp_path / "other.cfg"
    cfg.write_text(_with_line(DET_CFG, line))
    for command, extra in (("rollout", []), ("reach", ["--step", "8"])):
        code = main([command, "--config", str(cfg), "--tube", str(det_tube), *extra,
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert "rebuild" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("line", ["uncertainty.sigma3_u = 0.02", "uncertainty.lambda = 0.9",
                                  "scenario.N = 5", "scenario.n_points = 12"])
def test_robust_tube_from_another_model_asks_for_a_rebuild(line, rob_cfg, rob_tube, tmp_path,
                                                           capsys):
    cfg = tmp_path / "other.cfg"
    cfg.write_text(_with_line(ROB_CFG, line))
    code = main(["montecarlo", "--config", str(cfg), "--tube", str(rob_tube),
                 "--trials", "1", "--out", str(tmp_path / "mc.csv")])
    assert code == EXIT_CONFIG
    assert "rebuild" in capsys.readouterr().err
    assert not (tmp_path / "mc.csv").exists()


def test_robust_tube_serves_another_start(rob_tube, tmp_path):
    # the digest leaves out the start, which a tube serves many of (for a
    # deterministic tube, see test_rollout_unreachable_start)
    cfg = tmp_path / "rob.cfg"
    cfg.write_text(_with_line(ROB_CFG, "scenario.r_i = 0, 0, 290"))
    assert main(["montecarlo", "--config", str(cfg), "--tube", str(rob_tube),
                 "--trials", "1", "--out", str(tmp_path / "mc.csv")]) == EXIT_OK


def test_montecarlo_csv_reports_the_infeasible_step(rob_cfg, rob_tube, tmp_path, monkeypatch):
    # trial 0's one-step LP at step 2 is made infeasible; its row names
    # that step and leaves the terminal state and fuel empty, while a
    # trial that ran to the end leaves failure_step empty
    one_step = guidance.one_step_ocp
    calls = []

    def failing_second_step(x_k, cs_next, *args):
        calls.append(None)
        if len(calls) == 2:
            raise guidance.InfeasibleError("forced")
        return one_step(x_k, cs_next, *args)

    monkeypatch.setenv("CZTUBE_THREADS", "1")
    monkeypatch.setattr(guidance, "one_step_ocp", failing_second_step)
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", str(rob_cfg), "--tube", str(rob_tube),
                 "--trials", "2", "--seed", "3", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    at = {name: i for i, name in enumerate(header)}
    failed, landed = rows
    assert failed[at["success"]] == "0" and failed[at["failure_step"]] == "2"
    assert all(failed[i] == "" for i in range(at["term_rx"], len(header)))
    assert landed[at["success"]] == "1" and landed[at["failure_step"]] == ""
    assert landed[at["fuel_kg"]] != ""
