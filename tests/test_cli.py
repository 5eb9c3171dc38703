"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import io
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from cztube.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE_QUERY,
    EXIT_OK,
    FLOAT_FMT,
    main,
    parse_config,
)
from cztube.tube import deserialize_tube

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
cone.t_max = 4.4094488188976375
cone.dim = 4
cone.k = 30
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


def test_approx_cone_vertex_count(det_cfg, tmp_path):
    out = tmp_path / "cone.csv"
    code = main(["approx-cone", "--config", str(det_cfg), "--k", "4",
                 "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["x1", "x2", "x3", "x4"]
    assert len(rows) == 5  # four rim vertices plus the origin


def test_approx_cone_missing_key(tmp_path, capsys):
    cfg = tmp_path / "no_tmax.cfg"
    cfg.write_text("cone.dim = 4\n")
    code = main(["approx-cone", "--config", str(cfg), "--out",
                 str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    assert "cone.t_max" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, argv",
    [
        ("scenario.n_points = 1, 2", ["build-tube", "--max-n", "2"]),
        ("scenario.g = 1, 2", ["build-tube", "--max-n", "2"]),
        ("scenario.theta_max_deg = steep", ["build-tube", "--max-n", "2"]),
        ("scenario.n_points = 30.5", ["build-tube", "--max-n", "2"]),
        ("scenario.N = 4.5", ["build-tube", "--robust"]),
        ("uncertainty.lambda = 0.9, 0.95", ["build-tube", "--robust"]),
        ("tube.pre_steps = 1, 2", ["build-tube", "--robust"]),
        ("cone.t_max = 4, 4", ["approx-cone"]),
        ("cone.dim = 4, 4", ["approx-cone"]),
        ("cone.k = 30.5", ["approx-cone"]),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_scalar_key_takes_one_number(line, argv, tmp_path, capsys):
    # a list, a word, or a fraction where an integer belongs is a config
    # error that names the key, not a crash or a truncated value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text((ROB_CFG if "--robust" in argv else DET_CFG) + line + "\n")
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert line.split(" = ")[0] in capsys.readouterr().err


def test_build_tube_robust_requires_uncertainty(det_cfg, tmp_path, capsys):
    code = main(["build-tube", "--config", str(det_cfg), "--robust",
                 "--out", str(tmp_path / "t.cztb")])
    assert code == EXIT_CONFIG
    assert "uncertainty" in capsys.readouterr().err


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
