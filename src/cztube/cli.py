"""Command-line surface for tube building, rollouts, and studies.

Configuration is a flat key-value text file with dotted section names::

    scenario.g = 1.625
    scenario.r_i = 875, 0, 635
    uncertainty.lambda = 0.95

Exit codes: 0 success, 2 configuration error, 3 infeasible build,
4 infeasible query, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import guidance, landing, tube as tube_mod, uncertainty
from .cone import CompactQuadraticCone, cqc_inner_approx
from .czset import EmptySetError, NotFullDimensionalError
from .landing import CONTROL_DIM, LandingScenario, discretize
from .lp import LpError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE_BUILD = 3
EXIT_INFEASIBLE_QUERY = 4
EXIT_NUMERICAL = 5

FLOAT_FMT = "%.17g"


class ConfigError(Exception):
    pass


def parse_config(path) -> dict:
    """Read `section.key = value` lines; values become floats, float lists,
    or strings.  A key given twice is a ConfigError naming both lines, and
    so is a number that is not finite (nan, inf)."""
    cfg = {}
    line_of = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                if not key:
                    raise ConfigError(f"{path}:{ln}: empty key")
                if key in line_of:
                    raise ConfigError(f"{path}:{ln}: {key} is given twice "
                                      f"(first on line {line_of[key]})")
                line_of[key] = ln
                try:
                    value = _parse_value(val)
                except ValueError:
                    raise ConfigError(f"{path}:{ln}: {key} must be a list of numbers, "
                                      f"not {val!r}") from None
                if not isinstance(value, str) and not np.all(np.isfinite(value)):
                    raise ConfigError(f"{path}:{ln}: {key} must be finite, not {val!r}")
                cfg[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return cfg


def _parse_value(val: str):
    if "," in val:
        return [float(v) for v in val.split(",")]
    try:
        return float(val)
    except ValueError:
        return val


def scalar(cfg: dict, key: str, kind=float, default=None):
    """The number under ``key`` as ``kind`` (float or int), or ``default``
    when the key is absent.  ConfigError naming the key when it is absent
    and has no default, or holds anything but one number of that kind."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    val = cfg[key]
    if not isinstance(val, float):
        raise ConfigError(f"{key} must be a single number, not {val!r}")
    if kind is int and not (math.isfinite(val) and val == int(val)):
        raise ConfigError(f"{key} must be an integer, not {val!r}")
    return kind(val)


_SCENARIO_SCALARS = ("g", "T_full", "T_max", "T_min", "m_wet", "m_dry", "alpha",
                     "r_max", "v_max", "dt")
_SCENARIO_ANGLES = ("theta_max_deg", "gamma_max_deg")
_SCENARIO_VECTORS = ("r_i", "v_i", "r_f", "v_f")
_SCENARIO_INTEGERS = ("n_points", "N")
_UNCERTAINTY_KEYS = ("uncertainty.sigma3_u", "uncertainty.sigma3_r_rate",
                     "uncertainty.sigma3_v_rate", "uncertainty.lambda")
# every key the readers below take: any other, such as a misspelt one,
# would be silently ignored, so read_config rejects it
CONFIG_KEYS = frozenset(
    [f"scenario.{key}" for key in _SCENARIO_SCALARS + _SCENARIO_ANGLES
     + _SCENARIO_VECTORS + _SCENARIO_INTEGERS]
    + list(_UNCERTAINTY_KEYS)
)


def read_config(path) -> dict:
    """``parse_config``; ConfigError naming the file and the first key
    outside CONFIG_KEYS."""
    cfg = parse_config(path)
    unknown = [key for key in cfg if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"{path}: unknown config key '{unknown[0]}'")
    return cfg


def scenario_from_config(cfg: dict) -> LandingScenario:
    kwargs = {}
    for key in _SCENARIO_SCALARS:
        if f"scenario.{key}" in cfg:
            kwargs[key] = scalar(cfg, f"scenario.{key}")
    for key in _SCENARIO_ANGLES:
        if f"scenario.{key}" in cfg:
            kwargs[key.replace("_deg", "")] = math.radians(scalar(cfg, f"scenario.{key}"))
    for key in _SCENARIO_VECTORS:
        if f"scenario.{key}" in cfg:
            val = cfg[f"scenario.{key}"]
            if not isinstance(val, list) or len(val) != 3:
                raise ConfigError(f"scenario.{key} must be a 3-element comma list")
            kwargs[key] = np.asarray(val)
    for key in _SCENARIO_INTEGERS:
        if f"scenario.{key}" in cfg:
            kwargs[key] = scalar(cfg, f"scenario.{key}", int)
    try:
        return LandingScenario(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def uncertainty_from_config(cfg: dict) -> uncertainty.UncertaintyModel:
    return uncertainty.landing_uncertainty_model(
        sigma3_u=scalar(cfg, "uncertainty.sigma3_u"),
        sigma3_r_rate=scalar(cfg, "uncertainty.sigma3_r_rate"),
        sigma3_v_rate=scalar(cfg, "uncertainty.sigma3_v_rate"),
        lam=scalar(cfg, "uncertainty.lambda"),
    )


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    "" if v is None else (FLOAT_FMT % v if isinstance(v, float) else str(v))
                    for v in row
                )
                + "\n"
            )


# -- subcommands -----------------------------------------------------------


def cmd_approx_cone(args) -> int:
    """The vertices of the thrust cone's inner approximation that
    ``landing.build_control_set`` uses: radius accel_max, with --k or
    else scenario.n_points rim points."""
    scn = scenario_from_config(read_config(args.config))
    k = scn.n_points if args.k is None else args.k
    vertices, _ = cqc_inner_approx(CompactQuadraticCone(CONTROL_DIM, scn.accel_max), k)
    header = [f"x{i+1}" for i in range(CONTROL_DIM)]
    _write_csv(args.out, header, [[float(v) for v in row] for row in vertices])
    print(f"wrote {len(vertices)} cone vertices to {args.out}")
    return EXIT_OK


def _build_deterministic(scn):
    dyn = discretize(scn)
    X = landing.build_state_set(scn)
    U = landing.build_control_set(scn)
    Xf = landing.build_terminal_set(scn)
    return dyn, X, U, Xf


def _step_printer(label):
    """Progress callback for the recursions: one flushed line per set as
    it is built, with the set's index as ``label`` gives it."""

    def report(k, Z, seconds):
        print(f"step {label(k)}: n_g={Z.n_generators} n_e={Z.n_constraints} s={seconds:.3f}",
              flush=True)

    return report


def cmd_build_tube(args) -> int:
    if args.max_n < 1:
        raise ConfigError(f"--max-n must be at least 1, not {args.max_n}")
    cfg = read_config(args.config)
    scn = scenario_from_config(cfg)
    if args.robust and "uncertainty.lambda" not in cfg:
        raise ConfigError("robust build requires the uncertainty config block")
    digest = _tube_digest(cfg, scn, args.robust)
    t0 = time.perf_counter()
    if args.robust:
        if scn.N is None:
            raise ConfigError("robust build requires scenario.N")
        _, schedule, U_rob, Xf_full, dyn_wc = tube_mod.robust_parts(
            scn, uncertainty_from_config(cfg))
        X = landing.build_state_set(scn)
        result = tube_mod.robust_recursion(
            dyn_wc, X, U_rob, Xf_full, schedule, scn.N, scenario_hash=digest,
            progress=_step_printer(str),
        )
    else:
        dyn, X, U, Xf = _build_deterministic(scn)
        # the horizon is known only once the recursion ends, so the
        # sets are numbered back from the terminal set CS_N
        result = tube_mod.deterministic_recursion(
            dyn, X, U, Xf, max_N=args.max_n, scenario_hash=digest,
            progress=_step_printer(lambda j: f"N-{j - 1}"),
        )
    elapsed = time.perf_counter() - t0
    terminal = result.cs(result.N)
    print(f"step {result.N if args.robust else 'N'}: n_g={terminal.n_generators} "
          f"n_e={terminal.n_constraints} (terminal set)")
    tube_mod.serialize_tube(result, args.out)
    print(f"kind: {result.kind}")
    print(f"N: {result.N}")
    print(f"wall_time_s: {elapsed:.2f}")
    print(f"file_bytes: {os.path.getsize(args.out)}")
    print(f"tube written to {args.out}")
    return EXIT_OK


def _trajectory_rows(scn, log):
    """One TRAJ_HEADER row per step, then the terminal one.  t counts rows:
    a rollout that branches may re-enter the tube at an index it passed."""
    rows = []
    for i, rec in enumerate(log.records):
        rows.append([rec.k, i * scn.dt] + [float(v) for v in rec.state]
                    + [float(v) for v in rec.control])
    k_end = log.records[-1].k + 1 if log.records else log.start_index
    rows.append([k_end, len(log.records) * scn.dt] + [float(v) for v in log.terminal_state]
                + [None] * 4)
    return rows


TRAJ_HEADER = ["k", "t", "rx", "ry", "rz", "vx", "vy", "vz", "z", "c",
               "ux", "uy", "uz", "sigma"]


def _tube_digest(cfg: dict, scn: LandingScenario, robust: bool) -> bytes:
    """The digest that ``build-tube`` stores in a tube and the commands
    that load it check: of the scenario but for its start
    (``tube.scenario_digest``), and for a robust tube of the
    uncertainty.* numbers too."""
    extra = {key: scalar(cfg, key) for key in _UNCERTAINTY_KEYS} if robust else {}
    return tube_mod.scenario_digest(scn, robust=robust, **extra)


def _load_tube(path, kind: str, cfg: dict, scn: LandingScenario):
    """The tube stored at path; ConfigError unless it is of ``kind`` and
    was built from this config's scenario (``_tube_digest``)."""
    loaded = tube_mod.deserialize_tube(path)
    if loaded.kind != kind:
        raise ConfigError(f"{path} holds a {loaded.kind} tube; this command needs a {kind} one")
    if loaded.scenario_hash != _tube_digest(cfg, scn, kind == "robust"):
        raise ConfigError(f"{path} was not built from this config; "
                          f"rebuild it with cztube build-tube")
    return loaded


def cmd_rollout(args) -> int:
    cfg = read_config(args.config)
    scn = scenario_from_config(cfg)
    loaded = _load_tube(args.tube, "deterministic", cfg, scn)
    dyn = discretize(scn)
    U = landing.build_control_set(scn)
    x_i = scn.initial_state()
    if args.ddto:
        offset = [float(v) for v in args.ddto.split(",")]
        if len(offset) != 3:
            raise ConfigError("--ddto expects a 3-element comma list")
        log = guidance.ddto_rollout(x_i, loaded, offset, U, dyn)
        print(f"branch_step: {log.branch_step}")
    else:
        log = guidance.forward_rollout(x_i, loaded, U, dyn)
    _write_csv(args.out, TRAJ_HEADER, _trajectory_rows(scn, log))
    print(f"start_index: {log.start_index}")
    print(f"total_cost: {FLOAT_FMT % log.total_cost}")
    print(f"sigma_gap: {FLOAT_FMT % log.sigma_gap()}")
    print(f"trajectory written to {args.out}")
    return EXIT_OK


def cmd_reach(args) -> int:
    cfg = read_config(args.config)
    scn = scenario_from_config(cfg)
    loaded = _load_tube(args.tube, "deterministic", cfg, scn)
    if not 1 <= args.step <= loaded.N:
        raise ConfigError(f"--step {args.step} outside 1..{loaded.N}")
    dyn = discretize(scn)
    U = landing.build_control_set(scn)
    log = guidance.forward_rollout(scn.initial_state(), loaded, U, dyn)
    states = {rec.k: rec.state for rec in log.records}
    states[log.start_index + len(log.records)] = log.terminal_state
    if args.step not in states:
        raise ConfigError(
            f"--step {args.step} precedes the rollout start index {log.start_index}"
        )
    state = states[args.step]
    reach = guidance.instantaneous_reachable(
        state[0:2], state[2:8], loaded, args.step, scn.r_f[0:2], dyn=dyn
    )
    rows = []
    for j in range(128):
        ang = 2.0 * math.pi * j / 128
        eta = np.array([math.cos(ang), math.sin(ang)])
        pt = reach.extreme_point(eta)
        rows.append([float(pt[0]), float(pt[1])])
    _write_csv(args.out, ["rx", "ry"], rows)
    print(f"reachable-set boundary written to {args.out}")
    return EXIT_OK


MC_HEADER = ["trial", "seed", "success", "failure_step", "failure_reason", "term_rx",
             "term_ry", "term_rz", "term_vx", "term_vy", "term_vz", "fuel_kg"]


def _montecarlo_rows(summary):
    """One MC_HEADER row per trial.  failure_step is the step whose
    one-step LP was infeasible, and then the terminal state and fuel are
    empty; it is empty for a trial that ran to the end, which failed
    (success 0) if it missed the terminal set.  failure_reason says which
    (``guidance.TrialResult``) and is empty for a trial that landed."""
    rows = []
    for r in summary.results:
        term = r.terminal_state if r.terminal_state is not None else [None] * 8
        rows.append(
            [r.trial, r.seed, int(r.success), r.failure_step, r.failure_reason]
            + [None if term[i] is None else float(term[i]) for i in range(6)]
            + [None if r.fuel_kg is None else float(r.fuel_kg)]
        )
    return rows


def cmd_montecarlo(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, not {args.trials}")
    cfg = read_config(args.config)
    scn = scenario_from_config(cfg)
    model = uncertainty_from_config(cfg)
    loaded = _load_tube(args.tube, "robust", cfg, scn)
    dyn, schedule, U_rob, Xf_full, _ = tube_mod.robust_parts(scn, model)
    summary = guidance.monte_carlo(
        scn, loaded, model, schedule, U_rob, Xf_full, dyn, args.trials, args.seed
    )
    _write_csv(args.out, MC_HEADER, _montecarlo_rows(summary))
    if args.svg:
        _write_scatter_svg(args.svg, summary, Xf_full)
    print(f"successes: {summary.successes}/{summary.trials}")
    print(f"summary written to {args.out}")
    return EXIT_OK


def _write_scatter_svg(path, summary, terminal_set) -> None:
    """Terminal horizontal-position scatter with the terminal-set outline."""
    pts = [r.terminal_state[0:2] for r in summary.results if r.terminal_state is not None]
    outline = []
    proj = terminal_set.project([0, 1])
    for j in range(64):
        ang = 2.0 * math.pi * j / 64
        outline.append(proj.extreme_point([math.cos(ang), math.sin(ang)]))
    allp = np.array(pts + outline) if pts or outline else np.zeros((1, 2))
    lo = allp.min(axis=0) - 1.0
    hi = allp.max(axis=0) + 1.0
    span = np.maximum(hi - lo, 1e-9)
    size = 480.0

    def to_px(p):
        q = (np.asarray(p) - lo) / span
        return q[0] * size, (1.0 - q[1]) * size

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(size)}" height="{int(size)}" '
        f'viewBox="0 0 {int(size)} {int(size)}">',
        f'<rect width="{int(size)}" height="{int(size)}" fill="white"/>',
    ]
    poly = " ".join("%.2f,%.2f" % to_px(p) for p in outline + outline[:1])
    lines.append(f'<polyline points="{poly}" fill="none" stroke="black"/>')
    for r in summary.results:
        if r.terminal_state is None:
            continue
        x, y = to_px(r.terminal_state[0:2])
        color = "green" if r.success else "red"
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cztube", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("approx-cone", help="emit cone inner-approximation vertices")
    s.add_argument("--config", required=True)
    s.add_argument("--k", type=int)
    s.add_argument("--out", default="cone_vertices.csv")
    s.set_defaults(func=cmd_approx_cone)

    s = sub.add_parser("build-tube", help="build and store a controllable tube")
    s.add_argument("--config", required=True)
    s.add_argument("--robust", action="store_true")
    s.add_argument("--max-n", type=int, default=200)
    s.add_argument("--out", default="tube.cztb")
    s.set_defaults(func=cmd_build_tube)

    s = sub.add_parser("rollout", help="closed-loop rollout from the scenario start")
    s.add_argument("--config", required=True)
    s.add_argument("--tube", required=True)
    s.add_argument("--ddto", help="backup-site offset 'dx,dy,dz' for decision deferral")
    s.add_argument("--out", default="trajectory.csv")
    s.set_defaults(func=cmd_rollout)

    s = sub.add_parser("reach", help="instantaneous reachable-set boundary at a step")
    s.add_argument("--config", required=True)
    s.add_argument("--tube", required=True)
    s.add_argument("--step", type=int, required=True)
    s.add_argument("--out", default="reachable.csv")
    s.set_defaults(func=cmd_reach)

    s = sub.add_parser("montecarlo", help="closed-loop Monte Carlo study")
    s.add_argument("--config", required=True)
    s.add_argument("--tube", required=True)
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="montecarlo.csv")
    s.add_argument("--svg", default=None)
    s.set_defaults(func=cmd_montecarlo)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (tube_mod.RobustInfeasibleError, NotFullDimensionalError) as exc:
        print(f"infeasible build: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_BUILD
    except (
        guidance.NoContainmentError,
        guidance.InfeasibleError,
        guidance.EmptySliceError,
        EmptySetError,
    ) as exc:
        print(f"infeasible query: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_QUERY
    except LpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
