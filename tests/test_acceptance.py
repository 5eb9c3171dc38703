"""Acceptance suite: twelve end-to-end criteria for the landing toolkit.

Each test prints one PASS/FAIL line (bypassing capture so the line is
visible in plain pytest output) and then asserts the criterion.
"""

import math
import sys
import time

import numpy as np
import pytest

from cztube.cli import (
    FLOAT_FMT,
    MC_HEADER,
    TRAJ_HEADER,
    _montecarlo_rows,
    _trajectory_rows,
    _write_csv,
)
from cztube.cone import CompactQuadraticCone, cqc_inner_approx
from cztube.czset import ConstrainedZonotope
from cztube.guidance import (
    InfeasibleError,
    ddto_rollout,
    forward_rollout,
    full_horizon_oracle,
    instantaneous_reachable,
    monte_carlo,
    optimal_horizon,
)
from cztube.landing import (
    DiscreteDynamics,
    LandingScenario,
    build_control_set,
    build_state_set,
    build_terminal_set,
    discretize,
)
from cztube.tube import (
    deserialize_tube,
    deterministic_recursion,
    robust_parts,
    robust_recursion,
    serialize_tube,
)
from cztube.uncertainty import chi2_cdf, chi2_inv_cdf, landing_uncertainty_model

N_POINTS_DET = 100
MC_SEED = 2026

_CAPMAN = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    """Remember pytest's capture manager so report() can print through it."""
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(num, name, ok, extra=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


# -- shared pipelines -------------------------------------------------------


@pytest.fixture(scope="module")
def det(tmp_path_factory):
    """Deterministic landing pipeline at full scale (100 thrust points)."""
    scn = LandingScenario(n_points=N_POINTS_DET)
    dyn = discretize(scn)
    X = build_state_set(scn)
    U = build_control_set(scn, N_POINTS_DET)
    Xf = build_terminal_set(scn)
    t0 = time.perf_counter()
    tube = deterministic_recursion(dyn, X, U, Xf)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    hq = optimal_horizon(scn.initial_state(), tube)
    log = forward_rollout(scn.initial_state(), tube, U, dyn, start=hq)
    rollout_s = time.perf_counter() - t0
    out = tmp_path_factory.mktemp("det")
    tube_path = out / "det.cztb"
    serialize_tube(tube, tube_path)
    traj_path = out / "trajectory.csv"
    _write_csv(traj_path, TRAJ_HEADER, _trajectory_rows(scn, log))
    return {
        "scn": scn, "dyn": dyn, "X": X, "U": U, "Xf": Xf, "tube": tube,
        "hq": hq, "log": log, "build_s": build_s, "rollout_s": rollout_s,
        "tube_path": tube_path, "traj_path": traj_path, "out": out,
    }


@pytest.fixture(scope="module")
def rob(tmp_path_factory):
    """Robust landing pipeline: 20-step horizon, eroded targets captured."""
    scn = LandingScenario(
        N=20, dt=15.0, alpha=0.0002875, n_points=14,
        r_i=np.array([4000.0, 4000.0, 4000.0]),
        v_i=np.array([-10.0, -10.0, -10.0]),
    )
    model = landing_uncertainty_model()
    dyn, sched, U_rob, Tf, dyn_w = robust_parts(scn, model)
    X = build_state_set(scn)
    sink = {}
    t0 = time.perf_counter()
    tube = robust_recursion(dyn_w, X, U_rob, Tf, sched, scn.N, eroded_sink=sink)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    summary = monte_carlo(
        scn, tube, model, sched, U_rob, Tf, dyn, trials=100,
        master_seed=MC_SEED, eroded=sink,
    )
    mc_s = time.perf_counter() - t0
    out = tmp_path_factory.mktemp("rob")
    tube_path = out / "rob.cztb"
    serialize_tube(tube, tube_path)
    mc_path = out / "montecarlo.csv"
    _write_csv(mc_path, MC_HEADER, _montecarlo_rows(summary))
    return {
        "scn": scn, "dyn": dyn, "model": model, "sched": sched,
        "U_rob": U_rob, "Tf": Tf, "dyn_w": dyn_w, "tube": tube, "sink": sink,
        "summary": summary, "build_s": build_s, "mc_s": mc_s,
        "tube_path": tube_path, "mc_path": mc_path, "out": out,
    }


# -- criteria ---------------------------------------------------------------


def test_criterion_01_closed_loop_recovers_global_optimum(det):
    hq, log, tube = det["hq"], det["log"], det["tube"]
    sweep = {}
    for k in hq.containment_indices:
        try:
            cost, _, _ = full_horizon_oracle(
                det["scn"].initial_state(), tube.N - k, det["dyn"],
                det["X"], det["U"], det["Xf"],
            )
            sweep[k] = cost
        except InfeasibleError:
            pass
    best = min(sweep.values())
    rel = abs(log.total_cost - best) / best
    argmins = {k for k, v in sweep.items() if v <= best + 1e-9}
    ok = rel <= 1e-4 and hq.k_star in argmins
    ok = ok and det["build_s"] <= 600.0 and det["rollout_s"] <= 300.0
    report(1, "closed-loop rollout equals open-loop optimum", ok,
           f"rel gap {rel:.2e}, k*={hq.k_star}, build {det['build_s']:.1f}s")
    assert rel <= 1e-4
    assert hq.k_star in argmins
    assert det["build_s"] <= 600.0 and det["rollout_s"] <= 300.0


def test_criterion_02_scalar_toy_analytic_cost():
    # scalar double of the landing structure: position moved by u,
    # cost depleted by sigma, |u| <= sigma <= 1, target pinned at 0
    A = np.eye(8)
    B = np.zeros((8, 2))
    B[0, 0] = 1.0
    B[7, 1] = -1.0
    dyn = DiscreteDynamics(A=A, B=B, d=np.zeros(8), dt=1.0)
    U = ConstrainedZonotope.from_vertices(
        np.array([[-1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    )
    GX = np.zeros((8, 2))
    GX[0, 0] = 10.0
    GX[7, 1] = 10.0
    X = ConstrainedZonotope(GX, np.array([0, 0, 0, 0, 0, 0, 0, 10.0]))
    Xf = ConstrainedZonotope(np.zeros((8, 0)), np.zeros(8))
    tube = deterministic_recursion(dyn, X, U, Xf, max_N=12)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        x0 = rng.uniform(-8.0, 8.0)
        hq = optimal_horizon(np.array([x0, 0, 0, 0, 0, 0, 0]), tube, tol=1e-12)
        # minimum total effort to steer x0 to the origin is |x0|
        worst = max(worst, abs(hq.c_star - abs(x0)))
    ok = worst <= 1e-8
    report(2, "horizon cost equals analytic toy optimum", ok, f"worst {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_03_tube_exactness_both_directions(det):
    tube, dyn = det["tube"], det["dyn"]
    rng = np.random.default_rng(7)
    ks = rng.choice(np.arange(2, tube.N), size=5, replace=False)
    violations = []
    for k in ks:
        cs = tube.cs(int(k))
        T = tube.N - int(k)
        for j in range(10):
            eta = rng.normal(size=8)
            x = cs.extreme_point(eta)
            srange = cs.support(eta) + cs.support(-eta)
            try:
                full_horizon_oracle(x[:7], T, dyn, det["X"], det["U"],
                                    det["Xf"], fixed_cost=float(x[7]))
            except InfeasibleError:
                violations.append((int(k), j, "extreme point infeasible"))
            xp = x + 1e-3 * srange * eta / np.linalg.norm(eta)
            try:
                full_horizon_oracle(xp[:7], T, dyn, det["X"], det["U"],
                                    det["Xf"], fixed_cost=float(xp[7]))
                violations.append((int(k), j, "outward perturbation feasible"))
            except InfeasibleError:
                pass
    ok = not violations
    report(3, "tube boundary exact against full-horizon oracle", ok,
           f"{len(violations)} violations over 50 probes")
    assert violations == []


def test_criterion_04_reachable_set_equals_oracle(det):
    tube, hq, log, scn, dyn = det["tube"], det["hq"], det["log"], det["scn"], det["dyn"]
    k = hq.k_star
    state0 = log.records[0].state
    R = instantaneous_reachable(state0[:2], state0[2:], tube, k, scn.r_f[:2], dyn=dyn)
    lo, hi = R.interval_hull()
    diam = float(np.linalg.norm(hi - lo))
    margin = 0.25 * (hi - lo)
    dirs = [np.array([math.cos(a), math.sin(a)])
            for a in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)]
    rng = np.random.default_rng(11)
    T = tube.N - k
    disagreements = []
    for _ in range(200):
        p = rng.uniform(lo - margin, hi + margin)
        member = R.contains_point(p, tol=1e-6)
        delta = np.zeros(8)
        delta[0:2] = p
        try:
            # moving the landing site translates every position-anchored
            # constraint: terminal conditions and the glideslope cone
            full_horizon_oracle(
                state0[:7], T, dyn, det["X"].translate(delta), det["U"],
                det["Xf"].translate(delta), fixed_cost=float(state0[7]),
            )
            feas = True
        except InfeasibleError:
            feas = False
        if member != feas:
            boundary_gap = min(R.support(eta) - float(eta @ p) for eta in dirs)
            disagreements.append((p, abs(boundary_gap)))
    near_boundary = all(gap <= 1e-3 * diam for _, gap in disagreements)
    ok = len(disagreements) <= 2 and near_boundary
    report(4, "instantaneous reachable set matches oracle", ok,
           f"{200 - len(disagreements)}/200 agree")
    assert len(disagreements) <= 2
    assert near_boundary


def test_criterion_05_cone_soundness():
    scn = LandingScenario()
    cone = CompactQuadraticCone(4, scn.accel_max)
    rng = np.random.default_rng(5)
    worst = -np.inf
    for k in (14, 302):
        _, cz = cqc_inner_approx(cone, k)
        for _ in range(200):
            eta = rng.normal(size=4)
            worst = max(worst, cz.support(eta) - cone.support(eta))
    ok = worst <= 1e-9
    report(5, "cone inner approximation sound", ok, f"max excess {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_06_erosion_sound_and_box_exact():
    rng = np.random.default_rng(6)
    worst = -np.inf
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        G = rng.normal(size=(dim, dim + 3))
        c = rng.normal(size=dim)
        Z = ConstrainedZonotope(G, c)
        gens = [0.15 * rng.normal(size=dim) for _ in range(2)]
        D = Z.pontryagin_difference(gens)
        w_sup = lambda eta: sum(abs(eta @ g) for g in gens)
        for _ in range(100):
            eta = rng.normal(size=dim)
            worst = max(worst, D.support(eta) + w_sup(eta) - Z.support(eta))
    box = ConstrainedZonotope(np.diag([3.0, 2.0]), np.zeros(2))
    eroded = box.pontryagin_difference([np.array([1.0, 0.0]), np.array([0.0, 0.5])])
    axis_err = 0.0
    for eta, exact in [([1, 0], 2.0), ([-1, 0], 2.0), ([0, 1], 1.5), ([0, -1], 1.5)]:
        axis_err = max(axis_err, abs(eroded.support(np.array(eta, dtype=float)) - exact))
    ok = worst <= 1e-7 and axis_err <= 1e-9
    report(6, "erosion sound and box-exact", ok,
           f"max slack {worst:.2e}, axis err {axis_err:.2e}")
    assert worst <= 1e-7
    assert axis_err <= 1e-9


def test_criterion_07_chi_squared_calibration():
    worst = 0.0
    for p in (0.5, 0.95, 0.95 ** (1.0 / 20.0)):
        for dof in (2, 3, 6, 15):
            x = chi2_inv_cdf(p, dof)
            worst = max(worst, abs(chi2_cdf(x, dof) - p))
    closed = max(
        abs(chi2_inv_cdf(p, 2) + 2.0 * math.log1p(-p))
        for p in (0.5, 0.95, 0.95 ** (1.0 / 20.0))
    )
    ok = worst <= 1e-10 and closed <= 1e-10
    report(7, "chi-squared quantiles calibrated", ok,
           f"roundtrip {worst:.2e}, dof-2 closed form {closed:.2e}")
    assert worst <= 1e-10
    assert closed <= 1e-10


def test_criterion_08_robust_monte_carlo(rob):
    summary = rob["summary"]
    z_floor = math.log(rob["scn"].m_dry)
    z_ok = all(
        r.terminal_state[6] >= z_floor - 1e-12
        for r in summary.results if r.success
    )
    total_s = rob["build_s"] + rob["mc_s"]
    ok = summary.successes >= 95 and z_ok and total_s <= 900.0
    report(8, "robust closed-loop Monte Carlo", ok,
           f"{summary.successes}/100 success, {total_s:.0f}s")
    assert summary.successes >= 95
    assert z_ok
    assert total_s <= 900.0


def test_criterion_09_decision_deferral_contrast(det):
    tube, scn, dyn, log = det["tube"], det["scn"], det["dyn"], det["log"]
    backup = np.array([1700.0, 0.0, 0.0])

    def site_reachable(state, k, site):
        R = instantaneous_reachable(state[:2], state[2:], tube, k,
                                    scn.r_f[:2], dyn=dyn)
        return R.contains_point(site, tol=1e-6)

    dlog = ddto_rollout(scn.initial_state(), tube, backup, det["U"], dyn)
    n_pre = (dlog.branch_step - dlog.start_index
             if dlog.branch_step is not None else len(dlog.records))
    both = all(
        site_reachable(r.state, r.k, np.zeros(2))
        and site_reachable(r.state, r.k, backup[:2])
        for r in dlog.records[:n_pre]
    )
    lost = [r.k for r in log.records if not site_reachable(r.state, r.k, backup[:2])]
    ok = both and bool(lost)
    report(9, "decision deferral keeps both sites reachable", ok,
           f"branch at {dlog.branch_step}, plain rollout loses backup at {lost[:1]}")
    assert both
    assert lost


def test_criterion_10_relaxation_tightness(det):
    gap = det["log"].sigma_gap()
    ok = gap <= 0.05 and N_POINTS_DET >= 100
    report(10, "magnitude relaxation tight", ok, f"max sigma gap {gap:.4f}")
    assert N_POINTS_DET >= 100
    assert gap <= 0.05


def test_criterion_11_serialization_roundtrips(det):
    back = deserialize_tube(det["tube_path"])
    for Z, W in zip(det["tube"].sets, back.sets):
        assert np.array_equal(np.asarray(Z.G, dtype=float), np.asarray(W.G, dtype=float))
        assert np.array_equal(Z.c, W.c)
        assert np.array_equal(Z.A.toarray(), W.A.toarray())
        assert np.array_equal(Z.b, W.b)
    again = det["out"] / "det_again.cztb"
    serialize_tube(back, again)
    tube_ok = again.read_bytes() == det["tube_path"].read_bytes()
    text = det["traj_path"].read_text().strip().splitlines()
    csv_ok = True
    for line in text[1:]:
        for cell in line.split(","):
            if cell == "" or "." not in cell and "e" not in cell and cell.lstrip("-").isdigit():
                continue
            csv_ok = csv_ok and (FLOAT_FMT % float(cell) == cell)
    ok = tube_ok and csv_ok
    report(11, "tube and CSV serialization lossless", ok)
    assert tube_ok
    assert csv_ok


def test_criterion_12_bitwise_determinism(det, rob):
    # rerun the deterministic pipeline end to end
    scn = det["scn"]
    tube2 = deterministic_recursion(det["dyn"], det["X"], det["U"], det["Xf"])
    tube2_path = det["out"] / "det_rerun.cztb"
    serialize_tube(tube2, tube2_path)
    det_tube_same = tube2_path.read_bytes() == det["tube_path"].read_bytes()
    log2 = forward_rollout(scn.initial_state(), tube2, det["U"], det["dyn"])
    traj2 = det["out"] / "trajectory_rerun.csv"
    _write_csv(traj2, TRAJ_HEADER, _trajectory_rows(scn, log2))
    det_traj_same = traj2.read_bytes() == det["traj_path"].read_bytes()

    # rerun the robust build and the Monte Carlo study with the same seed
    rscn = rob["scn"]
    sink2 = {}
    tube3 = robust_recursion(
        rob["dyn_w"], build_state_set(rscn), rob["U_rob"], rob["Tf"],
        rob["sched"], rscn.N, eroded_sink=sink2,
    )
    tube3_path = rob["out"] / "rob_rerun.cztb"
    serialize_tube(tube3, tube3_path)
    rob_tube_same = tube3_path.read_bytes() == rob["tube_path"].read_bytes()
    summary2 = monte_carlo(
        rscn, tube3, rob["model"], rob["sched"], rob["U_rob"], rob["Tf"],
        rob["dyn"], trials=100, master_seed=MC_SEED, eroded=sink2,
    )
    mc2 = rob["out"] / "montecarlo_rerun.csv"
    _write_csv(mc2, MC_HEADER, _montecarlo_rows(summary2))
    mc_same = mc2.read_bytes() == rob["mc_path"].read_bytes()

    ok = det_tube_same and det_traj_same and rob_tube_same and mc_same
    report(12, "identical seeds give bitwise-identical outputs", ok,
           f"det tube {det_tube_same}, trajectory {det_traj_same}, "
           f"robust tube {rob_tube_same}, monte carlo {mc_same}")
    assert det_tube_same
    assert det_traj_same
    assert rob_tube_same
    assert mc_same
