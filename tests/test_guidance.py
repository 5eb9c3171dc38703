"""Tests for the online guidance layer: horizon selection, one-step
control, rollouts, reachable sets, deferred decisions, and Monte Carlo."""

import numpy as np
import pytest

from cztube import czset, guidance, lp
from cztube.czset import ConstrainedZonotope
from cztube.guidance import (
    EmptySliceError,
    InfeasibleError,
    NoContainmentError,
    check_translation_invariant,
    ddto_rollout,
    effective_tube_set,
    forward_rollout,
    full_horizon_oracle,
    instantaneous_reachable,
    monte_carlo,
    one_step_ocp,
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
from cztube.lp import FEAS_TOL, LpError, LpSolution, LpStatus
from cztube.tube import (
    ControllableTube,
    deterministic_recursion,
    robust_parts,
    robust_recursion,
)
from cztube.uncertainty import landing_uncertainty_model


def box8(half, center=None):
    half = np.asarray(half, dtype=float)
    center = np.zeros(8) if center is None else np.asarray(center, dtype=float)
    return ConstrainedZonotope(np.diag(half), center)


# -- shared small landing instances ----------------------------------------


@pytest.fixture(scope="module")
def det_toy():
    """Short-hop deterministic landing with a coarse thrust lattice."""
    scn = LandingScenario(
        n_points=30,
        r_i=np.array([0.0, 0.0, 120.0]),
        v_i=np.array([0.0, 0.0, -10.0]),
    )
    dyn = discretize(scn)
    X = build_state_set(scn)
    U = build_control_set(scn, 30)
    Xf = build_terminal_set(scn)
    tube = deterministic_recursion(dyn, X, U, Xf, max_N=8)
    return scn, dyn, X, U, Xf, tube


@pytest.fixture(scope="module")
def robust_toy():
    """Short-horizon robust landing with mild navigation/execution noise."""
    scn = LandingScenario(
        N=4,
        dt=15.0,
        alpha=0.0002875,
        n_points=14,
        r_i=np.array([0.0, 0.0, 300.0]),
        v_i=np.array([0.0, 0.0, -5.0]),
    )
    model = landing_uncertainty_model(
        sigma3_u=0.01, sigma3_r_rate=0.2, sigma3_v_rate=0.005
    )
    dyn, sched, U_rob, Tf, dyn_w = robust_parts(scn, model)
    X = build_state_set(scn)
    sink = {}
    tube = robust_recursion(dyn_w, X, U_rob, Tf, sched, scn.N, eroded_sink=sink)
    return scn, dyn, model, sched, U_rob, Tf, tube, sink


# -- optimal horizon -------------------------------------------------------


def test_horizon_terminal_point_picks_last_index():
    # a state inside every set at zero cost: ties resolve to the largest k
    sets = [
        box8([k, k, k, k, k, k, 1.0, 1.0], center=[0, 0, 0, 0, 0, 0, 0, 1.0])
        for k in (3.0, 2.0, 1.0)
    ]
    tube = ControllableTube(sets, 1.0, "deterministic")
    hq = optimal_horizon(np.zeros(7), tube)
    assert hq.k_star == 3
    assert abs(hq.c_star) <= 1e-9
    assert hq.containment_indices == [1, 2, 3]


def test_horizon_prefers_lower_cost():
    cheap = ConstrainedZonotope(
        np.diag([1, 1, 1, 1, 1, 1, 1, 0.5]),
        np.array([0, 0, 0, 0, 0, 0, 0, 0.5]),
    )
    dear = ConstrainedZonotope(
        np.diag([1, 1, 1, 1, 1, 1, 1, 0.5]),
        np.array([0, 0, 0, 0, 0, 0, 0, 1.5]),
    )
    tube = ControllableTube([cheap, dear], 1.0, "deterministic")
    hq = optimal_horizon(np.zeros(7), tube)
    assert hq.k_star == 1 and abs(hq.c_star) <= 1e-9
    assert abs(hq.costs[2] - 1.0) <= 1e-9


def test_horizon_partial_containment():
    sets = [box8([3] * 8), box8([1] * 8)]
    tube = ControllableTube(sets, 1.0, "deterministic")
    x = np.array([2.0, 0, 0, 0, 0, 0, 0])
    hq = optimal_horizon(x, tube)
    assert hq.containment_indices == [1]


def test_horizon_no_containment_and_bad_shape():
    tube = ControllableTube([box8([1] * 8)], 1.0, "deterministic")
    with pytest.raises(NoContainmentError):
        optimal_horizon(np.full(7, 50.0), tube)
    with pytest.raises(ValueError):
        optimal_horizon(np.zeros(8), tube)


# -- one-step optimal control ----------------------------------------------


def toy_shift_dyn():
    B = np.zeros((8, 1))
    B[0, 0] = 1.0
    return DiscreteDynamics(A=np.eye(8), B=B, d=np.zeros(8), dt=1.0)


def test_one_step_ocp_minimizes_cost():
    dyn = toy_shift_dyn()
    U = ConstrainedZonotope(np.array([[1.0]]), np.array([0.0]))
    half = np.array([1.25, 10, 10, 10, 10, 10, 10, 0.25])
    center = np.array([1.75, 0, 0, 0, 0, 0, 0, 0.75])
    cs_next = ConstrainedZonotope(np.diag(half), center)
    control, next_state, c_k = one_step_ocp(np.zeros(8), cs_next, U, dyn)
    assert abs(c_k - 0.5) <= 1e-8  # smallest admissible next cost
    assert 0.5 - 1e-8 <= control[0] <= 1.0 + 1e-8
    assert cs_next.contains_point(next_state, tol=1e-6)


def test_one_step_ocp_infeasible_when_out_of_reach():
    dyn = toy_shift_dyn()
    U = ConstrainedZonotope(np.array([[1.0]]), np.array([0.0]))
    cs_next = box8([0.5] * 8, center=[5.0, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(InfeasibleError):
        one_step_ocp(np.zeros(8), cs_next, U, dyn)


def test_one_step_ocp_respects_control_latent_constraints(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    hq = optimal_horizon(scn.initial_state(), tube)
    state = np.concatenate([scn.initial_state(), [hq.c_star]])
    control, next_state, c_k = one_step_ocp(state, tube.cs(hq.k_star + 1), U, dyn)
    assert U.contains_point(control, tol=1e-6)
    assert tube.cs(hq.k_star + 1).contains_point(next_state, tol=1e-6)


# -- forward rollout -------------------------------------------------------


def test_rollout_dynamics_and_cost_telescoping(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    log = forward_rollout(scn.initial_state(), tube, U, dyn)
    assert tube.cs(tube.N).contains_point(log.terminal_state, tol=1e-6)
    # each recorded state steps exactly into the next under its control
    for a, b in zip(log.records, log.records[1:]):
        residual = dyn.step(a.state, a.control) - b.state
        assert np.max(np.abs(residual)) <= 1e-9
    last = log.records[-1]
    assert np.max(np.abs(dyn.step(last.state, last.control) - log.terminal_state)) <= 1e-9
    # the cost coordinate telescopes the magnitude integral
    sigmas = [rec.control[3] for rec in log.records]
    assert abs(log.total_cost - scn.alpha * scn.dt * sum(sigmas)) <= 1e-7
    # the magnitude relaxation is tight along an optimal trajectory
    assert log.sigma_gap() <= 1e-6


def test_rollout_matches_full_horizon_oracle(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    hq = optimal_horizon(scn.initial_state(), tube)
    log = forward_rollout(scn.initial_state(), tube, U, dyn, start=hq)
    cost, Y, Uc = full_horizon_oracle(
        scn.initial_state(), tube.N - hq.k_star, dyn, X, U, Xf
    )
    assert abs(log.total_cost - cost) <= 1e-9 * max(1.0, abs(cost))
    assert Y.shape == (tube.N - hq.k_star + 1, 8)
    assert Uc.shape == (tube.N - hq.k_star, 4)


# -- warm starts -------------------------------------------------------------


def _fresh(tube):
    """The same tube with new set objects, carrying nothing but their
    canonical min-cost bases, as a loaded tube does."""
    sets = [ConstrainedZonotope(Z.G, Z.c, Z.A, Z.b) for Z in tube.sets]
    for Z in sets:
        Z.is_empty()
    return ControllableTube(sets, tube.dt, tube.kind)


def test_one_step_warm_matches_cold_solve(det_toy, monkeypatch):
    # every warm-started one-step LP of a rollout, solved again cold
    scn, dyn, X, U, Xf, tube = det_toy
    warm = []
    solve = guidance.solve_lp

    def spy(prob, method="highs", basis=None):
        sol = solve(prob, method, basis)
        if basis is not None:
            warm.append((prob, sol))
        return sol

    monkeypatch.setattr(guidance, "solve_lp", spy)
    log = forward_rollout(scn.initial_state(), _fresh(tube), U, dyn)
    assert len(warm) == len(log.records)
    for prob, sol in warm:
        cold = lp.solve_lp(prob)
        assert sol.status == cold.status == LpStatus.OPTIMAL
        assert abs(sol.objective_value - cold.objective_value) <= 1e-9 * max(
            1.0, abs(cold.objective_value))


def test_one_step_basis_is_optimal_for_the_state_free_lp(det_toy):
    # the basis assembled from the next set's and the control set's
    # support bases needs no simplex iteration on the LP it stands for
    scn, dyn, X, U, Xf, tube = det_toy
    for k in range(2, tube.N + 1):
        model = guidance._one_step_model(tube.cs(k), U, dyn)
        basis = model.basis(tube.cs(k))
        assert basis is not None
        warm = lp.linprog(model.prob, "highs", basis)
        cold = lp.linprog(model.prob)
        assert warm.status == cold.status == lp.highs.HighsModelStatus.kOptimal
        assert warm.nit == 0
        c = model.prob.c_obj
        assert abs(c @ warm.x - c @ cold.x) <= 1e-9 * max(1.0, abs(c @ cold.x))


def test_one_step_start_under_cost_coupled_dynamics(det_toy, monkeypatch):
    # with a cost row that also reads position and velocity, w = A^-T e_8
    # is not e_8 and the start joined from the canonical bases is not
    # dual feasible; every warm one-step LP, from the nominal states and
    # from states off them, still ends as a cold solve
    scn, dyn, X, U, Xf, tube = det_toy
    A, B = dyn.A.copy(), dyn.B.copy()
    A[7, 0], A[7, 3], B[7, 2] = 1e-4, 2e-3, -1e-3
    coupled = DiscreteDynamics(A, B, dyn.d, dyn.dt)
    log = forward_rollout(scn.initial_state(), tube, U, dyn)
    warm = []
    solve = guidance.solve_lp

    def spy(prob, method="highs", basis=None):
        sol = solve(prob, method, basis)
        if basis is not None:
            warm.append((prob, sol))
        return sol

    monkeypatch.setattr(guidance, "solve_lp", spy)
    fresh = _fresh(tube)
    offset = np.array([2.0, -1.0, 1.0, 0.2, -0.1, 0.1, 0.0, 0.0])
    for rec in log.records:
        for state in (rec.state, rec.state + offset, rec.state - offset):
            try:
                one_step_ocp(state, fresh.cs(rec.k + 1), U, coupled)
            except InfeasibleError:
                pass
    assert len(warm) == 3 * len(log.records)
    for prob, sol in warm:
        cold = lp.solve_lp(prob)
        assert sol.status == cold.status
        if cold.status == LpStatus.OPTIMAL:
            assert abs(sol.objective_value - cold.objective_value) <= 1e-9 * max(
                1.0, abs(cold.objective_value))


def test_queries_never_compute_a_tube_set_basis(det_toy, monkeypatch):
    # the scan, the rollout and the deferred rollout only read the bases
    # that the tube sets and the control set carry; the only emptiness
    # LPs they solve are the deferred rollout's checks of its effective
    # sets
    scn, dyn, X, U, Xf, tube = det_toy
    fresh = _fresh(tube)
    settled = []
    settle = ConstrainedZonotope._settle_emptiness

    def spy(self):
        settled.append(id(self))
        return settle(self)

    effective = []
    make_effective = guidance.effective_tube_set

    def effective_spy(*args):
        effective.append(make_effective(*args))
        return effective[-1]

    monkeypatch.setattr(ConstrainedZonotope, "_settle_emptiness", spy)
    forward_rollout(scn.initial_state(), fresh, U, dyn)
    assert settled == []
    monkeypatch.setattr(guidance, "effective_tube_set", effective_spy)
    ddto_rollout(scn.initial_state(), fresh, np.array([8.0, 0.0, 0.0]), U, dyn)
    assert settled and set(settled) <= {id(Z) for Z in effective}


def test_rollout_solves_no_lp_on_the_control_set(det_toy, monkeypatch):
    # the one-step start reads the basis that the control set's emptiness
    # check left in build_control_set; no second LP on U is solved for it
    scn, dyn, X, U, Xf, tube = det_toy
    U = build_control_set(scn, 30)
    on_u = []
    backend = lp.linprog

    def spy(prob, method="highs", basis=None):
        if prob.E.shape == U.A.shape and (prob.E != U.A).nnz == 0:
            on_u.append(prob)
        return backend(prob, method, basis)

    monkeypatch.setattr(lp, "linprog", spy)
    log = forward_rollout(scn.initial_state(), _fresh(tube), U, dyn)
    assert log.records
    assert on_u == []


def test_scan_and_step_are_independent_of_query_history(det_toy):
    # queries from state A first leave state B's answers bitwise as they
    # are when B is queried alone on a fresh copy of the tube
    scn, dyn, X, U, Xf, tube = det_toy
    x_a = scn.initial_state()
    x_b = x_a + np.array([3.0, -2.0, 1.0, 0.2, -0.1, 0.1, 0.0])
    used = _fresh(tube)
    forward_rollout(x_a, used, U, dyn)
    hq_b = optimal_horizon(x_b, used)
    log_b = forward_rollout(x_b, used, U, dyn, start=hq_b)
    alone = _fresh(tube)
    hq_alone = optimal_horizon(x_b, alone)
    log_alone = forward_rollout(x_b, alone, U, dyn, start=hq_alone)
    assert hq_b == hq_alone
    assert len(log_b.records) == len(log_alone.records)
    for r, q in zip(log_b.records, log_alone.records):
        assert r.k == q.k
        assert np.array_equal(r.state, q.state) and np.array_equal(r.control, q.control)
    assert np.array_equal(log_b.terminal_state, log_alone.terminal_state)


def test_oracle_fixed_cost_semantics(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    hq = optimal_horizon(scn.initial_state(), tube)
    steps = tube.N - hq.k_star
    c_min, _, _ = full_horizon_oracle(scn.initial_state(), steps, dyn, X, U, Xf)
    # budgets above the minimum are feasible, budgets below are not
    cost, _, _ = full_horizon_oracle(
        scn.initial_state(), steps, dyn, X, U, Xf, fixed_cost=c_min * 1.01
    )
    assert abs(cost - c_min * 1.01) <= 1e-9
    with pytest.raises(InfeasibleError):
        full_horizon_oracle(
            scn.initial_state(), steps, dyn, X, U, Xf, fixed_cost=c_min * 0.9
        )


# -- instantaneous reachable set -------------------------------------------


def test_translation_invariance_check():
    dyn = discretize(LandingScenario())
    assert check_translation_invariant(dyn, (0, 1))
    coupled = DiscreteDynamics(
        A=np.eye(8) + np.diag([0.0] * 7, 1) * 0, B=np.zeros((8, 4)), d=np.zeros(8), dt=1.0
    )
    coupled.A[2, 0] = 0.1
    assert not check_translation_invariant(coupled, (0, 1))


def test_instantaneous_reachable_reflection():
    half = np.array([3.0, 3.0, 5, 5, 5, 5, 5, 5])
    center = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])
    tube = ControllableTube(
        [ConstrainedZonotope(np.diag(half), center)], 1.0, "deterministic"
    )
    x_hat_k = np.array([10.0, 0.0])
    x_hat_f = np.array([3.0, 3.0])
    R = instantaneous_reachable(x_hat_k, np.zeros(6), tube, 1, x_hat_f)
    lo, hi = R.interval_hull()
    # reflection of [-2,4]x[-2,4] about the shifted origin (13, 3)
    assert np.allclose(lo, [13.0 - 4.0, 3.0 - 4.0], atol=1e-9)
    assert np.allclose(hi, [13.0 + 2.0, 3.0 + 2.0], atol=1e-9)


def test_instantaneous_reachable_guards():
    tube = ControllableTube([box8([1.0] * 8)], 1.0, "deterministic")
    with pytest.raises(EmptySliceError):
        instantaneous_reachable(
            np.zeros(2), np.full(6, 50.0), tube, 1, np.zeros(2)
        )
    coupled = DiscreteDynamics(
        A=np.eye(8), B=np.zeros((8, 4)), d=np.zeros(8), dt=1.0
    )
    coupled.A[3, 0] = 0.5
    with pytest.raises(ValueError):
        instantaneous_reachable(
            np.zeros(2), np.zeros(6), tube, 1, np.zeros(2), dyn=coupled
        )


def test_instantaneous_reachable_on_landing_tube(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    hq = optimal_horizon(scn.initial_state(), tube)
    x = scn.initial_state()
    x_comp = np.concatenate([x[2:], [hq.c_star]])
    R = instantaneous_reachable(
        x[:2], x_comp, tube, hq.k_star, np.zeros(2), dyn=dyn
    )
    assert R.dim == 2
    # the nominal target (fly the current plan) is always reachable
    assert R.contains_point(np.zeros(2), tol=1e-6) or not R.is_empty()


def _footprints(tube, U, dyn, scn):
    """The divert footprint at each step of the nominal rollout on tube."""
    log = forward_rollout(scn.initial_state(), tube, U, dyn)
    return [
        (r, instantaneous_reachable(r.state[:2], r.state[2:], tube, r.k, np.zeros(2), dyn=dyn))
        for r in log.records
    ]


def test_footprint_warm_matches_cold_solve(det_toy):
    # every support LP of the footprint starts from the slice's min-cost
    # basis; supports and extreme points equal cold solves
    scn, dyn, X, U, Xf, tube = det_toy
    rng = np.random.default_rng(41)
    footprints = _footprints(_fresh(tube), U, dyn, scn)
    assert len(footprints) >= 3
    for _, R in footprints:
        assert R.latent_basis() is not None
        cold = ConstrainedZonotope(R.G, R.c, R.A, R.b)
        assert cold.latent_basis() is None
        for _ in range(6):
            eta = rng.normal(size=2)
            scale = max(1.0, abs(cold.support(eta)))
            assert abs(R.support(eta) - cold.support(eta)) <= FEAS_TOL * scale
            gap = np.linalg.norm(R.extreme_point(eta) - cold.extreme_point(eta))
            assert gap <= FEAS_TOL * scale


def test_footprint_is_independent_of_direction_order(det_toy):
    # the same footprint queried in two orders on fresh tubes gives
    # bitwise-identical points
    scn, dyn, X, U, Xf, tube = det_toy
    angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    etas = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    forward = _footprints(_fresh(tube), U, dyn, scn)
    backward = _footprints(_fresh(tube), U, dyn, scn)
    for (_, R1), (_, R2) in zip(forward, backward):
        p1 = [R1.extreme_point(eta) for eta in etas]
        p2 = [R2.extreme_point(eta) for eta in reversed(etas)][::-1]
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)


def test_footprint_outside_the_set_is_a_certified_empty_slice(det_toy, monkeypatch):
    # a cost below the least one at this state leaves the slice empty;
    # the warm reference LP proves it with a checked Farkas ray
    scn, dyn, X, U, Xf, tube = det_toy
    fresh = _fresh(tube)
    rec = forward_rollout(scn.initial_state(), fresh, U, dyn).records[0]
    verdicts = []
    farkas = lp.farkas_certifies

    def spy(prob, ray, rows=None):
        verdicts.append(farkas(prob, ray, rows))
        return verdicts[-1]

    monkeypatch.setattr(lp, "farkas_certifies", spy)
    state = rec.state.copy()
    state[-1] -= 0.01
    with pytest.raises(EmptySliceError):
        instantaneous_reachable(state[:2], state[2:], fresh, rec.k, np.zeros(2), dyn=dyn)
    assert verdicts and verdicts[-1]


def test_footprint_reference_lp_failure_is_an_lp_error(det_toy, monkeypatch):
    scn, dyn, X, U, Xf, tube = det_toy
    rec = forward_rollout(scn.initial_state(), tube, U, dyn).records[0]
    fresh = _fresh(tube)
    monkeypatch.setattr(czset, "solve_lp",
                        lambda prob, method="highs", basis=None: LpSolution(LpStatus.NUMERICAL_FAILURE))
    with pytest.raises(LpError):
        instantaneous_reachable(rec.state[:2], rec.state[2:], fresh, rec.k, np.zeros(2), dyn=dyn)


# -- decision-deferral rollout ---------------------------------------------


def test_effective_set_zero_offset_is_identity(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    eff = effective_tube_set(tube, 1, np.zeros(8))
    rng = np.random.default_rng(3)
    for _ in range(5):
        eta = rng.normal(size=8)
        assert abs(eff.support(eta) - tube.cs(1).support(eta)) <= 1e-6


def test_ddto_zero_offset_matches_nominal(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    nominal = forward_rollout(scn.initial_state(), tube, U, dyn)
    deferred = ddto_rollout(scn.initial_state(), tube, np.zeros(3), U, dyn)
    assert deferred.branch_step is None
    assert deferred.start_index == nominal.start_index
    assert abs(deferred.total_cost - nominal.total_cost) <= 1e-6
    assert tube.cs(tube.N).contains_point(deferred.terminal_state, tol=1e-6)


def test_ddto_costs_at_least_nominal(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    nominal = forward_rollout(scn.initial_state(), tube, U, dyn)
    deferred = ddto_rollout(scn.initial_state(), tube, np.array([8.0, 0.0, 0.0]), U, dyn)
    assert deferred.total_cost >= nominal.total_cost - 1e-9
    assert tube.cs(tube.N).contains_point(deferred.terminal_state, tol=1e-6)


def test_ddto_unreachable_backup_rejected(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    with pytest.raises(NoContainmentError):
        ddto_rollout(scn.initial_state(), tube, np.array([1e6, 0.0, 0.0]), U, dyn)


# -- Monte Carlo -----------------------------------------------------------


def test_monte_carlo_zero_noise_deterministic():
    scn = LandingScenario(
        N=4,
        dt=15.0,
        alpha=0.0002875,
        n_points=14,
        r_i=np.array([0.0, 0.0, 300.0]),
        v_i=np.array([0.0, 0.0, -5.0]),
    )
    model = landing_uncertainty_model(
        sigma3_u=0.0, sigma3_r_rate=0.0, sigma3_v_rate=0.0
    )
    dyn, sched, U_rob, Tf, dyn_w = robust_parts(scn, model)
    assert all(len(g) == 0 for g in sched.outer_zonotopes)
    X = build_state_set(scn)
    tube = robust_recursion(dyn_w, X, U_rob, Tf, sched, scn.N)
    mc = monte_carlo(scn, tube, model, sched, U_rob, Tf, dyn, trials=3, master_seed=7)
    assert mc.successes == mc.trials == 3
    # without noise every trial follows the identical trajectory
    ref = mc.results[0].terminal_state
    for r in mc.results[1:]:
        assert np.array_equal(r.terminal_state, ref)
    assert all(r.fuel_kg > 0 for r in mc.results)


def test_monte_carlo_repeatable_and_reuses_eroded(robust_toy):
    scn, dyn, model, sched, U_rob, Tf, tube, sink = robust_toy
    a = monte_carlo(
        scn, tube, model, sched, U_rob, Tf, dyn, trials=3, master_seed=11, eroded=sink
    )
    b = monte_carlo(
        scn, tube, model, sched, U_rob, Tf, dyn, trials=3, master_seed=11, eroded=sink
    )
    assert a.successes == a.trials == 3
    for ra, rb in zip(a.results, b.results):
        assert ra.success == rb.success
        assert np.array_equal(ra.terminal_state, rb.terminal_state)
        assert ra.fuel_kg == rb.fuel_kg
    # a different master seed changes the sampled trajectories
    c = monte_carlo(
        scn, tube, model, sched, U_rob, Tf, dyn, trials=3, master_seed=12, eroded=sink
    )
    assert not np.array_equal(a.results[0].terminal_state, c.results[0].terminal_state)


def test_monte_carlo_without_targets_erodes_like_the_build(robust_toy):
    # the targets monte_carlo erodes itself are the recursion's eroded
    # targets, so the trials come out bitwise the same
    scn, dyn, model, sched, U_rob, Tf, tube, sink = robust_toy
    a = monte_carlo(
        scn, tube, model, sched, U_rob, Tf, dyn, trials=3, master_seed=11, eroded=sink
    )
    b = monte_carlo(scn, tube, model, sched, U_rob, Tf, dyn, trials=3, master_seed=11)
    for ra, rb in zip(a.results, b.results):
        assert ra.success == rb.success
        assert np.array_equal(ra.terminal_state, rb.terminal_state)
        assert ra.fuel_kg == rb.fuel_kg


def test_monte_carlo_trial_results_carry_metadata(robust_toy):
    scn, dyn, model, sched, U_rob, Tf, tube, sink = robust_toy
    mc = monte_carlo(
        scn, tube, model, sched, U_rob, Tf, dyn, trials=2, master_seed=5, eroded=sink
    )
    for t, r in enumerate(mc.results):
        assert r.trial == t and r.seed == 5
        if r.success:
            assert Tf.contains_point(r.terminal_state, tol=1e-5)
            assert r.failure_step is None
