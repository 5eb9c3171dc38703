"""Tests for the online guidance layer: horizon selection, one-step
control, rollouts, reachable sets, deferred decisions, and Monte Carlo."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from cztube import czset, guidance, lp
from cztube.czset import ConstrainedZonotope
from cztube.guidance import (
    SLICE_TOL,
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
    deserialize_tube,
    deterministic_recursion,
    robust_parts,
    robust_recursion,
    serialize_tube,
)
from cztube.uncertainty import UncertaintyModel, landing_uncertainty_model


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


def test_toy_tube_sets_are_already_in_min_row_form(det_toy, robust_toy):
    # why building without minrow_normalize leaves the landing tubes as
    # they were: it returns every set, and every eroded target, unchanged
    det_tube, rob_tube, eroded = det_toy[-1], robust_toy[-2], robust_toy[-1]
    for Z in det_tube.sets + rob_tube.sets + list(eroded.values()):
        assert Z.minrow_normalize() is Z


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


def test_total_cost_is_the_first_steps_cost_to_go(det_toy):
    # the first record's c_k, or the scan's c* for a start already in CS_N
    scn, dyn, X, U, Xf, tube = det_toy
    log = forward_rollout(scn.initial_state(), tube, U, dyn)
    assert log.records and log.total_cost == log.records[0].state[-1]
    hq = optimal_horizon(log.terminal_state[:7], tube)
    assert hq.k_star == tube.N
    done = forward_rollout(log.terminal_state[:7], tube, U, dyn, start=hq)
    assert done.records == [] and done.total_cost == hq.c_star
    deferred = ddto_rollout(scn.initial_state(), tube, np.array([8.0, 0.0, 0.0]), U, dyn)
    assert deferred.total_cost == deferred.records[0].state[-1]


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
        assert model.basis is not None
        warm = lp.linprog(model.prob, "highs", model.basis)
        cold = lp.linprog(model.prob)
        assert warm.status == cold.status == lp.highs.HighsModelStatus.kOptimal
        assert warm.nit == 0
        c = model.prob.c_obj
        assert abs(c @ warm.x - c @ cold.x) <= 1e-9 * max(1.0, abs(c @ cold.x))


def _stacked_one_step_program(cs_next, control_set, dyn):
    """The one-step LP and start as assembled with hstack/vstack, the
    reference for the block assembly; the start reads the bases the sets
    carry now, so call it after the model has settled them."""
    Gu, cu, Au, bu = control_set.G, control_set.c, control_set.A, control_set.b
    Gn, cn, An, bn = cs_next.G, cs_next.c, cs_next.A, cs_next.b
    n_u, n_n, n_x = Gu.shape[1], Gn.shape[1], 7
    nv = n_u + n_n + 1 + n_x
    c_obj = np.zeros(nv)
    c_obj[n_u + n_n] = 1.0
    lhs = sp.hstack([sp.csr_matrix(dyn.B @ Gu), sp.csr_matrix(-Gn),
                     sp.csr_matrix(dyn.A[:, -1][:, None]), sp.csr_matrix(dyn.A[:, :n_x])],
                    format="csr")
    E = sp.vstack([
        lhs,
        sp.hstack([Au, sp.csr_matrix((Au.shape[0], n_n + 1 + n_x))], format="csr"),
        sp.hstack([sp.csr_matrix((An.shape[0], n_u)), An, sp.csr_matrix((An.shape[0], 1 + n_x))],
                  format="csr"),
    ], format="csr")
    f = np.concatenate([cn - dyn.d - dyn.B @ cu, bu, bn])
    lb = np.concatenate([-np.ones(n_u + n_n), np.full(1 + n_x, -np.inf)])
    ub = np.concatenate([np.ones(n_u + n_n), np.full(1 + n_x, np.inf)])
    b_next, b_u = cs_next.basis(), control_set.basis()
    start = None if b_next is None or b_u is None else lp.LpBasis(
        b_u.cols + b_next.cols + (lp.BASIC,) * 8, (lp.NONBASIC,) * 8 + b_u.rows + b_next.rows)
    return lp.LinearProgram(c_obj, E, f, lb=lb, ub=ub), start


def test_one_step_program_matches_the_stacked_assembly(det_toy):
    # the block-assembled program and its start are bitwise the stacked
    # ones, also into a next set with no generators or with no rows
    scn, dyn, X, U, Xf, tube = det_toy
    point = ConstrainedZonotope(np.zeros((8, 0)), np.arange(8.0))
    cases = [(tube.cs(k), U, dyn) for k in range(2, tube.N + 1)]
    cases += [(point, U, dyn), (box8([1.0] * 8), U, dyn)]
    shift_U = ConstrainedZonotope(np.array([[1.0]]), np.array([0.0]))
    cases += [(point, shift_U, toy_shift_dyn()), (box8([2.0] * 8), shift_U, toy_shift_dyn())]
    for cs_next, control_set, d in cases:
        model = guidance._one_step_model(cs_next, control_set, d)
        ref, start = _stacked_one_step_program(cs_next, control_set, d)
        got = model.prob
        for a, b in ((got.E.indptr, ref.E.indptr), (got.E.indices, ref.E.indices),
                     (got.E.data, ref.E.data),
                     (got.f, ref.f), (got.lb, ref.lb), (got.ub, ref.ub),
                     (got.c_obj, ref.c_obj), (got.row_scale, ref.row_scale)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert model.basis == start
    assert guidance._one_step_model(point, U, dyn).basis is None
    assert guidance._one_step_model(box8([1.0] * 8), U, dyn).basis is not None


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


def _assert_same_scan(got, ref, msg=""):
    """got and ref, answers of ``_scan``, name the same containing sets
    and k*, and their costs and c* agree within FEAS_TOL * max(1, |c|):
    a set's slice LP continues from the optimum of its last one, so a
    scan's costs depend on the scans before it, by rounding only."""
    if not isinstance(ref, guidance.HorizonQuery):
        assert got == ref, msg
        return
    assert isinstance(got, guidance.HorizonQuery), msg
    assert got.containment_indices == ref.containment_indices, msg
    assert got.k_star == ref.k_star, msg
    for c, r in zip([got.c_star, *got.costs.values()], [ref.c_star, *ref.costs.values()]):
        assert abs(c - r) <= FEAS_TOL * max(1.0, abs(r)), msg


def test_scan_and_step_are_independent_of_query_history(det_toy):
    # queries from state A first leave state B's containing sets, k* and
    # trajectory bitwise as they are when B is queried alone on a fresh
    # copy of the tube, and its costs equal within FEAS_TOL
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
    _assert_same_scan(hq_b, hq_alone)
    assert len(log_b.records) == len(log_alone.records)
    for r, q in zip(log_b.records, log_alone.records):
        assert r.k == q.k
        assert np.array_equal(r.state, q.state) and np.array_equal(r.control, q.control)
    assert np.array_equal(log_b.terminal_state, log_alone.terminal_state)


# -- kept Farkas rays --------------------------------------------------------

# the start offsets of the benchmark's det-guidance workload, per coordinate
JITTER = np.array([50.0, 50.0, 50.0, 3.0, 3.0, 3.0, 0.0])


def _scan(x, tube):
    """optimal_horizon's answer from x, "outside" when no set contains x,
    or "failure" when an LP of the scan fails its checks."""
    try:
        return optimal_horizon(x, tube)
    except NoContainmentError:
        return "outside"
    except LpError:
        return "failure"


def _jittered_starts(scn, seed, count):
    rng = np.random.default_rng(seed)
    return [scn.initial_state() + rng.uniform(-1.0, 1.0, 7) * JITTER for _ in range(count)]


def _boundary_starts(scn, tube):
    """(k, starts): starts within 2 SLICE_TOL on either side of CS_k's
    slice boundary along r1.  Bisected on a copy of CS_k, from the
    nominal start, inside CS_k, towards a start farther out along r1
    that CS_k rejects.  Between the last r1 whose slice LP ends optimal
    and the first whose slice LP is certified infeasible, the LP may
    fail its checks; both edges of that gap get starts."""
    inside = scn.initial_state()
    k = optimal_horizon(inside, _fresh(tube)).k_star
    Z = _fresh(tube).cs(k)

    def at(r1):
        x = inside.copy()
        x[0] = r1
        return x

    def verdict(r1):
        try:
            return "inside" if guidance._min_cost_at_state(Z, at(r1)) is not None else "outside"
        except LpError:
            return "failure"

    far = 1.0
    while verdict(inside[0] + far) != "outside":
        far *= 2.0
    starts = []
    for before in ({"inside"}, {"inside", "failure"}):
        lo, hi = inside[0], inside[0] + far
        while hi - lo > SLICE_TOL / 8:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if verdict(mid) in before else (lo, mid)
        starts += [at(lo), at(hi)]
        starts += [at(0.5 * (lo + hi) + t * SLICE_TOL) for t in (-2, -1, -0.5, 0.5, 1, 2)]
    return k, starts


def test_kept_rays_leave_every_scan_answer_as_a_fresh_tube_gives(det_toy):
    # a tube whose sets keep the rays and last optima of every scan
    # before gives each start the answer that a fresh copy of the tube
    # gives it, with costs equal within FEAS_TOL: over seeded
    # det-guidance starts, starts straddling a slice boundary, and starts
    # inside a set that an earlier start was rejected by
    scn, dyn, X, U, Xf, tube = det_toy
    k, edge = _boundary_starts(scn, tube)
    starts = _jittered_starts(scn, 17, 12) + edge + _jittered_starts(scn, 18, 12)
    carrying = _fresh(tube)
    rejected, inside_after_a_rejection, edge_holds = set(), set(), []
    for i, x in enumerate(starts):
        hq = _scan(x, carrying)
        _assert_same_scan(hq, _scan(x, _fresh(tube)), f"start {i}")
        held = set(hq.containment_indices) if isinstance(hq, guidance.HorizonQuery) else set()
        if hq != "failure":
            inside_after_a_rejection |= held & rejected
            rejected |= set(range(1, tube.N + 1)) - held
        if 12 <= i < 12 + len(edge):
            edge_holds.append(k in held)
    assert inside_after_a_rejection
    # the first boundary's starts fall on both sides of it
    assert edge_holds[:2] == [True, False] and True in edge_holds[2:8] and False in edge_holds[2:8]


def test_a_repeated_start_solves_only_its_containing_sets_lps(det_toy, monkeypatch):
    # once a start has been scanned, each set that rejected it holds a ray
    # that proves the rejection again, so the scan solves one LP per
    # containing set and none for the rest, and gives the first answer
    # again, its costs within FEAS_TOL
    scn, dyn, X, U, Xf, tube = det_toy
    carrying = _fresh(tube)
    starts = _jittered_starts(scn, 19, 4)
    first = [_scan(x, carrying) for x in starts]
    runs = []
    backend = lp.linprog

    def spy(prob, method="highs", basis=None):
        runs.append(prob.n_vars)
        return backend(prob, method, basis)

    monkeypatch.setattr(lp, "linprog", spy)
    for x, hq in zip(starts, first):
        assert hq is not None and len(hq.containment_indices) < tube.N
        runs.clear()
        _assert_same_scan(optimal_horizon(x, carrying), hq)
        assert len(runs) == len(hq.containment_indices)


# -- hot slice LPs ----------------------------------------------------------


def test_a_scan_sequence_repeats_bitwise_on_fresh_tubes(det_toy):
    # each set's slice LP continues from its last optimum, so a scan's
    # costs depend on the scans before it; the same sequence of scans on
    # two fresh copies of the tube gives bitwise the same answers
    scn, dyn, X, U, Xf, tube = det_toy
    starts = _jittered_starts(scn, 23, 10) + [scn.initial_state()] * 2
    first, second = _fresh(tube), _fresh(tube)
    answers = [_scan(x, first) for x in starts]
    assert any(isinstance(hq, guidance.HorizonQuery) for hq in answers)
    assert [_scan(x, second) for x in starts] == answers


def test_a_nearby_start_continues_from_the_last_slice_optimum(det_toy, monkeypatch):
    # after a scan, the same start again takes no simplex iteration in any
    # containing set's slice LP, and a nearby start fewer than the first
    # scan took in each
    scn, dyn, X, U, Xf, tube = det_toy
    runs = []
    backend = lp.linprog

    def spy(prob, method="highs", basis=None):
        run = backend(prob, method, basis)
        if run.status == lp.highs.HighsModelStatus.kOptimal:
            runs.append((prob.n_vars, run.nit))
        return run

    monkeypatch.setattr(lp, "linprog", spy)
    rng = np.random.default_rng(29)
    for _ in range(3):
        carrying = _fresh(tube)
        x = scn.initial_state() + rng.uniform(-1.0, 1.0, 7) * JITTER * 0.01
        nearby = x + rng.uniform(-1.0, 1.0, 7) * JITTER * 0.01
        scans = []
        for y in (x, x, nearby):
            runs.clear()
            hq = optimal_horizon(y, carrying)
            assert len(runs) == len(hq.containment_indices)
            scans.append(dict(runs))
        cold, repeated, near = scans
        assert min(cold.values()) > 0
        assert set(repeated.values()) == {0}
        assert near.keys() == cold.keys()
        assert all(near[n] < cold[n] for n in cold)


def test_threads_scanning_one_tube_give_the_serial_answers(det_toy):
    # more threads than cores scan the same starts on one tube, half of
    # them in reverse order, while each set's slice LPs start from
    # whichever optimum another thread left: every answer names the
    # containing sets and k* that one thread scanning a fresh tube gives,
    # with costs within FEAS_TOL
    scn, dyn, X, U, Xf, tube = det_toy
    starts = _jittered_starts(scn, 31, 8)
    serial_tube = _fresh(tube)
    serial = [_scan(x, serial_tube) for x in starts]
    shared = _fresh(tube)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        barrier.wait(timeout=10)
        order = starts if i % 2 == 0 else starts[::-1]
        answers = [_scan(x, shared) for x in order]
        results[i] = answers if i % 2 == 0 else answers[::-1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert any(isinstance(hq, guidance.HorizonQuery) for hq in serial)
    for answers in results:
        for i, (got, ref) in enumerate(zip(answers, serial)):
            _assert_same_scan(got, ref, f"start {i}")


def test_kept_rays_are_checked_as_on_the_built_slice(det_toy, monkeypatch):
    # each set's kept rays, checked for seeded and slice-boundary starts
    # with no slice built, give exactly the verdicts of farkas_certifies
    # on the built slice's program; a start that a kept ray settles
    # builds no slice
    scn, dyn, X, U, Xf, tube = det_toy
    k, edge = _boundary_starts(scn, tube)
    starts = _jittered_starts(scn, 17, 12) + edge
    carrying = _fresh(tube)
    for x in starts:
        _scan(x, carrying)
    dims, key = np.arange(7), (tuple(range(7)), SLICE_TOL)
    families = [(Z, Z._slice_families[key]) for Z in carrying.sets if key in Z._slice_families]
    assert families
    verdicts = set()
    for Z, family in families:
        for x in starts:
            program = Z.slice(dims, x, SLICE_TOL)._support_program()
            for ray in family.rays:
                verdict = family.settle(x - Z.c[dims], [ray])
                assert verdict == lp.farkas_certifies(program, ray.y)
                verdicts.add(verdict)
    assert verdicts == {True, False}
    sliced = []
    build = ConstrainedZonotope.slice

    def slice_spy(self, *args, **kwargs):
        sliced.append(id(self))
        return build(self, *args, **kwargs)

    monkeypatch.setattr(ConstrainedZonotope, "slice", slice_spy)
    settled_any = False
    for x in starts:
        settled = {id(Z) for Z, family in families if family.settle(x - Z.c[dims], family.rays)}
        settled_any |= bool(settled)
        sliced.clear()
        _scan(x, carrying)
        assert not settled & set(sliced)
    assert settled_any


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


def _identity_dynamics():
    """x+ = x: every coordinate is translation-invariant."""
    return DiscreteDynamics(A=np.eye(8), B=np.zeros((8, 4)), d=np.zeros(8), dt=1.0)


def test_instantaneous_reachable_reflection():
    half = np.array([3.0, 3.0, 5, 5, 5, 5, 5, 5])
    center = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])
    tube = ControllableTube(
        [ConstrainedZonotope(np.diag(half), center)], 1.0, "deterministic"
    )
    x_hat_k = np.array([10.0, 0.0])
    x_hat_f = np.array([3.0, 3.0])
    R = instantaneous_reachable(x_hat_k, np.zeros(6), tube, 1, x_hat_f,
                                dyn=_identity_dynamics())
    lo, hi = R.interval_hull()
    # reflection of [-2,4]x[-2,4] about the shifted origin (13, 3)
    assert np.allclose(lo, [13.0 - 4.0, 3.0 - 4.0], atol=1e-9)
    assert np.allclose(hi, [13.0 + 2.0, 3.0 + 2.0], atol=1e-9)


def test_instantaneous_reachable_guards():
    tube = ControllableTube([box8([1.0] * 8)], 1.0, "deterministic")
    with pytest.raises(EmptySliceError):
        instantaneous_reachable(
            np.zeros(2), np.full(6, 50.0), tube, 1, np.zeros(2), dyn=_identity_dynamics()
        )
    coupled = _identity_dynamics()
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
    # basis, recorded as the footprint's start; supports and extreme
    # points equal cold solves
    scn, dyn, X, U, Xf, tube = det_toy
    rng = np.random.default_rng(41)
    footprints = _footprints(_fresh(tube), U, dyn, scn)
    assert len(footprints) >= 3
    for _, R in footprints:
        assert R._start is not None
        cold = ConstrainedZonotope(R.G, R.c, R.A, R.b)
        assert cold._start is None
        for _ in range(6):
            eta = rng.normal(size=2)
            scale = max(1.0, abs(cold.support(eta)))
            assert abs(R.support(eta) - cold.support(eta)) <= FEAS_TOL * scale
            gap = np.linalg.norm(R.extreme_point(eta) - cold.extreme_point(eta))
            assert gap <= FEAS_TOL * scale


def test_footprint_repeats_for_one_direction_order(det_toy):
    # a footprint's sweep continues from each direction's optimum, so its
    # points depend on the order of the directions: the same order on two
    # fresh tubes gives bitwise-identical points, and the reversed order
    # points of the same support within the cold-start bounds (an axis
    # direction may meet a face of the footprint, whose points all are
    # extreme in it)
    scn, dyn, X, U, Xf, tube = det_toy
    angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    etas = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    forward = _footprints(_fresh(tube), U, dyn, scn)
    again = _footprints(_fresh(tube), U, dyn, scn)
    backward = _footprints(_fresh(tube), U, dyn, scn)
    for (_, R1), (_, R2), (_, R3) in zip(forward, again, backward):
        p1 = [R1.extreme_point(eta) for eta in etas]
        p2 = [R2.extreme_point(eta) for eta in etas]
        p3 = [R3.extreme_point(eta) for eta in reversed(etas)][::-1]
        for eta, a, b, c in zip(etas, p1, p2, p3):
            assert np.array_equal(a, b)
            scale = max(1.0, abs(R1.support(eta)))
            assert abs(eta @ a - eta @ c) <= FEAS_TOL * scale


def test_footprint_outside_the_set_is_a_certified_empty_slice(det_toy, monkeypatch):
    # a cost below the least one at this state leaves the slice empty;
    # the warm reference LP proves it with a checked Farkas ray
    scn, dyn, X, U, Xf, tube = det_toy
    fresh = _fresh(tube)
    rec = forward_rollout(scn.initial_state(), fresh, U, dyn).records[0]
    verdicts = []
    farkas = lp.farkas_certifies

    def spy(prob, ray):
        verdicts.append(farkas(prob, ray))
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


@pytest.mark.parametrize("offset", [[8.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_ddto_runs_cold_only_its_containment_lps(det_toy, monkeypatch, offset):
    # the effective sets start from the tube sets' bases, so every LP of
    # a deferred rollout, before and after a branch, starts warm but for
    # the containment checks
    scn, dyn, X, U, Xf, tube = det_toy
    fresh = _fresh(tube)
    runs, in_containment = [], []
    backend = lp.linprog
    residual = ConstrainedZonotope.containment_residual

    def spy(prob, method="highs", basis=None):
        runs.append((basis is not None, bool(in_containment)))
        return backend(prob, method, basis)

    def containment_spy(self, y):
        in_containment.append(True)
        try:
            return residual(self, y)
        finally:
            in_containment.pop()

    monkeypatch.setattr(lp, "linprog", spy)
    monkeypatch.setattr(ConstrainedZonotope, "containment_residual", containment_spy)
    log = ddto_rollout(scn.initial_state(), fresh, np.array(offset), U, dyn)
    assert (log.branch_step is None) is (not any(offset))
    assert sum(warm for warm, _ in runs) > tube.N
    assert [contained for warm, contained in runs if not warm] == [True]


def test_ddto_rejects_a_start_that_is_not_the_physical_state(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    start = np.concatenate([scn.initial_state(), [0.0]])
    with pytest.raises(ValueError, match="7-dim physical state"):
        ddto_rollout(start, tube, np.array([8.0, 0.0, 0.0]), U, dyn)


@pytest.mark.parametrize("offset", [[5.0], [5.0, 0.0], [5.0, 0.0, 0.0, 0.0]])
def test_ddto_rejects_an_offset_without_3_entries(det_toy, offset):
    scn, dyn, X, U, Xf, tube = det_toy
    with pytest.raises(ValueError, match="3 entries"):
        ddto_rollout(scn.initial_state(), tube, offset, U, dyn)


def test_ddto_unreachable_backup_rejected(det_toy):
    scn, dyn, X, U, Xf, tube = det_toy
    with pytest.raises(NoContainmentError):
        ddto_rollout(scn.initial_state(), tube, np.array([1e6, 0.0, 0.0]), U, dyn)


def test_rollout_lps_each_build_their_own_model(det_toy, monkeypatch):
    # the scan's slice LPs, the one-step LPs and the final containment LP
    # each change rows or column bounds, so none runs on the model that
    # the LP before it left
    scn, dyn, X, U, Xf, tube = det_toy
    fresh = _fresh(tube)  # no kept rays, so the scan solves all N slice LPs
    runs, builds = [], []
    backend, build = lp.linprog, lp._fresh_model

    def run_spy(prob, method="highs", basis=None):
        runs.append(prob.n_vars)
        return backend(prob, method, basis)

    def build_spy(prob, options):
        builds.append(prob.n_vars)
        return build(prob, options)

    monkeypatch.setattr(lp, "linprog", run_spy)
    monkeypatch.setattr(lp, "_fresh_model", build_spy)
    log = forward_rollout(scn.initial_state(), fresh, U, dyn)
    # the scan's N slices, one LP per step, and the containment LP last
    assert log.records and len(runs) >= tube.N + len(log.records) + 1
    assert runs[-1] == tube.cs(tube.N).n_generators + 1
    assert builds == runs


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


def test_pool_size_follows_the_usable_cpus_and_names_a_bad_setting(monkeypatch):
    # with CZTUBE_THREADS unset the pool has one worker per CPU this
    # process may run on (one under `taskset -c 0` on a 2-CPU machine),
    # not one per CPU of the machine
    monkeypatch.delenv("CZTUBE_THREADS", raising=False)
    monkeypatch.setattr(guidance.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(guidance.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert guidance._thread_count() == 1
    monkeypatch.setenv("CZTUBE_THREADS", "3")
    assert guidance._thread_count() == 3
    # a count below 1 is as bad a setting as a word, not one worker
    for bad in ("abc", "0", "-2"):
        monkeypatch.setenv("CZTUBE_THREADS", bad)
        with pytest.raises(ValueError, match="CZTUBE_THREADS"):
            guidance._thread_count()


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


def test_monte_carlo_on_a_reloaded_tube_steers_into_its_stored_targets(robust_toy, tmp_path):
    # the tube file carries the eroded targets, so monte_carlo on the
    # reloaded tube, given no targets, runs the trials of the build's own
    scn, dyn, model, sched, U_rob, Tf, tube, sink = robust_toy
    path = tmp_path / "rob.cztb"
    serialize_tube(tube, path)
    back = deserialize_tube(path)
    a = monte_carlo(
        scn, tube, model, sched, U_rob, Tf, dyn, trials=3, master_seed=11, eroded=sink
    )
    b = monte_carlo(scn, back, model, sched, U_rob, Tf, dyn, trials=3, master_seed=11)
    for ra, rb in zip(a.results, b.results):
        assert (ra.success, ra.fuel_kg, ra.failure_step) == (rb.success, rb.fuel_kg, rb.failure_step)
        assert np.array_equal(ra.terminal_state, rb.terminal_state)


def test_monte_carlo_asks_for_a_rebuild_before_any_lp_without_targets(robust_toy,
                                                                       monkeypatch):
    scn, dyn, model, sched, U_rob, Tf, tube, sink = robust_toy
    bare = ControllableTube(tube.sets, tube.dt, "robust", tube.scenario_hash)
    lps = []
    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: lps.append(args))
    for tube_, eroded in ((bare, None), (tube, {1: sink[1]})):
        with pytest.raises(ValueError, match="rebuild .*build-tube"):
            monte_carlo(scn, tube_, model, sched, U_rob, Tf, dyn, trials=2, master_seed=11,
                        eroded=eroded)
    assert lps == []


def test_monte_carlo_settles_fresh_targets_once(robust_toy, monkeypatch):
    # unsettled copies of the eroded targets give the trials of the
    # settled ones; each is settled once, by the first trial to reach it
    scn, dyn, model, sched, U_rob, Tf, tube, sink = robust_toy
    monkeypatch.setenv("CZTUBE_THREADS", "2")
    settled = monte_carlo(scn, tube, model, sched, U_rob, Tf, dyn, trials=4, master_seed=11,
                          eroded=sink)
    fresh = {k: ConstrainedZonotope(Z.G, Z.c, Z.A, Z.b) for k, Z in sink.items()}
    calls = []
    settle = ConstrainedZonotope._settle_emptiness

    def spy(self):
        calls.append(id(self))
        return settle(self)

    monkeypatch.setattr(ConstrainedZonotope, "_settle_emptiness", spy)
    mc = monte_carlo(scn, tube, model, sched, U_rob, Tf, dyn, trials=4, master_seed=11,
                     eroded=fresh)
    assert sorted(calls) == sorted(id(Z) for Z in fresh.values())
    for ra, rb in zip(settled.results, mc.results):
        assert (ra.success, ra.fuel_kg, ra.failure_step) == (rb.success, rb.fuel_kg, rb.failure_step)
        assert np.array_equal(ra.terminal_state, rb.terminal_state)


def test_monte_carlo_runs_without_an_execution_noise_channel(robust_toy):
    # a model with no execution-noise channel draws no w_u (NumPy cannot
    # sample a 0-dim normal); the toy's tube, built for more noise, serves
    scn, dyn, model, sched, U_rob, Tf, tube, sink = robust_toy
    no_exec = UncertaintyModel(E_w_u=np.zeros((4, 0)), E_w_x=model.E_w_x,
                               Sigma_u=np.zeros((0, 0)), sigma_x_fn=model.sigma_x_fn,
                               lam=model.lam)
    mc = monte_carlo(scn, tube, no_exec, sched, U_rob, Tf, dyn, trials=2, master_seed=11,
                     eroded=sink)
    assert [r.trial for r in mc.results] == [0, 1]
    assert mc.successes == 2


def test_monte_carlo_draws_are_numpys_multivariate_normal_draws(robust_toy, monkeypatch):
    # each covariance is factored once per call, and every draw from its
    # factor is bitwise NumPy's multivariate_normal draw, leaving the
    # stream where it leaves it; a covariance that is not positive
    # semidefinite still warns, once, when it is factored
    scn, dyn, model, sched, U_rob, Tf, tube, sink = robust_toy
    covariances = [model.sigma_x(k, tube.N) for k in range(1, tube.N)] + [model.Sigma_u]
    for i, cov in enumerate(covariances):
        factor = guidance._normal_factor(cov)
        ours, numpys = np.random.default_rng([5, i]), np.random.default_rng([5, i])
        for _ in range(4):
            got = guidance._draw(ours, factor)
            want = numpys.multivariate_normal(np.zeros(cov.shape[0]), cov)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == numpys.bit_generator.state
    with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
        guidance._normal_factor(np.diag([1.0, -1.0]))
    factored = []
    factor = guidance._normal_factor

    def spy(cov):
        factored.append(cov)
        return factor(cov)

    monkeypatch.setattr(guidance, "_normal_factor", spy)
    monte_carlo(scn, tube, model, sched, U_rob, Tf, dyn, trials=3, master_seed=5, eroded=sink)
    assert len(factored) == len(covariances)


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
