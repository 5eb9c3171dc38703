"""Online guidance algorithms over a precomputed controllable tube.

Containment of the current state in a tube set certifies that the
terminal set is reachable in the remaining steps, so the online work
reduces to: find the best start index (optimal horizon), then repeatedly
solve a one-step LP that steers into the next tube set while minimizing
the cost-to-go.  Also provides the instantaneous reachable set in the
translation-invariant horizontal subspace, a decision-deferral rollout
that keeps two landing sites reachable as long as possible, and a
Monte Carlo harness for the robust configuration.

The horizon scan and the one-step LPs are warm-started.  Across queries
each of these LPs keeps its matrix and objective, and only the pinned
physical state changes, so dual simplex starts from an optimal basis of
the same LP with the state left free.  That basis is assembled from the
canonical basis (``ConstrainedZonotope.basis``) that every tube set
carries from the build, where its emptiness check leaves it, or from the
tube file, and for the one-step LP from the control set's, which
``landing.build_control_set`` settles.  A query only reads these bases,
never computes one, and never takes a basis from a previous query, so
every answer is independent of the order of the queries before it.  The
divert footprint (``instantaneous_reachable``) settles the emptiness of
its slice with the slice's min-cost support LP, warm from the same
basis, and every support LP of the footprint starts from that LP's
optimal basis, which is primal feasible for all of them.  Sets made
online, such as the effective sets of ``ddto_rollout``, carry no basis
and are queried cold, but for the min-cost basis that an emptiness
check leaves behind.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from .czset import ConstrainedZonotope, EmptySetError, min_cost_direction
from .landing import STATE_DIM, DiscreteDynamics, LandingScenario
from .lp import BASIC, NONBASIC, LinearProgram, LpBasis, LpError, LpStatus, solve_lp
from .tube import ControllableTube, eroded_target
from .uncertainty import DisturbanceSchedule, UncertaintyModel

SLICE_TOL = 1e-6
START_TOL = 1e-6
TIE_TOL = 1e-9


class NoContainmentError(Exception):
    """The queried state is outside every tube set."""


class InfeasibleError(Exception):
    """A guidance LP is infeasible."""


class EmptySliceError(Exception):
    """The current non-cyclic state lies outside the tube set's projection."""


@dataclass
class HorizonQuery:
    containment_indices: List[int]
    costs: dict
    k_star: int
    c_star: float


@dataclass
class StepRecord:
    k: int
    state: np.ndarray
    control: np.ndarray


@dataclass
class RolloutLog:
    start_index: int
    records: List[StepRecord]
    terminal_state: np.ndarray
    total_cost: float
    branch_step: Optional[int] = None

    def sigma_gap(self) -> float:
        """Max relative slack of the magnitude relaxation over the rollout."""
        worst = 0.0
        for rec in self.records:
            sigma = rec.control[3]
            if sigma > 0:
                worst = max(worst, (sigma - float(np.linalg.norm(rec.control[:3]))) / sigma)
        return worst


# -- optimal horizon -------------------------------------------------------


def _min_cost_at_state(cs: ConstrainedZonotope, x_i: np.ndarray, tol: float = SLICE_TOL):
    """Left endpoint of the cost interval of CS sliced at the physical state,
    or None when the state is not contained.

    The support query on the slice warm-starts from CS's canonical
    min-cost basis when CS carries one."""
    sliced = cs.slice(np.arange(STATE_DIM - 1), x_i, tol=tol)
    try:
        return -sliced.support(min_cost_direction(STATE_DIM))
    except EmptySetError:
        return None


def _horizon_scan(sets, x_i: np.ndarray, tol: float, outside: str) -> HorizonQuery:
    """Cheapest containing index among sets (sets[k-1] is index k); cost
    ties go to the larger index.  Raises NoContainmentError(outside)
    when no set contains the state."""
    costs = {}
    for k, cs in enumerate(sets, start=1):
        c_k = _min_cost_at_state(cs, x_i, tol=tol)
        if c_k is not None:
            costs[k] = c_k
    if not costs:
        raise NoContainmentError(outside)
    c_star = min(costs.values())
    k_star = max(k for k, v in costs.items() if v <= c_star + TIE_TOL)
    return HorizonQuery(sorted(costs), costs, k_star, c_star)


def optimal_horizon(x_i, tube: ControllableTube, tol: float = SLICE_TOL) -> HorizonQuery:
    """Best tube index to enter from the physical state (r, v, z).

    Scans every index for containment, reads off the minimum achievable
    cost-to-go at each, and picks the cheapest; cost ties go to the
    larger index (shorter remaining horizon).
    """
    x_i = np.asarray(x_i, dtype=float).ravel()
    if x_i.size != STATE_DIM - 1:
        raise ValueError("horizon query expects the 7-dim physical state")
    return _horizon_scan(tube.sets, x_i, tol, "initial state is outside every controllable set")


# -- one-step optimal control ---------------------------------------------


@dataclass
class _OneStepModel:
    """The one-step LP into one tube set for one control set and dynamics,
    with the physical state as free columns.

    With the state free, the 8 state columns meet the 8 dynamics rows
    whatever the latents are, so the LP splits into two support LPs, with
    w = A^-T e_8: the next set's in direction -w and the control set's in
    direction B'w.  The start (``basis``) joins the two sets' canonical
    bases, with the state columns basic and the dynamics rows nonbasic.
    When the cost row of A is e_8', as in ``landing.discretize`` and its
    worst-case variant, w = e_8: -w is the min-cost direction and B'w a
    nonnegative multiple of the control set's, so the start is an optimal
    basis of the state-free LP, with dual weights w on the dynamics rows,
    and dual feasible for every pinned state.  For other dynamics it is
    still a basis, as the state columns meet an invertible A, but not
    dual feasible, and simplex goes further from it.

    The control set and dynamics are held so that the ids keying the
    model on the tube set stay theirs."""

    control_set: ConstrainedZonotope
    dyn: DiscreteDynamics
    prob: LinearProgram

    def basis(self, cs_next: ConstrainedZonotope) -> Optional[LpBasis]:
        """The starting basis, or None when cs_next or the control set
        carries no basis."""
        b_next = cs_next.basis()
        b_u = self.control_set.basis()
        if b_next is None or b_u is None:
            return None
        return LpBasis(
            b_u.cols + b_next.cols + (BASIC,) * STATE_DIM,
            (NONBASIC,) * STATE_DIM + b_u.rows + b_next.rows,
        )


def _one_step_model(cs_next, control_set, dyn) -> _OneStepModel:
    Gu, cu, Au, bu = control_set.G, control_set.c, control_set.A, control_set.b
    Gn, cn, An, bn = cs_next.G, cs_next.c, cs_next.A, cs_next.b
    n_u, n_n, n_x = Gu.shape[1], Gn.shape[1], STATE_DIM - 1
    # variables: [xi_u (n_u), xi_next (n_n), c_k, x_phys (7)]
    nv = n_u + n_n + 1 + n_x
    c_obj = np.zeros(nv)
    c_obj[n_u + n_n] = 1.0
    # dynamics/membership: A x + B(Gu xi_u + cu) + d = Gn xi_next + cn
    # with x = (x_phys, c_k):  B Gu xi_u - Gn xi_next + A[:, -1] c_k
    #                          + A[:, :7] x_phys = cn - d - B cu
    lhs = sp.hstack(
        [
            sp.csr_matrix(dyn.B @ Gu),
            sp.csr_matrix(-Gn),
            sp.csr_matrix(dyn.A[:, -1][:, None]),
            sp.csr_matrix(dyn.A[:, :n_x]),
        ],
        format="csr",
    )
    E = sp.vstack(
        [
            lhs,
            sp.hstack([Au, sp.csr_matrix((Au.shape[0], n_n + 1 + n_x))], format="csr"),
            sp.hstack(
                [sp.csr_matrix((An.shape[0], n_u)), An, sp.csr_matrix((An.shape[0], 1 + n_x))],
                format="csr",
            ),
        ],
        format="csr",
    )
    f = np.concatenate([cn - dyn.d - dyn.B @ cu, bu, bn])
    lb = np.concatenate([-np.ones(n_u + n_n), np.full(1 + n_x, -np.inf)])
    ub = np.concatenate([np.ones(n_u + n_n), np.full(1 + n_x, np.inf)])
    prob = LinearProgram(c_obj, E, f, lb=lb, ub=ub)
    # settles the control set's basis; a cache hit for every set that
    # landing.build_control_set made
    control_set.is_empty()
    return _OneStepModel(control_set, dyn, prob)


def one_step_ocp(
    x_k,
    cs_next: ConstrainedZonotope,
    control_set: ConstrainedZonotope,
    dyn: DiscreteDynamics,
):
    """Minimize the cost-to-go subject to landing in the next tube set.

    Variables are the control-set latents, the next-set latents, the
    current cost-to-go c_k and the physical part of the current state,
    fixed by its bounds (lb = ub = x), so the LP's matrix and objective
    do not depend on the state; it is built once per (cs_next,
    control_set, dyn) and memoized on cs_next.  When cs_next and the
    control set carry their canonical bases, the query warm-starts from
    a basis assembled from them (``_OneStepModel``): for the landing
    dynamics an optimal basis of the same LP with the state free, dual
    feasible for every state.  Returns (control, next_state, c_k).
    """
    x_k = np.asarray(x_k, dtype=float).ravel()
    x_phys = x_k[: STATE_DIM - 1]
    model = cs_next.cached(
        ("one_step", id(control_set), id(dyn)),
        lambda: _one_step_model(cs_next, control_set, dyn),
    )
    canon = model.prob
    n_u = control_set.n_generators
    i_c = canon.n_vars - STATE_DIM
    lb = canon.lb.copy()
    ub = canon.ub.copy()
    lb[i_c + 1 :] = ub[i_c + 1 :] = x_phys
    prob = LinearProgram(canon.c_obj, canon.E, canon.f, lb=lb, ub=ub)
    sol = solve_lp(prob, basis=model.basis(cs_next))
    if sol.status == LpStatus.INFEASIBLE:
        raise InfeasibleError("one-step control problem is infeasible from this state")
    if sol.status != LpStatus.OPTIMAL:
        raise LpError(f"one-step control LP ended with status {sol.status}")
    xi_u = sol.x_opt[:n_u]
    c_k = float(sol.x_opt[i_c])
    control = control_set.G @ xi_u + control_set.c
    state = np.concatenate([x_phys, [c_k]])
    next_state = dyn.step(state, control)
    return control, next_state, c_k


# -- forward rollout -------------------------------------------------------


def forward_rollout(
    x_i,
    tube: ControllableTube,
    control_set: ConstrainedZonotope,
    dyn: DiscreteDynamics,
    start: Optional[HorizonQuery] = None,
) -> RolloutLog:
    """Roll the one-step controller from the optimal start index to CS_N."""
    hq = optimal_horizon(x_i, tube) if start is None else start
    state = np.concatenate([np.asarray(x_i, dtype=float).ravel(), [hq.c_star]])
    records = []
    total_cost = hq.c_star
    for k in range(hq.k_star, tube.N):
        control, next_state, c_k = one_step_ocp(state, tube.cs(k + 1), control_set, dyn)
        state[-1] = c_k
        records.append(StepRecord(k, state.copy(), control))
        if k == hq.k_star:
            total_cost = c_k
        state = next_state
    if not tube.cs(tube.N).contains_point(state, tol=START_TOL):
        raise InfeasibleError("rollout did not end inside the terminal tube set")
    return RolloutLog(hq.k_star, records, state, total_cost)


# -- full-horizon oracle ---------------------------------------------------


def full_horizon_oracle(
    x_i,
    n_steps: int,
    dyn: DiscreteDynamics,
    state_set: ConstrainedZonotope,
    control_set: ConstrainedZonotope,
    terminal_set: ConstrainedZonotope,
    fixed_cost: Optional[float] = None,
):
    """Single LP over a whole fixed-step trajectory; the reference answer
    that the tube pipeline is checked against.

    Minimizes the initial cost-to-go (or just checks feasibility when
    fixed_cost is given).  Path constraints bind at every step except
    the terminal one, matching the backward recursion's convention.
    Returns (cost, states (n_steps+1) x 8, controls n_steps x 4) or
    raises InfeasibleError.
    """
    x_i = np.asarray(x_i, dtype=float).ravel()
    T = n_steps
    GX, cX, AX, bX = state_set.G, state_set.c, state_set.A, state_set.b
    Gu, cu, Au, bu = control_set.G, control_set.c, control_set.A, control_set.b
    Gf, cf, Af, bf = terminal_set.G, terminal_set.c, terminal_set.A, terminal_set.b
    ngX, ngu, ngf = GX.shape[1], Gu.shape[1], Gf.shape[1]
    n = STATE_DIM
    # variable layout: y_1..y_{T+1} | xi_X,1..T | xi_u,1..T | xi_f
    off_u = n * (T + 1) + ngX * T
    nv = off_u + ngu * T + ngf
    at_k, at_next = sp.eye(T, T + 1), sp.eye(T, T + 1, k=1)

    def over(M, below):
        """M above as many zero rows as ``below`` has."""
        return sp.vstack([sp.csr_matrix(M), sp.csr_matrix((below.shape[0], M.shape[1]))])

    fixed = [] if fixed_cost is None else [float(fixed_cost)]
    E = sp.bmat(
        [
            # initial physical state, and the cost-to-go when it is fixed
            [sp.eye(n - 1 + len(fixed), n * (T + 1)), None, None, None],
            # dynamics: y_{k+1} - A y_k - B Gu xi_u,k = d + B cu, with
            # Au xi_u,k = bu  (k = 1..T)
            [sp.kron(at_next, over(np.eye(n), Au)) + sp.kron(at_k, over(-dyn.A, Au)),
             None, sp.kron(sp.eye(T), sp.vstack([sp.csr_matrix(-dyn.B @ Gu), Au])), None],
            # path membership: y_k = GX xi_X,k + cX, AX xi_X,k = bX  (k = 1..T)
            [sp.kron(at_k, over(np.eye(n), AX)),
             sp.kron(sp.eye(T), sp.vstack([sp.csr_matrix(-GX), AX])), None, None],
            # terminal membership
            [sp.kron(sp.eye(1, T + 1, k=T), over(np.eye(n), Af)),
             None, None, sp.vstack([sp.csr_matrix(-Gf), Af])],
        ],
        format="csr",
    )
    E.eliminate_zeros()
    f = np.concatenate([
        x_i[: n - 1], fixed,
        np.tile(np.concatenate([dyn.d + dyn.B @ cu, bu]), T),
        np.tile(np.concatenate([cX, bX]), T),
        cf, bf,
    ])
    lb = np.concatenate([np.full(n * (T + 1), -np.inf), -np.ones(nv - n * (T + 1))])
    ub = np.concatenate([np.full(n * (T + 1), np.inf), np.ones(nv - n * (T + 1))])
    c_obj = np.zeros(nv)
    if fixed_cost is None:
        c_obj[n - 1] = 1.0
    sol = solve_lp(LinearProgram(c_obj, E, f, lb=lb, ub=ub))
    if sol.status == LpStatus.INFEASIBLE:
        raise InfeasibleError(f"no feasible {T}-step trajectory from this state")
    if sol.status != LpStatus.OPTIMAL:
        raise LpError(f"full-horizon LP ended with status {sol.status}")
    Y = sol.x_opt[: n * (T + 1)].reshape(T + 1, n)
    xi_u = sol.x_opt[off_u : off_u + ngu * T].reshape(T, ngu) if T else np.zeros((0, ngu))
    U = xi_u @ Gu.T + cu
    cost = float(Y[0, -1])
    return cost, Y, U


# -- instantaneous reachable set ------------------------------------------


def check_translation_invariant(dyn: DiscreteDynamics, dims) -> bool:
    """The given state coordinates may be freely translated iff their columns
    of A are the matching standard basis vectors."""
    for d in dims:
        col = dyn.A[:, d]
        e = np.zeros(col.size)
        e[d] = 1.0
        if not np.array_equal(col, e):
            return False
    return True


def instantaneous_reachable(
    x_hat_k,
    x_comp_k,
    tube: ControllableTube,
    k: int,
    x_hat_f,
    cyclic_dims=(0, 1),
    dyn: Optional[DiscreteDynamics] = None,
    tol: float = SLICE_TOL,
) -> ConstrainedZonotope:
    """Terminal-subspace points reachable from the current state at index k.

    Slices the tube set at the current non-cyclic state, projects onto
    the cyclic coordinates, and reflects the result about the current
    cyclic position shifted to the target: x_hat_k + (-S) + x_hat_f.

    One LP, the slice's support LP in the min-cost direction, settles
    whether the slice is empty.  It warm-starts from the tube set's
    canonical basis, and its optimal basis is the slice's latent basis:
    the projection and reflection keep the slice's latent LP, so every
    support query on the result warm-starts from it
    (``ConstrainedZonotope.latent_basis``).
    """
    cyclic = np.asarray(cyclic_dims, dtype=int)
    comp = np.array([i for i in range(STATE_DIM) if i not in set(cyclic.tolist())])
    x_hat_k = np.asarray(x_hat_k, dtype=float).ravel()
    x_comp_k = np.asarray(x_comp_k, dtype=float).ravel()
    x_hat_f = np.asarray(x_hat_f, dtype=float).ravel()
    if dyn is not None and not check_translation_invariant(dyn, cyclic):
        raise ValueError("cyclic coordinates are not translation-invariant")
    cs = tube.cs(k)
    sliced = cs.slice(comp, x_comp_k, tol=tol)
    if sliced.is_empty():
        raise EmptySliceError(
            f"non-cyclic state is outside the step-{k} controllable set"
        )
    S = sliced.project(cyclic)
    m = cyclic.size
    return S.affine_map(-np.eye(m), x_hat_k + x_hat_f)


# -- decision-deferral rollout --------------------------------------------


def _embed_offset(offset3) -> np.ndarray:
    delta = np.zeros(STATE_DIM)
    delta[0:3] = np.asarray(offset3, dtype=float).ravel()
    return delta


def effective_tube_set(tube: ControllableTube, k: int, delta: np.ndarray) -> ConstrainedZonotope:
    """CS_k intersected with its backup-site translation."""
    cs = tube.cs(k)
    return cs.intersect(cs.translate(delta))


def ddto_rollout(
    x_i,
    tube: ControllableTube,
    backup_offset,
    control_set: ConstrainedZonotope,
    dyn: DiscreteDynamics,
) -> RolloutLog:
    """Rollout that defers the landing-site decision.

    Steers inside the intersection of the nominal tube and its translate
    toward the backup site, keeping both sites reachable; the first time
    the current state leaves the intersection, the intersection empties,
    or the one-step problem fails, it branches (once) back onto the
    nominal tube and finishes there.  Checking membership of the current
    state (not just next-step feasibility) is what keeps both sites
    inside the divert envelope at every pre-branch step: a state can
    still steer into the next intersection while already violating the
    backup site's translated path constraints.
    """
    x_i = np.asarray(x_i, dtype=float).ravel()
    delta = _embed_offset(backup_offset)
    # made once per call, with no canonical basis: a call queries each at
    # most a few times, too few to repay a solve for one.  A deferred
    # step's emptiness check of its target runs the min-cost support LP,
    # and so leaves the target's min-cost basis for the next step's slice
    # of it.
    eff = [effective_tube_set(tube, k, delta) for k in range(1, tube.N + 1)]
    hq = _horizon_scan(eff, x_i, SLICE_TOL, "initial state is outside the effective tube")
    k_start, c_star = hq.k_star, hq.c_star

    state = np.concatenate([x_i, [c_star]])
    records = []
    total_cost = c_star
    branched = False
    branch_step = None
    k = k_start
    while k < tube.N:
        step_result = None
        if branched:
            step_result = one_step_ocp(state, tube.cs(k + 1), control_set, dyn)
        else:
            # defer only while the current state is still inside the
            # intersection (both sites' path constraints hold right now)
            c_here = _min_cost_at_state(eff[k - 1], state[: STATE_DIM - 1])
            if c_here is not None:
                target = eff[k]
                if not target.is_empty():
                    try:
                        step_result = one_step_ocp(state, target, control_set, dyn)
                    except InfeasibleError:
                        step_result = None
        if step_result is None:
            # intersection died or the deferred step failed: branch once,
            # re-enter the nominal tube at the best index for this state
            branched = True
            branch_step = k
            hq = optimal_horizon(state[: STATE_DIM - 1], tube)
            k = hq.k_star
            state[-1] = hq.c_star
            continue
        control, next_state, c_k = step_result
        state[-1] = c_k
        records.append(StepRecord(k, state.copy(), control))
        if not records[:-1]:
            total_cost = c_k
        state = next_state
        k += 1
    if not tube.cs(tube.N).contains_point(state, tol=START_TOL):
        raise InfeasibleError("deferred rollout did not end inside the terminal set")
    return RolloutLog(k_start, records, state, total_cost, branch_step)


# -- Monte Carlo -----------------------------------------------------------


@dataclass
class TrialResult:
    trial: int
    seed: int
    success: bool
    terminal_state: Optional[np.ndarray]
    fuel_kg: Optional[float]
    failure_step: Optional[int] = None


@dataclass
class MonteCarloSummary:
    trials: int
    successes: int
    results: List[TrialResult]


def _thread_count() -> int:
    env = os.environ.get("CZTUBE_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def monte_carlo(
    scn: LandingScenario,
    tube: ControllableTube,
    model: UncertaintyModel,
    schedule: DisturbanceSchedule,
    control_set_robust: ConstrainedZonotope,
    terminal_set_fulldim: ConstrainedZonotope,
    dyn: DiscreteDynamics,
    trials: int,
    master_seed: int,
    eroded: Optional[Dict[int, ConstrainedZonotope]] = None,
) -> MonteCarloSummary:
    """Closed-loop trials under sampled Gaussian noise, fixed final time.

    The controller sees a noisy state estimate and steers into the
    disturbance-eroded next tube set; the applied control carries
    execution noise and the true state follows the nominal dynamics.
    Success requires the true terminal state inside the full-dimensional
    terminal set.  Each trial's random stream depends only on
    (master_seed, trial index), so results are order-independent.

    eroded may carry the per-step disturbance-eroded targets captured
    during the tube build (eroded[k] inner-approximates the tube's step
    k+1 set minus the step-k disturbance); missing entries are computed.
    Every trial steers into every target, so each target is checked for
    emptiness once before the trials, which leaves its canonical basis
    if it had none.
    """
    N = tube.N
    eroded = dict(eroded) if eroded else {}
    for k in range(1, N):
        if k not in eroded:
            eroded[k] = eroded_target(tube.cs(k + 1), schedule.outer_zonotopes[k - 1])
    for target in eroded.values():
        target.is_empty()

    def run_trial(t: int) -> TrialResult:
        rng = np.random.default_rng([master_seed, t])
        y = np.concatenate([scn.initial_state(), [0.0]])
        for k in range(1, N):
            w_x = rng.multivariate_normal(np.zeros(model.n_x), model.sigma_x(k, N))
            estimate = y + model.E_w_x @ w_x
            try:
                command, _, c_k = one_step_ocp(estimate, eroded[k], control_set_robust, dyn)
            except InfeasibleError:
                return TrialResult(t, master_seed, False, None, None, failure_step=k)
            w_u = rng.multivariate_normal(np.zeros(model.n_u), model.Sigma_u)
            applied = command + model.E_w_u @ w_u
            y[-1] = c_k
            y = dyn.step(y, applied)
        ok = terminal_set_fulldim.contains_point(y, tol=START_TOL)
        fuel = scn.m_wet - float(np.exp(y[6]))
        return TrialResult(t, master_seed, bool(ok), y.copy(), fuel)

    workers = min(_thread_count(), trials) or 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, range(trials)))
    else:
        results = [run_trial(t) for t in range(trials)]
    return MonteCarloSummary(trials, sum(r.success for r in results), results)
