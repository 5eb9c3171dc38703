"""Online guidance algorithms over a precomputed controllable tube.

Containment of the current state in a tube set certifies that the
terminal set is reachable in the remaining steps, so the online work
reduces to: find the best start index (optimal horizon), then repeatedly
solve a one-step LP that steers into the next tube set while minimizing
the cost-to-go.  Also provides the instantaneous reachable set in the
translation-invariant horizontal subspace, a decision-deferral rollout
that keeps two landing sites reachable as long as possible, and a
Monte Carlo harness for the robust configuration.

Every LP here starts from a basis built from the canonical bases that
the tube sets and the control set carry, as ``cztube.czset`` sets out,
and no query computes one, with one exception: each tube set's slice LP
in the horizon scan continues from the optimal basis of that set's last
one.  So a scan's costs depend on the scans before it on the same tube,
by rounding only, and the same sequence of scans repeats them bitwise;
its containing indices do not, nor does any one-step LP.  The
scan also skips the LPs of sets that a kept Farkas ray proves do not
contain the state (``optimal_horizon``), so its work depends on the
scans before it too.
"""

from __future__ import annotations

import copy
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from .czset import ConstrainedZonotope
from .landing import STATE_DIM, DiscreteDynamics, LandingScenario
from .lp import BASIC, NONBASIC, LinearProgram, LpBasis, LpError, LpStatus, solve_lp
from .tube import ControllableTube
from .uncertainty import DisturbanceSchedule, UncertaintyModel

SLICE_TOL = 1e-6
START_TOL = 1e-6
TIE_TOL = 1e-9
# the translation-invariant state coordinates: the horizontal position
CYCLIC_DIMS = (0, 1)


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
    c_star: float
    branch_step: Optional[int] = None

    @property
    def total_cost(self) -> float:
        """The cost-to-go of the first step, or the scan's c* when no step
        ran."""
        return float(self.records[0].state[-1]) if self.records else self.c_star

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
    or None when the state is not contained (``slice_min_cost``).

    The support query on the slice starts from the optimal basis of
    CS's last slice LP at this tol, and the first one from CS's
    canonical basis, or from CS's own start when CS has not settled one;
    a state that a ray kept from an earlier query proves outside CS
    costs no LP."""
    return cs.slice_min_cost(np.arange(STATE_DIM - 1), x_i, tol=tol)


def _horizon_scan(sets, x_i: np.ndarray, tol: float, outside: str) -> HorizonQuery:
    """Cheapest containing index among sets (sets[k-1] is index k) for the
    7-dim physical state x_i; cost ties go to the larger index.  Raises
    NoContainmentError(outside) when no set contains the state."""
    if x_i.size != STATE_DIM - 1:
        raise ValueError("horizon query expects the 7-dim physical state")
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
    larger index (shorter remaining horizon).  Each tube set keeps the
    Farkas rays that proved earlier states outside it, and a state that
    one of them proves outside costs no LP; a set's slice LP continues
    from the optimum of its last one (``slice_min_cost``).  So the work
    of a scan depends on the scans before it on the same tube, and so do
    its costs, by rounding only.  Its containing indices do not, nor
    does k* but where a cost lies within rounding of the tie bound
    c* + TIE_TOL.
    """
    x_i = np.asarray(x_i, dtype=float).ravel()
    return _horizon_scan(tube.sets, x_i, tol, "initial state is outside every controllable set")


# -- one-step optimal control ---------------------------------------------


@dataclass
class _OneStepModel:
    """The one-step LP into one tube set for one control set and dynamics,
    with the physical state as free columns, and its start, both fixed
    when the model is built.

    With the state free, the 8 state columns meet the 8 dynamics rows
    whatever the latents are, so the LP splits into two support LPs, with
    w = A^-T e_8: the next set's in direction -w and the control set's in
    direction B'w.  The start (``basis``) joins the two sets' canonical
    bases, with the state columns basic and the dynamics rows nonbasic,
    and is None when either set has no basis.  When the cost row of A is
    e_8', as in ``landing.discretize`` and its worst-case variant,
    w = e_8: -w is the min-cost direction and B'w a nonnegative multiple
    of the control set's, so the start is an optimal basis of the
    state-free LP, with dual weights w on the dynamics rows, and dual
    feasible for every pinned state.  For other dynamics it is still a
    basis, as the state columns meet an invertible A, but not dual
    feasible, and simplex goes further from it.

    The control set and dynamics are held so that the ids keying the
    model on the tube set stay theirs."""

    control_set: ConstrainedZonotope
    dyn: DiscreteDynamics
    prob: LinearProgram
    basis: Optional[LpBasis]


def _one_step_model(cs_next, control_set, dyn) -> _OneStepModel:
    Gu, cu, Au, bu = control_set.G, control_set.c, control_set.A, control_set.b
    Gn, cn, An, bn = cs_next.G, cs_next.c, cs_next.A, cs_next.b
    n_lat = Gu.shape[1] + Gn.shape[1]
    # variables: [xi_u, xi_next, c_k, x_phys (7)], the latents first and
    # the 8 state columns last.  Dynamics/membership:
    # A x + B(Gu xi_u + cu) + d = Gn xi_next + cn with x = (x_phys, c_k):
    # B Gu xi_u - Gn xi_next + A[:, -1] c_k + A[:, :7] x_phys = cn - d - B cu
    E = sp.bmat(
        [
            [sp.csr_matrix(dyn.B @ Gu), sp.csr_matrix(-Gn),
             sp.csr_matrix(dyn.A[:, -1:]), sp.csr_matrix(dyn.A[:, :-1])],
            [Au, None, None, None],
            [None, An, None, None],
        ],
        format="csr",
    )
    f = np.concatenate([cn - dyn.d - dyn.B @ cu, bu, bn])
    lb = np.concatenate([-np.ones(n_lat), np.full(STATE_DIM, -np.inf)])
    ub = np.concatenate([np.ones(n_lat), np.full(STATE_DIM, np.inf)])
    c_obj = np.zeros(n_lat + STATE_DIM)
    c_obj[n_lat] = 1.0
    # settles both sets' bases; a memo hit for every set that the tube
    # recursions, a tube file or landing.build_control_set made
    control_set.is_empty()
    cs_next.is_empty()
    b_u, b_next = control_set.basis(), cs_next.basis()
    basis = None if b_u is None or b_next is None else LpBasis(
        b_u.cols + b_next.cols + (BASIC,) * STATE_DIM,
        (NONBASIC,) * STATE_DIM + b_u.rows + b_next.rows,
    )
    return _OneStepModel(control_set, dyn, LinearProgram(c_obj, E, f, lb=lb, ub=ub), basis)


def one_step_ocp(
    x_k,
    cs_next: ConstrainedZonotope,
    control_set: ConstrainedZonotope,
    dyn: DiscreteDynamics,
):
    """Minimize the cost-to-go subject to landing in the next tube set.

    Variables are the control-set latents, the next-set latents, the
    current cost-to-go c_k and the physical part of the current state,
    fixed by its bounds (lb = ub = x), so the LP's rows and objective
    do not depend on the state; they are built once per (cs_next,
    control_set, dyn), memoized on cs_next, and a query changes only
    the state's bounds.  When cs_next and the control set carry their
    canonical bases, the query warm-starts from a basis assembled from
    them (``_OneStepModel``): for the landing dynamics an optimal basis
    of the same LP with the state free, dual feasible for every state.
    Returns (control, next_state, c_k).
    """
    x_k = np.asarray(x_k, dtype=float).ravel()
    x_phys = x_k[: STATE_DIM - 1]
    model = cs_next.cached(
        ("one_step", id(control_set), id(dyn)),
        lambda: _one_step_model(cs_next, control_set, dyn),
    )
    prob = copy.copy(model.prob)
    prob.lb, prob.ub = prob.lb.copy(), prob.ub.copy()
    prob.lb[1 - STATE_DIM :] = prob.ub[1 - STATE_DIM :] = x_phys
    sol = solve_lp(prob, basis=model.basis)
    if sol.status == LpStatus.INFEASIBLE:
        raise InfeasibleError("one-step control problem is infeasible from this state")
    if sol.status != LpStatus.OPTIMAL:
        raise LpError(f"one-step control LP ended with status {sol.status}")
    c_k = float(sol.x_opt[-STATE_DIM])
    control = control_set.G @ sol.x_opt[: control_set.n_generators] + control_set.c
    next_state = dyn.step(np.concatenate([x_phys, [c_k]]), control)
    return control, next_state, c_k


# -- forward rollout -------------------------------------------------------


def _step(state, k, target, control_set, dyn, records) -> np.ndarray:
    """One closed-loop step at index k from the augmented state into
    target: writes the step's cost-to-go into state, records the step,
    and returns the next state."""
    control, next_state, c_k = one_step_ocp(state, target, control_set, dyn)
    state[-1] = c_k
    records.append(StepRecord(k, state.copy(), control))
    return next_state


def _finish(tube: ControllableTube, hq: HorizonQuery, records, state) -> RolloutLog:
    """The log of a rollout that started from hq and ended in state,
    which must lie inside the terminal tube set."""
    if not tube.cs(tube.N).contains_point(state, tol=START_TOL):
        raise InfeasibleError("rollout did not end inside the terminal tube set")
    return RolloutLog(hq.k_star, records, state, hq.c_star)


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
    for k in range(hq.k_star, tube.N):
        state = _step(state, k, tube.cs(k + 1), control_set, dyn, records)
    return _finish(tube, hq, records, state)


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
    dyn: DiscreteDynamics,
) -> ConstrainedZonotope:
    """Terminal-subspace points reachable from the current state at index k.

    Slices the tube set at the current non-cyclic state, projects onto
    the cyclic coordinates (the horizontal position, ``CYCLIC_DIMS``),
    and reflects the result about the current cyclic position shifted to
    the target: x_hat_k + (-S) + x_hat_f.  ValueError unless dyn leaves
    the cyclic coordinates translation-invariant.

    One LP, the slice's support LP in the min-cost direction, settles
    whether the slice is empty, and its optimal basis is the start of
    every support query on the result (``cztube.czset``).
    """
    x_hat_k = np.asarray(x_hat_k, dtype=float).ravel()
    x_comp_k = np.asarray(x_comp_k, dtype=float).ravel()
    x_hat_f = np.asarray(x_hat_f, dtype=float).ravel()
    if not check_translation_invariant(dyn, CYCLIC_DIMS):
        raise ValueError("cyclic coordinates are not translation-invariant")
    comp = [i for i in range(STATE_DIM) if i not in CYCLIC_DIMS]
    sliced = tube.cs(k).slice(comp, x_comp_k, tol=SLICE_TOL)
    if sliced.is_empty():
        raise EmptySliceError(
            f"non-cyclic state is outside the step-{k} controllable set"
        )
    S = sliced.project(CYCLIC_DIMS)
    return S.affine_map(-np.eye(len(CYCLIC_DIMS)), x_hat_k + x_hat_f)


# -- decision-deferral rollout --------------------------------------------


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
    nominal tube and finishes there as ``forward_rollout`` from that
    state.  Checking membership of the current state (not just next-step
    feasibility) is what keeps both sites inside the divert envelope at
    every pre-branch step: a state can still steer into the next
    intersection while already violating the backup site's translated
    path constraints.
    """
    x_i = np.asarray(x_i, dtype=float).ravel()
    offset = np.asarray(backup_offset, dtype=float).ravel()
    if offset.size != 3:
        raise ValueError("backup offset must have 3 entries (a position offset)")
    delta = np.zeros(STATE_DIM)
    delta[:3] = offset
    # made once per call, and settled only where a deferred step checks
    # its target's emptiness.  Each starts from CS_k's stored basis taken
    # twice with the coupling rows basic, dual feasible for the min-cost
    # LPs of its slices; the target's emptiness check leaves its own
    # basis for the next step's slice of it.
    eff = [effective_tube_set(tube, k, delta) for k in range(1, tube.N + 1)]
    hq = _horizon_scan(eff, x_i, SLICE_TOL, "initial state is outside the effective tube")
    state = np.concatenate([x_i, [hq.c_star]])
    records = []
    for k in range(hq.k_star, tube.N):
        try:
            # defer only while the current state is still inside the
            # intersection (both sites' path constraints hold right now);
            # an empty next intersection costs no one-step LP
            if _min_cost_at_state(eff[k - 1], state[: STATE_DIM - 1]) is None or eff[k].is_empty():
                raise InfeasibleError("the intersection cannot hold the next step")
            state = _step(state, k, eff[k], control_set, dyn, records)
        except InfeasibleError:
            # branch once and finish as a nominal rollout from the best
            # index for this state
            tail = forward_rollout(state[: STATE_DIM - 1], tube, control_set, dyn)
            return RolloutLog(hq.k_star, records + tail.records, tail.terminal_state,
                              hq.c_star, branch_step=k)
    return _finish(tube, hq, records, state)


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
    """Monte Carlo pool size: CZTUBE_THREADS when set, else the number of
    CPUs this process may run on.  ValueError naming CZTUBE_THREADS unless
    its value is a positive integer."""
    env = os.environ.get("CZTUBE_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"CZTUBE_THREADS must be a positive integer, not {env!r}")
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _normal_factor(cov) -> np.ndarray:
    """The factor F = u sqrt(s) of cov = u diag(s) vh (SVD) that NumPy's
    ``Generator.multivariate_normal`` makes on every draw, so that
    ``_draw(rng, F)`` is bitwise its draw from the same stream.  Warns as
    it does when cov is not symmetric positive-semidefinite."""
    cov = np.asarray(cov, dtype=float)
    u, s, vh = np.linalg.svd(cov)
    if not np.allclose(np.dot(vh.T * s, vh), cov, rtol=1e-8, atol=1e-8):
        warnings.warn("covariance is not symmetric positive-semidefinite.", RuntimeWarning,
                      stacklevel=2)
    return u * np.sqrt(s)


def _draw(rng: np.random.Generator, factor: np.ndarray) -> np.ndarray:
    """One zero-mean normal draw with covariance factor @ factor.T, in
    the shapes and order of operations of NumPy's multivariate_normal."""
    n = factor.shape[0]
    return (np.zeros(n) + rng.standard_normal((1, n)) @ factor.T).reshape(n)


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
    terminal set.  Trials run in a thread pool (``_thread_count``
    workers); each trial's random stream depends only on (master_seed,
    trial index), so results do not depend on the pool size.  Each noise
    covariance is factored once per call, before the trials, and every
    draw is bitwise the one NumPy's ``multivariate_normal`` makes from
    the same stream (``_normal_factor``).

    Step k steers into the tube's step-k eroded target
    (``ControllableTube.eroded``, made offline by ``robust_recursion``),
    or into eroded[k] when eroded maps each step 1..N-1 to its target.
    ValueError asking for a rebuild, before any trial, when a target is
    missing.  ``schedule`` is unused: it and ``eroded`` stay only until
    the benchmark stops passing them.
    """
    N = tube.N
    if eroded is None:
        eroded = dict(enumerate(tube.eroded or [], start=1))
    missing = [k for k in range(1, N) if k not in eroded]
    if missing:
        raise ValueError(f"no eroded target for step {missing[0]}; "
                         "rebuild the tube with `cztube build-tube --robust`")

    # each noise covariance is factored once per call, not once per draw
    nav_factors = {k: _normal_factor(model.sigma_x(k, N)) for k in range(1, N)}
    exec_factor = _normal_factor(model.Sigma_u) if model.n_u else None

    def run_trial(t: int) -> TrialResult:
        rng = np.random.default_rng([master_seed, t])
        y = np.concatenate([scn.initial_state(), [0.0]])
        for k in range(1, N):
            w_x = _draw(rng, nav_factors[k])
            estimate = y + model.E_w_x @ w_x
            try:
                command, _, c_k = one_step_ocp(estimate, eroded[k], control_set_robust, dyn)
            except InfeasibleError:
                return TrialResult(t, master_seed, False, None, None, failure_step=k)
            applied = command
            if exec_factor is not None:  # a model may have no execution noise
                applied = command + model.E_w_u @ _draw(rng, exec_factor)
            y[-1] = c_k
            y = dyn.step(y, applied)
        ok = terminal_set_fulldim.contains_point(y, tol=START_TOL)
        fuel = scn.m_wet - float(np.exp(y[6]))
        return TrialResult(t, master_seed, bool(ok), y.copy(), fuel)

    with ThreadPoolExecutor(max_workers=min(_thread_count(), trials) or 1) as pool:
        results = list(pool.map(run_trial, range(trials)))
    return MonteCarloSummary(trials, sum(r.success for r in results), results)
