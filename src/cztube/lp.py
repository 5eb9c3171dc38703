"""Dense linear-program descriptor and solver backend.

Every set query (support, containment, emptiness) and every one-step
control solve in this package reduces to a call into this module.  The
solve runs on the HiGHS library bundled with SciPy
(``scipy.optimize._highspy``), and ``solve_lp`` trusts no verdict that
it has not checked against the program's own data:

* OPTIMAL: the returned point meets every row within the row-scaled
  ``FEAS_TOL`` and every column bound.
* INFEASIBLE: a Farkas ray y, checked here with numpy, proves that no
  point of the column box meets every row within the same tolerance
  (see ``farkas_certifies``).  Contradictory column bounds, rows with
  no variables and a row whose activity range over the column box
  misses its bounds (``single_row_certifies``) are certified by
  inspection.
* Anything else, including an infeasibility verdict whose ray is
  missing or fails the check, is NUMERICAL_FAILURE after one retry
  with the other HiGHS algorithm.  Callers that cannot proceed raise
  ``LpError``.

There are two algorithms: dual simplex without presolve ("highs") and
the interior-point method ("highs-ipm").  A solution is the primal
point, its objective and, after simplex, its basis; no duals are read.

Simplex can start from a given basis (``LpBasis``; an optimal simplex
run reports its own).  The checks above apply unchanged to a warm run,
and its retry runs cold.  Callers pass only canonical bases, which
depend on the program's fixed data and never on an earlier query, so
answers do not depend on the order of queries.  Each is built from the
canonical bases of constrained zonotopes (``ConstrainedZonotope.basis``),
and is of one of three kinds: a basis that is dual feasible for the
program (an optimal basis of the same objective over related rows,
e.g. a tube set's for its slices), one that is primal feasible (an
optimal basis of the same rows and bounds under another objective,
e.g. a slice's for the support LPs of its affine images), and, for the
one-step LP under dynamics whose cost row reads other states, a basis
that is neither, from which simplex goes further.  HiGHS picks the
simplex variant of a warm run from the start it is given: primal
simplex from a primal feasible basis, dual simplex otherwise.  Cold
runs use dual simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs

FEAS_TOL = 1e-8
# Relative error allowed in a Farkas ray, HiGHS's dual feasibility
# tolerance: see farkas_certifies.
RAY_TOL = 1e-9
# Constraint-matrix entries below this magnitude are dropped by HiGHS
# (its small_matrix_value, set explicitly below): a coefficient this
# small is not part of the program the solver runs.
SMALL_MATRIX_VALUE = 1e-9

_SIMPLEX_OPTIONS = {"solver": "simplex", "presolve": "off"}
_IPM_OPTIONS = {"solver": "ipm"}
_COMMON_OPTIONS = {
    "output_flag": False,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
    "small_matrix_value": SMALL_MATRIX_VALUE,
    "simplex_strategy": 1,  # dual simplex
}
# a warm start lets HiGHS choose: primal simplex when the starting basis
# is primal feasible, dual simplex otherwise
_WARM_OPTIONS = {"simplex_strategy": 0}
_METHODS = {"highs": _SIMPLEX_OPTIONS, "highs-ipm": _IPM_OPTIONS}
_INFEASIBLE = (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kUnboundedOrInfeasible)
_COLWISE = int(highs.MatrixFormat.kColwise)
_MINIMIZE = int(highs.ObjSense.kMinimize)


BASIC = highs.HighsBasisStatus.kBasic
NONBASIC = highs.HighsBasisStatus.kLower
# basis statuses by integer code, and back
_STATUSES = sorted(highs.HighsBasisStatus.__members__.values(), key=int)
_CODE_OF = {s: int(s) for s in _STATUSES}


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


class LpError(Exception):
    """Raised by callers that cannot proceed past a solver failure."""


def _as_matrix(M, n_cols):
    if M is None:
        return sp.csr_matrix((0, n_cols))
    if sp.issparse(M):
        return M.tocsr()
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return sp.csr_matrix(M)


@dataclass
class LinearProgram:
    """minimize c_obj'x  s.t.  E x = f,  H x <= g,  lb <= x <= ub.

    E and H may be dense arrays or scipy sparse matrices; bounds may use
    +-inf.  Zero-row blocks are allowed.
    """

    c_obj: np.ndarray
    E: object = None
    f: np.ndarray = None
    H: object = None
    g: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None

    def __post_init__(self):
        self.c_obj = np.asarray(self.c_obj, dtype=float).ravel()
        n = self.c_obj.size
        self.E = _as_matrix(self.E, n)
        self.H = _as_matrix(self.H, n)
        self.f = np.zeros(0) if self.f is None else np.asarray(self.f, dtype=float).ravel()
        self.g = np.zeros(0) if self.g is None else np.asarray(self.g, dtype=float).ravel()
        self.lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float).ravel()
        if self.E.shape[1] != n or self.H.shape[1] != n:
            raise ValueError("constraint matrix column count does not match objective length")
        if self.E.shape[0] != self.f.size or self.H.shape[0] != self.g.size:
            raise ValueError("constraint row count does not match rhs length")
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound length does not match objective length")

    @property
    def n_vars(self) -> int:
        return self.c_obj.size

    def rows(self):
        """Rows as the solver sees them: row_lo <= A x <= row_hi with
        A = [H; E] in CSC form."""
        A = sp.vstack([self.H, self.E], format="csc")
        row_lo = np.concatenate([np.full(self.g.size, -np.inf), self.f])
        row_hi = np.concatenate([self.g, self.f])
        return A, row_lo, row_hi


@dataclass(frozen=True)
class LpBasis:
    """A simplex basis of a LinearProgram: one HiGHS basis status per
    column and one per row of ``LinearProgram.rows()``.

    A basis has as many ``BASIC`` entries as the program has rows; every
    other entry is nonbasic at a bound.  ``NONBASIC`` (at the lower
    bound) is the status to give a fixed column or an equality row when
    extending a basis: HiGHS reads any nonbasic status of a fixed
    variable as "at its value".
    """

    cols: tuple
    rows: tuple

    def codes(self) -> np.ndarray:
        """The statuses as HiGHS's integer codes, columns then rows."""
        return np.array([_CODE_OF[s] for s in self.cols + self.rows], dtype=np.uint8)

    @staticmethod
    def from_codes(codes, n_cols: int) -> "LpBasis":
        """Inverse of ``codes``; ValueError unless every code is a HiGHS
        basis status and one entry per row is basic."""
        codes = np.asarray(codes).ravel()
        if codes.size < n_cols or np.any(codes >= len(_STATUSES)):
            raise ValueError("not a basis: unknown status codes")
        if np.count_nonzero(codes == _CODE_OF[BASIC]) != codes.size - n_cols:
            raise ValueError("not a basis: it needs one basic entry per row")
        statuses = [_STATUSES[v] for v in codes.tolist()]
        return LpBasis(tuple(statuses[:n_cols]), tuple(statuses[n_cols:]))


@dataclass
class LpSolution:
    """Outcome of ``solve_lp``: the status and, when OPTIMAL, the point,
    its objective value and the HiGHS basis of a simplex run."""

    status: LpStatus
    x_opt: Optional[np.ndarray] = None
    objective_value: Optional[float] = None
    highs_basis: Optional[object] = field(default=None, repr=False)

    @property
    def basis(self) -> Optional[LpBasis]:
        """The optimal basis of a simplex run, None after any other run.
        Read from HiGHS's ``getBasis()`` only when asked for, since
        converting it costs about as much as a small solve.  Its entries
        are the module's status singletons, as in a basis decoded by
        ``LpBasis.from_codes``, not one new status object per entry."""
        if self.highs_basis is None:
            return None
        return LpBasis(_shared_statuses(self.highs_basis.col_status),
                       _shared_statuses(self.highs_basis.row_status))


def _shared_statuses(statuses) -> tuple:
    return tuple(_STATUSES[int(s)] for s in statuses)


def _row_scale(M, rhs):
    """Residual scale per row: max(1, inf-norm of the row and rhs)."""
    if M.shape[0] == 0:
        return np.zeros(0)
    row_max = np.abs(M).max(axis=1)
    row_max = np.asarray(row_max.todense()).ravel() if sp.issparse(row_max) else np.ravel(row_max)
    return np.maximum(1.0, np.maximum(row_max, np.abs(rhs)))


def _feasibility_residual(prob: LinearProgram, x: np.ndarray) -> float:
    res = 0.0
    if prob.E.shape[0]:
        r = np.abs(prob.E @ x - prob.f) / _row_scale(prob.E, prob.f)
        res = max(res, float(r.max()))
    if prob.H.shape[0]:
        r = (prob.H @ x - prob.g) / _row_scale(prob.H, prob.g)
        res = max(res, float(r.max()))
    lo = prob.lb - x
    hi = x - prob.ub
    scale = np.maximum(1.0, np.abs(x))
    res = max(res, float(np.max(lo / scale, initial=0.0)))
    res = max(res, float(np.max(hi / scale, initial=0.0)))
    return res


def farkas_certifies(prob: LinearProgram, ray, rows=None) -> bool:
    """True iff ``ray`` (or its negation) proves ``prob`` infeasible.

    With the rows written as row_lo <= A x <= row_hi (``prob.rows()``), a
    row vector y proves that no x in [lb, ub] meets every row within
    FEAS_TOL * row_scale when

        min over the row box of y'r  -  max over [lb, ub] of (A'y)'x
            >  FEAS_TOL * sum_i |y_i| row_scale_i,

    the margin that rows met only within the tolerance could absorb.
    Infinite bounds are handled explicitly: a nonzero y_i that needs an
    infinite row bound makes the left side -inf, and the check fails.  A
    column whose bound in the direction of (A'y)_j is infinite has
    (A'y)_j = 0 in exact arithmetic for a true ray; the check accepts
    |(A'y)_j| <= RAY_TOL * (|A|'|y|)_j there as the ray's own rounding
    error and fails on anything larger.  Ray entries below RAY_TOL of
    the largest are dropped first; the check is then exact for the
    remaining vector.

    ``rows`` is ``prob.rows()`` when the caller has built it already.
    """
    A, row_lo, row_hi = prob.rows() if rows is None else rows
    y = np.asarray(ray, dtype=float).ravel()
    if y.size != A.shape[0] or not np.all(np.isfinite(y)):
        return False
    peak = float(np.abs(y).max(initial=0.0))
    if peak == 0.0:
        return False
    y = y / peak
    y[np.abs(y) <= RAY_TOL] = 0.0
    slack = FEAS_TOL * float(np.abs(y) @ _row_scale(A, row_hi))
    rounding = RAY_TOL * (abs(A).T @ np.abs(y))
    for cand in (y, -y):
        r_min = np.where(cand > 0, row_lo, np.where(cand < 0, row_hi, 0.0))
        if not np.all(np.isfinite(r_min)):
            continue
        z = A.T @ cand
        x_max = np.where(z > 0, prob.ub, np.where(z < 0, prob.lb, 0.0))
        unbounded = ~np.isfinite(x_max)
        if np.any(np.abs(z[unbounded]) > rounding[unbounded]):
            continue
        bounded = ~unbounded
        if float(cand @ r_min) - float(z[bounded] @ x_max[bounded]) > slack:
            return True
    return False


def single_row_certifies(prob: LinearProgram, rows=None) -> bool:
    """True iff some row alone proves ``prob`` infeasible.

    This is ``farkas_certifies`` for every unit ray y = +-e_i at once: the
    activity range of row i over the column box misses [row_lo_i,
    row_hi_i] by more than FEAS_TOL * row_scale_i.  It covers what the
    solver rejects before it runs simplex and so without a ray, such as a
    row left empty once HiGHS drops its entries below
    SMALL_MATRIX_VALUE.  ``rows`` is as in ``farkas_certifies``.
    """
    A, row_lo, row_hi = prob.rows() if rows is None else rows
    A = A.tocsr()
    A.eliminate_zeros()
    a, cols = A.data, A.indices

    def activity(upper, lower):
        terms = np.where(a > 0, a * upper[cols], a * lower[cols])
        return np.asarray(sp.csr_matrix((terms, cols, A.indptr), shape=A.shape).sum(axis=1)).ravel()

    act_hi = activity(prob.ub, prob.lb)
    act_lo = activity(prob.lb, prob.ub)
    slack = FEAS_TOL * _row_scale(A, row_hi)
    return bool(np.any(act_hi < row_lo - slack) or np.any(act_lo > row_hi + slack))


@dataclass
class HighsRun:
    """What one HiGHS run reports: model status, iterations, and the
    primal solution or the dual ray when the run produced one; ``rows``
    is the ``prob.rows()`` the run was given."""

    status: highs.HighsModelStatus
    nit: int
    x: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None
    basis: Optional[object] = None
    rows: Optional[tuple] = field(default=None, repr=False)


def linprog(prob: LinearProgram, method: str = "highs", basis: Optional[LpBasis] = None) -> HighsRun:
    """One HiGHS run on prob; the only place the solver is called.

    "highs" runs dual simplex with presolve off, so an infeasibility
    verdict comes with the simplex's own dual ray at no extra cost, and
    an optimal run reports its primal point and basis.  A given ``basis``
    is the simplex's starting basis (HiGHS ``setBasis``), and HiGHS then
    chooses the simplex variant: from a basis that is dual feasible for
    prob, dual simplex repairs only the primal infeasibilities; from one
    that is primal feasible, primal simplex only improves the objective.
    "highs-ipm" runs the interior-point method (presolve and crossover
    at their defaults); it ignores ``basis`` and yields no ray.  No run
    reads duals.  The name is the one the benchmark's tracer
    (bench/tracing.py) times as the backend call.
    """
    rows = prob.rows()
    A, row_lo, row_hi = rows
    simplex = method != "highs-ipm"
    warm = basis is not None and simplex
    options = {**_COMMON_OPTIONS, **_METHODS[method], **(_WARM_OPTIONS if warm else {})}
    solver = highs._Highs()
    for key, value in options.items():
        if solver.setOptionValue(key, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejected option {key}={value!r}")
    # the array overload of passModel takes the numpy buffers as they
    # are; filling a HighsLp field by field copies them element by element
    passed = solver.passModel(
        prob.n_vars, A.shape[0], A.nnz, _COLWISE, _MINIMIZE, 0.0,
        prob.c_obj, prob.lb, prob.ub, row_lo, row_hi,
        A.indptr.astype(np.int32, copy=False), A.indices.astype(np.int32, copy=False), A.data,
        np.zeros(prob.n_vars, dtype=np.int32),  # every column continuous
    )
    if passed == highs.HighsStatus.kError:
        return HighsRun(highs.HighsModelStatus.kModelError, 0)
    if warm:
        if len(basis.cols) != prob.n_vars or len(basis.rows) != A.shape[0]:
            raise ValueError("starting basis does not match the program's shape")
        start = highs.HighsBasis()
        start.col_status = list(basis.cols)
        start.row_status = list(basis.rows)
        start.valid = True
        start.alien = False
        if solver.setBasis(start) == highs.HighsStatus.kError:
            return HighsRun(highs.HighsModelStatus.kModelError, 0)
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    run = HighsRun(status, int(info.simplex_iteration_count or info.ipm_iteration_count),
                   rows=rows)
    if status == highs.HighsModelStatus.kOptimal:
        sol = solver.getSolution()
        run.x = np.array(sol.col_value, dtype=float)
        if simplex:
            run.basis = solver.getBasis()
    elif status in _INFEASIBLE and simplex:
        _, has_ray, ray = solver.getDualRay()
        if has_ray:
            run.ray = np.array(ray, dtype=float)
    return run


def solve_lp(prob: LinearProgram, method: str = "highs", basis: Optional[LpBasis] = None) -> LpSolution:
    """Solve an LP, classifying the outcome.

    method selects the HiGHS algorithm: "highs" runs dual simplex without
    presolve; "highs-ipm" runs the interior-point method, which is much
    faster on the large sparse programs built by the set-erosion
    routine.

    basis warm-starts simplex (IPM ignores it).  Callers pass only
    canonical bases: built from the optimal bases of fixed reference
    programs that depend on nothing but the caller's sets, never from
    the basis of a previous query, so an answer does not depend on the
    order of the queries before it.  The module docstring lists the
    kinds passed; any nonsingular basis is a valid start.  A warm start
    changes how the solver gets to its verdict, not how the verdict is
    checked.

    The contract on the result:

    * OPTIMAL only after the returned point has been re-checked against
      the row-scaled feasibility tolerance FEAS_TOL.
    * INFEASIBLE only with a Farkas ray that ``farkas_certifies`` has
      checked against the program's own data, or by inspection:
      contradictory column bounds, variable-free rows, or a single row
      that ``single_row_certifies``.  The interior-point path yields no
      ray, so its infeasibility verdict is re-solved once with
      presolve-free simplex to obtain one.
    * Anything else is NUMERICAL_FAILURE, reached only after one
      deterministic retry with the alternate algorithm (simplex <->
      interior point), run cold, since degenerate boundary problems
      occasionally defeat one algorithm but not the other.

    UNBOUNDED is passed on unchecked: no program built in this package
    is unbounded.  Its latent columns are boxed to [-1, 1]; its free
    columns are fixed by equality rows (state and cost-to-go of the
    one-step and full-horizon LPs), bounded by the objective (the
    containment LP's t >= 0, minimized) or boxed through rows (the
    erosion LP's |Gamma| <= T <= 1).  So it is a solver fault, and every
    caller raises ``LpError`` (exit code 5) on anything but OPTIMAL and
    INFEASIBLE.  An optimal simplex run carries its basis in
    ``LpSolution.basis``; no solution carries duals.
    """
    sol = _solve_once(prob, method, basis)
    if sol.status == LpStatus.NUMERICAL_FAILURE:
        fallback = "highs" if method == "highs-ipm" else "highs-ipm"
        sol = _solve_once(prob, fallback)
    return sol


def _solve_once(prob: LinearProgram, method: str, basis: Optional[LpBasis] = None) -> LpSolution:
    n = prob.n_vars
    if n == 0:
        feasible = (prob.f.size == 0 or np.all(np.abs(prob.f) <= FEAS_TOL)) and (
            prob.g.size == 0 or np.all(prob.g >= -FEAS_TOL)
        )
        if feasible:
            return LpSolution(LpStatus.OPTIMAL, np.zeros(0), 0.0)
        return LpSolution(LpStatus.INFEASIBLE)
    if np.any(prob.lb > prob.ub):
        return LpSolution(LpStatus.INFEASIBLE)

    run = linprog(prob, method, basis)
    if run.status in _INFEASIBLE and method == "highs-ipm":
        run = linprog(prob, "highs")
    if run.status in _INFEASIBLE:
        certified = run.ray is not None and farkas_certifies(prob, run.ray, run.rows)
        if certified or single_row_certifies(prob, run.rows):
            return LpSolution(LpStatus.INFEASIBLE)
        return LpSolution(LpStatus.NUMERICAL_FAILURE)
    if run.status == highs.HighsModelStatus.kUnbounded:
        return LpSolution(LpStatus.UNBOUNDED)
    if run.x is None:
        return LpSolution(LpStatus.NUMERICAL_FAILURE)

    x = run.x
    if _feasibility_residual(prob, x) > FEAS_TOL:
        return LpSolution(LpStatus.NUMERICAL_FAILURE)
    return LpSolution(LpStatus.OPTIMAL, x, float(prob.c_obj @ x), run.basis)


def dump_lp(prob: LinearProgram, path) -> None:
    """Write a plain-text standard form for diffing against other solvers."""
    with open(path, "w") as fh:
        fh.write("minimize\n")
        fh.write(" ".join(f"{v:.17g}" for v in prob.c_obj) + "\n")
        fh.write(f"equalities {prob.E.shape[0]}\n")
        E = prob.E.toarray() if sp.issparse(prob.E) else np.asarray(prob.E)
        for row, rhs in zip(E, prob.f):
            fh.write(" ".join(f"{v:.17g}" for v in row) + f" = {rhs:.17g}\n")
        fh.write(f"inequalities {prob.H.shape[0]}\n")
        H = prob.H.toarray() if sp.issparse(prob.H) else np.asarray(prob.H)
        for row, rhs in zip(H, prob.g):
            fh.write(" ".join(f"{v:.17g}" for v in row) + f" <= {rhs:.17g}\n")
        fh.write("bounds\n")
        for lo, hi in zip(prob.lb, prob.ub):
            fh.write(f"{lo:.17g} {hi:.17g}\n")
