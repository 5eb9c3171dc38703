"""Linear-program descriptor and solver backend.

Every set query (support, containment, emptiness) and every one-step
control solve in this package reduces to a call into this module.  A
``LinearProgram`` holds its rows in one form, built once when it is
made: row_lo <= A x <= row_hi with A = [H; E] in canonical CSR form
(``canonical_csr``), and a residual scale per row.  The solve runs on
the HiGHS library bundled with SciPy (``scipy.optimize._highspy``),
which is given exactly these rows, row-wise, and ``solve_lp`` trusts no
verdict that it has not checked against the same rows:

* OPTIMAL: the returned point meets every row within the row-scaled
  ``FEAS_TOL`` and every column bound.
* INFEASIBLE: a Farkas ray y, checked here with numpy, proves that no
  point of the column box meets every row within the same tolerance
  (see ``farkas_certifies``).  The verdict carries that ray, which a
  caller may check against a program with the same rows and other
  right-hand sides, with the terms that read only the rows computed
  once (``farkas_ray``; ``cztube.czset`` does).  Contradictory column
  bounds and a row whose activity range over the column box misses its
  bounds (``single_row_certifies``, which also settles a program with
  no columns) are certified by inspection, with no ray.
* Anything else, including an infeasibility verdict whose ray is
  missing or fails the check, is NUMERICAL_FAILURE after one retry
  with the other HiGHS algorithm.  Callers that cannot proceed raise
  ``LpError``.

There are two algorithms: dual simplex without presolve ("highs") and
the interior-point method ("highs-ipm").  A solution is the primal
point, its objective and, after simplex, its basis; no duals are read.

Simplex can start from a given basis: an ``LpBasis``, or the HiGHS
basis an optimal simplex run reports (``LpSolution.highs_basis``), taken
as it is.  Which basis each LP starts from is set out once, in
``cztube.czset``.  The checks above apply unchanged to a warm run,
and its retry runs cold.  HiGHS picks the simplex variant of a warm run
from the start it is given: primal simplex from a primal feasible
basis, dual simplex otherwise.  Cold runs use dual simplex.  A
``FactoredStart`` is an optimal basis with its basis matrix factored:
a program that differs from the basis's own only in the values of
fixed columns, and whose basic solution lies within its bounds, is
answered from the factors, with no HiGHS model, after the same OPTIMAL
check (``solve_lp``); any other runs HiGHS from the basis.

Each thread holds the HiGHS model of its last simplex run on rows that
the LP before it had too, and its next LP runs on that model when it
differs only in its costs (see ``linprog``): a set's support LPs,
copies of one program, do.  Such a run continues from the basis the
model's last run ended on, whatever start it is given: an optimum of
other costs over the same rows is primal feasible for any costs, so
simplex only improves the objective from it.  Its answer therefore
depends on the LPs the model ran before, by rounding only; the same
sequence of LPs repeats it bitwise.  The model also keeps the column
scaling HiGHS chose for the first costs it ran.  Its verdict is checked
as above.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs
from scipy.sparse.linalg import splu

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
_ROWWISE = int(highs.MatrixFormat.kRowwise)
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


def canonical_csr(M) -> sp.csr_matrix:
    """M as a float CSR matrix in canonical form (duplicates summed, no
    stored zeros, sorted indices).  A sparse M in that form already is
    used as it is; any other is copied first, so M never changes."""
    if not sp.issparse(M):
        return sp.csr_matrix(np.atleast_2d(np.asarray(M, dtype=float)))
    A = M.tocsr()
    if A.dtype == np.float64 and A.has_canonical_format and A.data.all():
        return A
    A = sp.csr_matrix(A, dtype=float, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


@dataclass
class LinearProgram:
    """minimize c_obj'x  s.t.  E x = f,  H x <= g,  lb <= x <= ub.

    E and H may be dense arrays or scipy sparse matrices; bounds may use
    +-inf.  Zero-row blocks are allowed.  The constructor puts E and H
    in canonical CSR form (``canonical_csr``) and stacks the rows once
    as the solver and every verdict check read them:
    row_lo <= A x <= row_hi with A = [H; E], and ``row_scale``, the
    residual scale of each row, max(1, inf-norm of the row and of its
    right-hand side if finite).
    """

    c_obj: np.ndarray
    E: object = None
    f: np.ndarray = None
    H: object = None
    g: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None
    A: sp.csr_matrix = field(init=False, repr=False)
    row_lo: np.ndarray = field(init=False, repr=False)
    row_hi: np.ndarray = field(init=False, repr=False)
    row_scale: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.c_obj = np.asarray(self.c_obj, dtype=float).ravel()
        n = self.c_obj.size
        self.E = sp.csr_matrix((0, n)) if self.E is None else canonical_csr(self.E)
        self.H = sp.csr_matrix((0, n)) if self.H is None else canonical_csr(self.H)
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
        # stacking CSR blocks only concatenates their arrays, and keeps
        # them canonical; a block without rows leaves the other as it is
        if not self.H.shape[0]:
            self.A = self.E
        elif not self.E.shape[0]:
            self.A = self.H
        else:
            self.A = sp.vstack([self.H, self.E], format="csr")
        self.row_lo = np.concatenate([np.full(self.g.size, -np.inf), self.f])
        self.row_hi = np.concatenate([self.g, self.f])
        self.row_scale = row_scale(row_norms(self.A), self.row_hi)

    @property
    def n_vars(self) -> int:
        return self.c_obj.size


def row_norms(A: sp.csr_matrix) -> np.ndarray:
    """The inf-norm of each row of a CSR matrix, 0 for a row with no
    stored entry."""
    norms = np.zeros(A.shape[0])
    filled = np.diff(A.indptr) > 0
    if filled.any():
        norms[filled] = np.maximum.reduceat(np.abs(A.data), A.indptr[:-1][filled])
    return norms


def row_scale(norms: np.ndarray, row_hi: np.ndarray) -> np.ndarray:
    """The residual scale of each row (``LinearProgram.row_scale``) from
    its norm (``row_norms``) and its upper right-hand side."""
    rhs = np.abs(row_hi)
    rhs[np.isinf(rhs)] = 0.0  # an infinite bound scales no residual
    return np.maximum(1.0, np.maximum(norms, rhs))


@dataclass(frozen=True)
class LpBasis:
    """A simplex basis of a LinearProgram: one HiGHS basis status per
    column and one per row of ``LinearProgram.A``, the rows of H first,
    then those of E.

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


# a simplex start: an LpBasis, HiGHS's basis of an optimal run, or a
# FactoredStart (``solve_lp``)
Start = Union[LpBasis, highs.HighsBasis, "FactoredStart"]


@dataclass
class LpSolution:
    """Outcome of ``solve_lp``: the status and, when OPTIMAL, the point,
    its objective value and the HiGHS basis of a simplex run, which
    ``solve_lp`` takes back as a start as it is.  When
    INFEASIBLE, ``ray`` is the Farkas ray that ``farkas_certifies``
    accepted, and None when the verdict came by inspection (contradictory
    column bounds or a single row)."""

    status: LpStatus
    x_opt: Optional[np.ndarray] = None
    objective_value: Optional[float] = None
    highs_basis: Optional[highs.HighsBasis] = field(default=None, repr=False)
    ray: Optional[np.ndarray] = field(default=None, repr=False)

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


def _feasibility_residual(prob: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of a row, over its row scale, or of a column
    bound, over max(1, |x_j|); NaN if x has one."""
    Ax = prob.A @ x
    rows = np.maximum(prob.row_lo - Ax, Ax - prob.row_hi) / prob.row_scale
    cols = np.maximum(prob.lb - x, x - prob.ub) / np.maximum(1.0, np.abs(x))
    return float(np.maximum(np.max(rows, initial=0.0), np.max(cols, initial=0.0)))


def farkas_certifies(prob: LinearProgram, ray) -> bool:
    """True iff ``ray`` (or its negation) proves ``prob`` infeasible.

    Over the program's rows row_lo <= A x <= row_hi, the ones HiGHS is
    given, a row vector y proves that no x in [lb, ub] meets every row
    within FEAS_TOL * row_scale when

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

    The check is ``FarkasRay.certifies`` on ``farkas_ray``: the terms
    that read A and the column bounds, then those that read the
    right-hand sides and the row scales.
    """
    terms = farkas_ray(prob.A, prob.lb, prob.ub, ray)
    return terms is not None and terms.certifies(prob.row_lo, prob.row_hi, prob.row_scale)


@dataclass(frozen=True)
class FarkasRay:
    """The terms of ``farkas_certifies`` that depend on the rows' matrix
    A, the column bounds and the ray alone: the normalized ray y, and for
    each of y and -y the column term, max over [lb, ub] of (A'y)'x over
    the bounded columns, or None when A'y fails the rounding bound on an
    unbounded column.  So it serves every program with the same A and
    column bounds, whatever its right-hand sides and row scales."""

    y: np.ndarray
    column_terms: tuple

    def certifies(self, row_lo, row_hi, row_scale) -> bool:
        """``farkas_certifies`` on the program with these right-hand
        sides, row scales and the A and column bounds of this ray."""
        y = self.y
        slack = FEAS_TOL * float(np.abs(y) @ row_scale)
        for cand, column_term in zip((y, -y), self.column_terms):
            if column_term is None:
                continue
            r_min = np.where(cand > 0, row_lo, np.where(cand < 0, row_hi, 0.0))
            if not np.all(np.isfinite(r_min)):
                continue
            if float(cand @ r_min) - column_term > slack:
                return True
        return False


def farkas_ray(A: sp.csr_matrix, lb: np.ndarray, ub: np.ndarray, ray) -> Optional[FarkasRay]:
    """The terms of ``farkas_certifies`` that read only A, the column
    bounds [lb, ub] and the ray (``FarkasRay``); None for a ray that
    certifies nothing: of the wrong length, not finite, or zero."""
    y = np.asarray(ray, dtype=float).ravel()
    if y.size != A.shape[0] or not np.all(np.isfinite(y)):
        return None
    peak = float(np.abs(y).max(initial=0.0))
    if peak == 0.0:
        return None
    y = y / peak
    y[np.abs(y) <= RAY_TOL] = 0.0
    z_y = A.T @ y
    rounding = None
    column_terms = []
    for z in (z_y, -z_y):
        x_max = np.where(z > 0, ub, np.where(z < 0, lb, 0.0))
        unbounded = ~np.isfinite(x_max)
        if unbounded.any():
            if rounding is None:
                rounding = RAY_TOL * (abs(A).T @ np.abs(y))
            if np.any(np.abs(z[unbounded]) > rounding[unbounded]):
                column_terms.append(None)
                continue
        bounded = ~unbounded
        column_terms.append(float(z[bounded] @ x_max[bounded]))
    return FarkasRay(y, tuple(column_terms))


def single_row_certifies(prob: LinearProgram) -> bool:
    """True iff some row alone proves ``prob`` infeasible.

    This is ``farkas_certifies`` for every unit ray y = +-e_i at once: the
    activity range of row i over the column box misses [row_lo_i,
    row_hi_i] by more than FEAS_TOL * row_scale_i.  It covers what the
    solver rejects before it runs simplex and so without a ray, such as a
    row left empty once HiGHS drops its entries below
    SMALL_MATRIX_VALUE, and a program with no columns, which HiGHS
    reports as empty without a verdict.  A stores no zeros, so no term
    is zero times an infinite bound.
    """
    A = prob.A
    a, cols = A.data, A.indices

    def activity(upper, lower):
        terms = np.where(a > 0, a * upper[cols], a * lower[cols])
        return np.asarray(sp.csr_matrix((terms, cols, A.indptr), shape=A.shape).sum(axis=1)).ravel()

    act_hi = activity(prob.ub, prob.lb)
    act_lo = activity(prob.lb, prob.ub)
    slack = FEAS_TOL * prob.row_scale
    return bool(np.any(act_hi < prob.row_lo - slack) or np.any(act_lo > prob.row_hi + slack))


@dataclass
class HighsRun:
    """What one HiGHS run reports: model status, iterations, and the
    primal solution or the dual ray when the run produced one."""

    status: highs.HighsModelStatus
    nit: int
    x: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None
    basis: Optional[object] = None


def _highs_start(basis: Start):
    """basis as HiGHS's own basis object: an ``LpBasis`` converted, a
    HiGHS basis as it is."""
    if not isinstance(basis, LpBasis):
        return basis
    start = highs.HighsBasis()
    start.col_status = list(basis.cols)
    start.row_status = list(basis.rows)
    start.valid = True
    start.alien = False
    return start


# Per thread: ``model``, the held model of the last simplex run, and
# ``rows``, the ids of the last LP's rows (see ``linprog``)
_HELD = threading.local()


@dataclass
class _HeldModel:
    """A HiGHS model after its run, with what it was built from: the rows
    (held, so that no other program can take their ids), copies of the
    column bounds, and the options."""

    solver: object
    A: sp.csr_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    options: dict

    def serves(self, prob: LinearProgram, options: dict) -> bool:
        """True iff prob differs from the held model only in its costs."""
        return (self.A is prob.A and self.row_lo is prob.row_lo and self.row_hi is prob.row_hi
                and self.options == options
                and np.array_equal(self.lb, prob.lb) and np.array_equal(self.ub, prob.ub))


def _fresh_model(prob: LinearProgram, options: dict):
    """A new HiGHS model of prob with the options set; None if HiGHS
    rejects the model."""
    A = prob.A
    solver = highs._Highs()
    for key, value in options.items():
        if solver.setOptionValue(key, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejected option {key}={value!r}")
    # the array overload of passModel takes the numpy buffers as they
    # are; filling a HighsLp field by field copies them element by element.
    # The rows go in row-wise and HiGHS makes its column-wise copy in C++.
    passed = solver.passModel(
        prob.n_vars, A.shape[0], A.nnz, _ROWWISE, _MINIMIZE, 0.0,
        prob.c_obj, prob.lb, prob.ub, prob.row_lo, prob.row_hi,
        A.indptr.astype(np.int32, copy=False), A.indices.astype(np.int32, copy=False), A.data,
        np.zeros(prob.n_vars, dtype=np.int32),  # every column continuous
    )
    return None if passed == highs.HighsStatus.kError else solver


def linprog(prob: LinearProgram, method: str = "highs", basis: Optional[Start] = None) -> HighsRun:
    """One HiGHS run on prob; the only place the solver is called.

    "highs" runs dual simplex with presolve off, so an infeasibility
    verdict comes with the simplex's own dual ray at no extra cost, and
    an optimal run reports its primal point and basis.  A given ``basis``
    is the simplex's starting basis (HiGHS ``setBasis``): an ``LpBasis``,
    or HiGHS's own basis of an optimal run on a program of the same
    shape (``HighsRun.basis``, ``LpSolution.highs_basis``), which is set
    as it is, with no conversion.  HiGHS then chooses the simplex
    variant: from a basis that is dual feasible for prob, dual simplex
    repairs only the primal infeasibilities; from one that is primal
    feasible, primal simplex only improves the objective.  ValueError
    when HiGHS rejects the start, as it does one of another shape or
    with other than one basic entry per row.  "highs-ipm" runs the
    interior-point method (presolve and crossover at their defaults); it
    ignores ``basis`` and yields no ray.  No run reads duals.  The name
    is the one the benchmark's tracer (bench/tracing.py) times as the
    backend call.

    Each thread holds the model of its last simplex run when that run's
    LP had the rows of the thread's LP before it, so only a run of LPs
    on one set of rows keeps a model; the held model's rows stay alive
    with it.  The next LP of the thread runs on the held model when it
    differs only in its costs: the same ``A``, ``row_lo`` and ``row_hi``
    objects, equal column bounds, and the same method and options (so a
    warm and a cold run never share a model).  That LP gets its costs
    (``changeColsCost``) and runs from the basis the model's last run
    ended on, which an optimal run leaves primal feasible for the new
    costs; ``basis`` is not set.  No model is made, given options or
    passed the rows.  Only LPs made as copies of one program
    with their own ``c_obj`` share rows, such as a set's support LPs
    (``cztube.czset``).  Any other LP drops the held model before it
    builds its own, and an IPM model is never held.
    """
    A = prob.A
    simplex = method != "highs-ipm"
    warm = basis is not None and simplex
    options = {**_COMMON_OPTIONS, **_METHODS[method], **(_WARM_OPTIONS if warm else {})}
    held = getattr(_HELD, "model", None)
    if held is not None and held.serves(prob, options):
        # the held model keeps its last basis, which new costs leave
        # primal feasible: the run continues from it
        solver = held.solver
        solver.changeColsCost(prob.n_vars, np.arange(prob.n_vars, dtype=np.int32), prob.c_obj)
    else:
        # freed before the next model is built, so that a thread never
        # holds two
        _HELD.model = held = None
        solver = _fresh_model(prob, options)
        if solver is None:
            return HighsRun(highs.HighsModelStatus.kModelError, 0)
        if warm and solver.setBasis(_highs_start(basis)) == highs.HighsStatus.kError:
            raise ValueError("starting basis does not match the program")
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    run = HighsRun(status, int(info.simplex_iteration_count or info.ipm_iteration_count))
    if status == highs.HighsModelStatus.kOptimal:
        sol = solver.getSolution()
        run.x = np.array(sol.col_value, dtype=float)
        if simplex:
            run.basis = solver.getBasis()
    elif status in _INFEASIBLE and simplex:
        _, has_ray, ray = solver.getDualRay()
        if has_ray:
            run.ray = np.array(ray, dtype=float)
    # ids suffice here: a false match only holds a model that no LP uses
    rows = (id(A), id(prob.row_lo), id(prob.row_hi))
    if simplex and held is None and getattr(_HELD, "rows", None) == rows:
        _HELD.model = _HeldModel(solver, A, prob.row_lo, prob.row_hi,
                                 prob.lb.copy(), prob.ub.copy(), options)
    _HELD.rows = rows
    return run


@dataclass(frozen=True, eq=False)
class FactoredStart:
    """An optimal simplex basis of one program (the anchor), with its
    basis matrix factored (``factored_start``), as a start for programs
    that differ from the anchor only in the values of fixed columns.

    Such a program has the anchor's ``A``, ``c_obj``, ``row_lo`` and
    ``row_hi``, and its column bounds differ only on columns fixed
    (lb = ub) in both (``serves``).  The basis is then dual feasible for
    it, since reduced costs read only A, the costs and the statuses, and
    a fixed column may sit at its value with a reduced cost of either
    sign.  So the basis is optimal for the program wherever its basic
    solution lies within the bounds: the program's critical region.
    ``solution_at`` forms that solution from the factors, with the
    nonbasic columns and rows at the program's bounds as the statuses
    place them.  ``solve_lp`` returns it OPTIMAL, after its usual
    recheck, with no HiGHS model; any other program runs HiGHS from
    ``highs_basis``."""

    program: LinearProgram
    highs_basis: highs.HighsBasis = field(repr=False)
    basic_cols: np.ndarray = field(repr=False)
    nonbasic_cols: np.ndarray = field(repr=False)
    col_at_upper: np.ndarray = field(repr=False)
    col_at_zero: np.ndarray = field(repr=False)
    # the nonbasic rows' matrix over the nonbasic columns, and their values
    nonbasic_block: sp.csr_matrix = field(repr=False)
    row_values: np.ndarray = field(repr=False)
    lu: Optional[object] = field(repr=False)
    # SuperLU objects are not documented as safe to share across threads
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def serves(self, prob: LinearProgram) -> bool:
        """True iff prob differs from the anchor only in the bounds of
        columns fixed in both."""
        anchor = self.program
        if prob.n_vars != anchor.n_vars or prob.A.shape != anchor.A.shape:
            return False
        if not (_same(prob.A.indptr, anchor.A.indptr) and _same(prob.A.indices, anchor.A.indices)
                and _same(prob.A.data, anchor.A.data) and _same(prob.c_obj, anchor.c_obj)
                and _same(prob.row_lo, anchor.row_lo) and _same(prob.row_hi, anchor.row_hi)):
            return False
        moved = (prob.lb != anchor.lb) | (prob.ub != anchor.ub)
        return bool(np.all(prob.lb[moved] == prob.ub[moved])
                    and np.all(anchor.lb[moved] == anchor.ub[moved]))

    def solution_at(self, prob: LinearProgram) -> Optional[np.ndarray]:
        """The basic solution at prob's bounds when it lies within prob's
        column and row bounds (up to HiGHS's primal feasibility
        tolerance, by which it too calls a basis optimal), else None.
        For a program the start ``serves`` only."""
        if self.lu is None:
            return None
        lo, hi = prob.lb[self.nonbasic_cols], prob.ub[self.nonbasic_cols]
        x_n = np.where(self.col_at_upper, hi, np.where(self.col_at_zero, 0.0, lo))
        if not np.all(np.isfinite(x_n)):
            return None
        rhs = self.row_values - self.nonbasic_block @ x_n
        with self.lock:
            x_b = self.lu.solve(rhs)
        x = np.empty(prob.n_vars)
        x[self.nonbasic_cols] = x_n
        x[self.basic_cols] = x_b
        tol = _PRIMAL_TOL
        ax = prob.A @ x
        if not (np.all(x >= prob.lb - tol) and np.all(x <= prob.ub + tol)
                and np.all(ax >= prob.row_lo - tol) and np.all(ax <= prob.row_hi + tol)):
            return None
        return x


_PRIMAL_TOL = _COMMON_OPTIONS["primal_feasibility_tolerance"]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or np.array_equal(a, b)


def factored_start(prob: LinearProgram, sol: LpSolution) -> FactoredStart:
    """The start made of sol's optimal simplex basis of prob, with the
    square matrix of its basic columns over its nonbasic rows factored
    (``scipy.sparse.linalg.splu``).  The basis has one basic entry per
    row, so there are as many basic columns as nonbasic rows.  When that
    matrix cannot be factored, the start only runs HiGHS from the basis."""
    if sol.highs_basis is None:
        raise ValueError("a factored start needs the basis of an optimal simplex run")
    cols = np.array([int(s) for s in sol.highs_basis.col_status])
    rows = np.array([int(s) for s in sol.highs_basis.row_status])
    basic = _CODE_OF[BASIC]
    basic_cols, nonbasic_cols = np.flatnonzero(cols == basic), np.flatnonzero(cols != basic)
    fixed_rows = np.flatnonzero(rows != basic)
    row_status = rows[fixed_rows]
    row_values = np.where(row_status == _CODE_OF[highs.HighsBasisStatus.kUpper],
                          prob.row_hi[fixed_rows],
                          np.where(row_status == _CODE_OF[highs.HighsBasisStatus.kZero], 0.0,
                                   prob.row_lo[fixed_rows]))
    nonbasic_status = cols[nonbasic_cols]
    A_rows = prob.A[fixed_rows]
    try:
        lu = splu(A_rows[:, basic_cols].tocsc()) if np.all(np.isfinite(row_values)) else None
    except (RuntimeError, ValueError):  # singular, or no basic column
        lu = None
    return FactoredStart(
        prob, sol.highs_basis, basic_cols, nonbasic_cols,
        nonbasic_status == _CODE_OF[highs.HighsBasisStatus.kUpper],
        nonbasic_status == _CODE_OF[highs.HighsBasisStatus.kZero],
        A_rows[:, nonbasic_cols].tocsr(), row_values, lu,
    )


def solve_lp(prob: LinearProgram, method: str = "highs", basis: Optional[Start] = None) -> LpSolution:
    """Solve an LP, classifying the outcome.

    method selects the HiGHS algorithm: "highs" runs dual simplex without
    presolve; "highs-ipm" runs the interior-point method, which is much
    faster on the large sparse programs built by the set-erosion
    routine.

    basis warm-starts simplex (IPM ignores it), as in ``linprog``;
    callers pass the bases that ``cztube.czset`` sets out, and any
    nonsingular basis is a valid start.  A warm start changes how the
    solver gets to its verdict, not how the verdict is checked.  A
    ``FactoredStart`` that ``serves`` prob is tried first: its basic
    solution at prob's bounds, when it lies within them
    (``FactoredStart.solution_at``) and passes the OPTIMAL recheck
    below, is returned OPTIMAL with the start's basis, and no HiGHS
    model is made.  Otherwise simplex runs from the start's basis.

    The contract on the result:

    * OPTIMAL only after the returned point has been re-checked against
      the row-scaled feasibility tolerance FEAS_TOL.
    * INFEASIBLE only with a Farkas ray that ``farkas_certifies`` has
      checked against the program's own rows, returned as
      ``LpSolution.ray``, or by inspection, with no ray: contradictory
      column bounds, or a single row that ``single_row_certifies``.
      The interior-point path yields no ray, so its infeasibility
      verdict is re-solved once with presolve-free simplex to obtain
      one.
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
    if isinstance(basis, FactoredStart):
        if basis.serves(prob):
            x = basis.solution_at(prob)
            if x is not None and _feasibility_residual(prob, x) <= FEAS_TOL:
                return LpSolution(LpStatus.OPTIMAL, x, float(prob.c_obj @ x), basis.highs_basis)
        basis = basis.highs_basis
    sol = _solve_once(prob, method, basis)
    if sol.status == LpStatus.NUMERICAL_FAILURE:
        fallback = "highs" if method == "highs-ipm" else "highs-ipm"
        sol = _solve_once(prob, fallback)
    return sol


def _solve_once(prob: LinearProgram, method: str, basis: Optional[Start] = None) -> LpSolution:
    if np.any(prob.lb > prob.ub):
        return LpSolution(LpStatus.INFEASIBLE)
    if prob.n_vars == 0:
        # HiGHS reports a program with no columns as empty, without a
        # verdict; each of its rows alone settles it
        if single_row_certifies(prob):
            return LpSolution(LpStatus.INFEASIBLE)
        return LpSolution(LpStatus.OPTIMAL, np.zeros(0), 0.0)

    run = linprog(prob, method, basis)
    if run.status in _INFEASIBLE and method == "highs-ipm":
        run = linprog(prob, "highs")
    if run.status in _INFEASIBLE:
        if run.ray is not None and farkas_certifies(prob, run.ray):
            return LpSolution(LpStatus.INFEASIBLE, ray=run.ray)
        if single_row_certifies(prob):
            return LpSolution(LpStatus.INFEASIBLE)
        return LpSolution(LpStatus.NUMERICAL_FAILURE)
    if run.status == highs.HighsModelStatus.kUnbounded:
        return LpSolution(LpStatus.UNBOUNDED)
    if run.x is None:
        return LpSolution(LpStatus.NUMERICAL_FAILURE)

    x = run.x
    if not _feasibility_residual(prob, x) <= FEAS_TOL:
        return LpSolution(LpStatus.NUMERICAL_FAILURE)
    return LpSolution(LpStatus.OPTIMAL, x, float(prob.c_obj @ x), run.basis)

