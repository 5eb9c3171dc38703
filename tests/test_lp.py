"""Tests for the linear-program layer."""

import copy
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from cztube import lp
from cztube.lp import (
    BASIC,
    FEAS_TOL,
    HighsRun,
    LinearProgram,
    LpBasis,
    LpStatus,
    _feasibility_residual,
    farkas_certifies,
    single_row_certifies,
    solve_lp,
)

DATA = Path(__file__).resolve().parent / "data"


def test_interval_endpoint():
    # minimize x on [-1, 1] -> x = -1
    prob = LinearProgram(c_obj=[1.0], lb=[-1.0], ub=[1.0])
    sol = solve_lp(prob)
    assert sol.status == LpStatus.OPTIMAL
    assert abs(sol.x_opt[0] + 1.0) <= 1e-9
    assert abs(sol.objective_value + 1.0) <= 1e-9


def test_contradictory_bounds_infeasible():
    prob = LinearProgram(c_obj=[0.0], lb=[1.0], ub=[-1.0])
    sol = solve_lp(prob)
    assert sol.status == LpStatus.INFEASIBLE


def test_simplex_facet_optimum():
    # minimize -x - y over the 2-simplex: optimum -1 anywhere on x + y = 1
    prob = LinearProgram(
        c_obj=[-1.0, -1.0],
        H=[[1.0, 1.0]],
        g=[1.0],
        lb=[0.0, 0.0],
        ub=[np.inf, np.inf],
    )
    sol = solve_lp(prob)
    assert sol.status == LpStatus.OPTIMAL
    assert abs(sol.objective_value + 1.0) <= 1e-9
    assert abs(sol.x_opt.sum() - 1.0) <= 1e-9


def test_unbounded():
    prob = LinearProgram(c_obj=[-1.0])
    sol = solve_lp(prob)
    assert sol.status == LpStatus.UNBOUNDED


def test_zero_variable_problems():
    assert solve_lp(LinearProgram(c_obj=[])).status == LpStatus.OPTIMAL
    bad = LinearProgram(c_obj=[], E=np.zeros((1, 0)), f=[1.0])
    assert solve_lp(bad).status == LpStatus.INFEASIBLE


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram(c_obj=[1.0, 2.0], E=[[1.0]], f=[0.0])
    with pytest.raises(ValueError):
        LinearProgram(c_obj=[1.0], H=[[1.0]], g=[0.0, 1.0])
    with pytest.raises(ValueError):
        LinearProgram(c_obj=[1.0], lb=[0.0, 0.0])


def test_determinism_repeated_solves():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 8
        prob = LinearProgram(
            c_obj=rng.normal(size=n),
            H=rng.normal(size=(4, n)),
            g=rng.normal(size=4) + 4.0,
            lb=-np.ones(n),
            ub=np.ones(n),
        )
        a = solve_lp(prob)
        b = solve_lp(prob)
        assert a.status == b.status == LpStatus.OPTIMAL
        assert a.objective_value == b.objective_value
        assert np.array_equal(a.x_opt, b.x_opt)


def test_constructed_infeasibility_detected():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = rng.integers(2, 10)
        prob = LinearProgram(
            c_obj=rng.normal(size=n),
            H=np.vstack([np.eye(n)[:1], -np.eye(n)[:1]]),
            g=[-50.0, -50.0],  # x_0 <= -50 and x_0 >= 50
            lb=-np.full(n, 100.0),
            ub=np.full(n, 100.0),
        )
        assert solve_lp(prob).status == LpStatus.INFEASIBLE


# -- the certificate contract ---------------------------------------------


def _random_feasible_lp(rng, n=6, m_eq=2, m_ub=3):
    x_feas = rng.uniform(-0.5, 0.5, size=n)
    E = rng.normal(size=(m_eq, n))
    H = rng.normal(size=(m_ub, n))
    return LinearProgram(
        c_obj=rng.normal(size=n),
        E=E,
        f=E @ x_feas,
        H=H,
        g=H @ x_feas + rng.uniform(0.1, 1.0, size=m_ub),
        lb=-np.ones(n),
        ub=np.ones(n),
    )


@pytest.fixture
def certificate_spy(monkeypatch):
    """Record every verdict of farkas_certifies made inside solve_lp."""
    verdicts = []

    def spy(prob, ray):
        ok = farkas_certifies(prob, ray)
        verdicts.append(ok)
        return ok

    monkeypatch.setattr(lp, "farkas_certifies", spy)
    return verdicts


def test_criterion_03_degenerate_lp_is_optimal():
    """The fixed-cost feasibility LP of criterion 03's probe k=40, j=7.

    Captured by running criterion 03 (tests/test_acceptance.py: the
    deterministic N=46 tube with 100 thrust points, probe seed 7) with
    ``cztube.guidance.solve_lp`` wrapped to keep its last argument, and
    saving the LP that ``full_horizon_oracle`` built for the extreme
    point of CS_40 along probe direction j=7 with
    ``numpy.savez_compressed``: E as CSR arrays, f, bounds and the zero
    objective (747 variables, 154 equality rows, 56 free columns, no
    inequalities).  HiGHS presolve declares this LP infeasible although
    presolve-free simplex and interior point both solve it; the point
    was reported infeasible while the oracle's minimum-cost LP reached
    the same cost-to-go.
    """
    d = np.load(DATA / "criterion03_k40_j7_feasibility_lp.npz")
    E = sp.csr_matrix((d["E_data"], d["E_indices"], d["E_indptr"]), shape=tuple(d["E_shape"]))
    prob = LinearProgram(d["c_obj"], E, d["f"], lb=d["lb"], ub=d["ub"])
    assert (prob.n_vars, E.shape[0], int(np.sum(np.isinf(prob.lb)))) == (747, 154, 56)
    sol = solve_lp(prob)
    assert sol.status == LpStatus.OPTIMAL
    assert _feasibility_residual(prob, sol.x_opt) <= FEAS_TOL


@pytest.mark.parametrize("ray", [None, "bogus"])
def test_uncertified_infeasible_verdict_is_never_reported(monkeypatch, ray):
    # a backend that calls every LP infeasible, with no ray or a ray that
    # proves nothing, on LPs that are feasible
    def lying_backend(prob, method="highs", basis=None):
        bogus = np.ones(prob.E.shape[0] + prob.H.shape[0])
        return HighsRun(lp.highs.HighsModelStatus.kInfeasible, 0,
                        ray=None if ray is None else bogus)

    monkeypatch.setattr(lp, "linprog", lying_backend)
    rng = np.random.default_rng(5)
    for _ in range(10):
        prob = _random_feasible_lp(rng)
        for method in ("highs", "highs-ipm"):
            assert solve_lp(prob, method).status == LpStatus.NUMERICAL_FAILURE
        zero = LinearProgram(np.zeros(prob.n_vars), prob.E, prob.f, prob.H, prob.g,
                             prob.lb, prob.ub)
        assert solve_lp(zero).status == LpStatus.NUMERICAL_FAILURE


def test_infinite_right_hand_sides_keep_both_verdicts_checkable(monkeypatch):
    # a row with an infinite right-hand side scales no residual: the
    # recheck passes a feasible point, and a ray that leaves the row out
    # still certifies (its slack used to be 0 * inf = nan)
    prob = LinearProgram(c_obj=[1.0], H=[[1.0], [-1.0]], g=[np.inf, 0.0], lb=[-5.0], ub=[5.0])
    assert prob.row_scale.tolist() == [1.0, 1.0]
    sol = solve_lp(prob)
    assert sol.status == LpStatus.OPTIMAL and sol.x_opt.tolist() == [0.0]
    assert _feasibility_residual(prob, sol.x_opt) == 0.0
    empty = LinearProgram(c_obj=[0.0], H=[[1.0], [-1.0], [1.0]], g=[np.inf, -2.0, 1.0])
    assert farkas_certifies(empty, [0.0, -1.0, -1.0])
    assert solve_lp(empty).status == LpStatus.INFEASIBLE
    # a point with a NaN never meets the recheck
    monkeypatch.setattr(lp, "linprog", lambda prob, method="highs", basis=None: HighsRun(
        lp.highs.HighsModelStatus.kOptimal, 0, x=np.array([np.nan])))
    assert solve_lp(prob).status == LpStatus.NUMERICAL_FAILURE


def test_false_infeasible_verdict_recovers_on_retry(monkeypatch):
    # the first run lies; the retry with the other algorithm is honest
    calls = []
    honest = lp.linprog

    def flaky_backend(prob, method="highs", basis=None):
        calls.append(method)
        if len(calls) == 1:
            return HighsRun(lp.highs.HighsModelStatus.kInfeasible, 0)
        return honest(prob, method, basis)

    monkeypatch.setattr(lp, "linprog", flaky_backend)
    prob = _random_feasible_lp(np.random.default_rng(9))
    sol = solve_lp(prob)
    assert sol.status == LpStatus.OPTIMAL
    assert calls == ["highs", "highs-ipm"]


def test_no_ray_certifies_a_feasible_lp():
    # weak duality: with a feasible point no ray may pass the check
    rng = np.random.default_rng(13)
    for _ in range(20):
        prob = _random_feasible_lp(rng)
        m = prob.E.shape[0] + prob.H.shape[0]
        for _ in range(20):
            assert not farkas_certifies(prob, rng.normal(size=m))
        assert not single_row_certifies(prob)


def _farkas_two_products(prob, ray):
    """farkas_certifies as first written: |A|'|y| always, and A'y formed
    once for y and once for -y.  The reference for the one-product form."""
    A, row_lo, row_hi = prob.A, prob.row_lo, prob.row_hi
    y = np.asarray(ray, dtype=float).ravel()
    peak = float(np.abs(y).max(initial=0.0))
    if peak == 0.0:
        return False
    y = y / peak
    y[np.abs(y) <= lp.RAY_TOL] = 0.0
    slack = FEAS_TOL * float(np.abs(y) @ prob.row_scale)
    rounding = lp.RAY_TOL * (abs(A).T @ np.abs(y))
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


def test_farkas_check_matches_the_two_product_form():
    # random LPs built around a ray y: inequality weights of one sign,
    # free columns made orthogonal to y up to rounding, and a margin of
    # either sign set through the last equality row's right-hand side;
    # y, -y, perturbed and unrelated rays all get the reference verdict
    rng = np.random.default_rng(17)
    verdicts = []
    for trial in range(60):
        n, m_eq, m_ub = rng.integers(3, 9), rng.integers(1, 4), rng.integers(0, 4)
        y = np.concatenate([rng.normal(size=m_eq), -rng.uniform(0.1, 1.0, size=m_ub)])
        E, H = rng.normal(size=(m_eq, n)), rng.normal(size=(m_ub, n))
        lb, ub = -rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)
        free = rng.random(n) < (0.0 if trial % 3 == 0 else 0.4)
        lb[free], ub[free] = -np.inf, np.inf
        A = np.vstack([H, E])
        y_rows = np.concatenate([y[m_eq:], y[:m_eq]])
        A[:, free] -= np.outer(y_rows, y_rows @ A[:, free]) / (y_rows @ y_rows)
        H, E = A[:m_ub], A[m_ub:]
        z, lo, hi = A.T @ y_rows, lb[~free], ub[~free]
        box_max = float(np.sum(np.where(z[~free] > 0, z[~free] * hi, z[~free] * lo)))
        g = rng.normal(size=m_ub)
        f = rng.normal(size=m_eq)
        margin = rng.uniform(-1.0, 1.0)
        rest = float(y[m_eq:] @ g + y[: m_eq - 1] @ f[:-1])
        f[-1] = (box_max + margin - rest) / y[m_eq - 1]
        prob = LinearProgram(rng.normal(size=n), sp.csr_matrix(E), f, sp.csr_matrix(H), g, lb, ub)
        for ray in (y_rows, -y_rows, y_rows + 1e-12 * rng.normal(size=y.size),
                    y_rows + 1e-3 * rng.normal(size=y.size), rng.normal(size=y.size)):
            ref = _farkas_two_products(prob, ray)
            assert farkas_certifies(prob, ray) == ref
            verdicts.append(ref)
    assert any(verdicts) and not all(verdicts)


def test_infinite_bounds_in_the_farkas_check():
    # -x <= -1 and x <= 0 with x free: y = (-1, -1) sums the rows to 0 <= -1
    prob = LinearProgram(c_obj=[0.0], H=[[-1.0], [1.0]], g=[-1.0, 0.0])
    assert farkas_certifies(prob, [-1.0, -1.0])
    assert farkas_certifies(prob, [1.0, 1.0])  # either sign is tried
    # a ray leaving A'y nonzero on the free column needs x = +-inf
    assert not farkas_certifies(prob, [-1.0, -0.5])
    # a positive weight on an inequality row needs its -inf lower side
    assert not farkas_certifies(prob, [1.0, -1.0])
    assert not farkas_certifies(prob, [0.0, 0.0])
    assert not farkas_certifies(prob, [np.nan, 1.0])
    assert solve_lp(prob).status == LpStatus.INFEASIBLE


def test_infeasible_verdicts_carry_a_checked_ray(certificate_spy):
    rng = np.random.default_rng(3)
    prob = LinearProgram(
        c_obj=rng.normal(size=4),
        H=np.vstack([np.eye(4)[:1], -np.eye(4)[:1]]),
        g=[-50.0, -50.0],
        lb=-np.full(4, 100.0),
        ub=np.full(4, 100.0),
    )
    assert solve_lp(prob).status == LpStatus.INFEASIBLE
    conflict = LinearProgram(c_obj=[0.0], E=[[1.0]], f=[2.0], lb=[-1.0], ub=[1.0])
    assert solve_lp(conflict).status == LpStatus.INFEASIBLE
    assert certificate_spy == [True, True]
    # the interior-point path has no ray and re-solves with simplex for one
    assert solve_lp(prob, "highs-ipm").status == LpStatus.INFEASIBLE
    assert certificate_spy == [True, True, True]


def test_contradictory_bounds_need_no_solver(monkeypatch):
    monkeypatch.setattr(lp, "linprog", None)
    prob = LinearProgram(c_obj=[0.0, 0.0], lb=[0.0, 1.0], ub=[1.0, -1.0])
    assert solve_lp(prob).status == LpStatus.INFEASIBLE


def test_row_dropped_by_the_solver_is_certified_by_inspection():
    # HiGHS drops the 1e-12 entry, finds the row 0 = 4 before any simplex
    # iteration and returns no ray; the row alone proves infeasibility
    prob = LinearProgram(c_obj=[0.0, 1.0], E=[[-1e-12, 0.0]], f=[4.0], lb=[-1.0, -1.0], ub=[1.0, 1.0])
    assert lp.linprog(prob).ray is None
    assert single_row_certifies(prob)
    assert solve_lp(prob).status == LpStatus.INFEASIBLE


def test_single_row_check_leaves_given_rows_untouched():
    # the caller's row holds a stored zero against an infinite bound; the
    # program's canonical copy drops it, so the check forms no nan, and
    # the caller's matrix keeps its entries
    A = sp.csr_matrix((np.array([0.0, 1.0]), np.array([0, 1]), np.array([0, 2])), shape=(1, 2))
    prob = LinearProgram(c_obj=[0.0, 0.0], E=A, f=[2.0], lb=[-np.inf, -1.0], ub=[np.inf, 1.0])
    assert prob.E is not A and prob.A.nnz == 1
    with np.errstate(invalid="raise"):
        assert single_row_certifies(prob)
    assert solve_lp(prob).status == LpStatus.INFEASIBLE
    assert A.nnz == 2 and A.data.tolist() == [0.0, 1.0]


def test_program_without_columns_matches_the_absolute_check():
    # the verdicts of the inspection that settled column-free programs
    # before single_row_certifies did: |f| <= FEAS_TOL and g >= -FEAS_TOL
    def inspection(f, g):
        return abs(f) <= FEAS_TOL and g >= -FEAS_TOL

    values = [0.0, 0.5]
    for v in (FEAS_TOL, 1.0):
        for s in (v, -v):
            values += [s, np.nextafter(s, np.inf), np.nextafter(s, -np.inf)]
    verdicts = []
    for f in values:
        for g in values:
            prob = LinearProgram(np.zeros(0), np.zeros((1, 0)), [f], np.zeros((1, 0)), [g])
            sol = solve_lp(prob)
            feasible = inspection(f, g)
            assert sol.status == (LpStatus.OPTIMAL if feasible else LpStatus.INFEASIBLE), (f, g)
            verdicts.append(feasible)
    assert any(verdicts) and not all(verdicts)


def test_infeasible_verdict_carries_the_ray_it_certified():
    # the ray proves its own program infeasible, and every program of the
    # family whose rhs lies farther out on the same line; it stops
    # certifying once the rhs is back in the feasible region
    at, f_in = _rhs_family(np.random.default_rng(11))
    f_out = f_in + 40.0 * np.eye(f_in.size)[0]
    sol = solve_lp(at(f_out))
    assert sol.status == LpStatus.INFEASIBLE and sol.ray is not None
    assert farkas_certifies(at(f_out), sol.ray)
    assert farkas_certifies(at(2.0 * f_out - f_in), sol.ray)
    assert not farkas_certifies(at(f_in), sol.ray)
    assert solve_lp(at(f_in)).status == LpStatus.OPTIMAL


def test_no_ray_without_a_ray_certified_verdict(monkeypatch):
    at, f_in = _rhs_family(np.random.default_rng(11))
    optimal = solve_lp(at(f_in))
    assert optimal.status == LpStatus.OPTIMAL and optimal.ray is None
    # verdicts by inspection: the row HiGHS drops, then contradictory
    # bounds with the solver gone
    dropped = LinearProgram(c_obj=[0.0, 1.0], E=[[-1e-12, 0.0]], f=[4.0],
                            lb=[-1.0, -1.0], ub=[1.0, 1.0])
    single = solve_lp(dropped)
    assert single.status == LpStatus.INFEASIBLE and single.ray is None
    monkeypatch.setattr(lp, "linprog", None)
    bounds = solve_lp(LinearProgram(c_obj=[0.0, 0.0], lb=[0.0, 1.0], ub=[1.0, -1.0]))
    assert bounds.status == LpStatus.INFEASIBLE and bounds.ray is None


def _max_reference(M, rhs):
    """Row scales by SciPy's sparse max, on a copy (it sums duplicates in place)."""
    row_max = np.asarray(abs(M.copy()).max(axis=1).todense()).ravel()
    return np.maximum(1.0, np.maximum(row_max, np.abs(rhs)))


def _scales(M, rhs):
    """Row scales of M as equality rows and as inequality rows."""
    n = M.shape[1]
    return (LinearProgram(np.zeros(n), E=M, f=rhs).row_scale,
            LinearProgram(np.zeros(n), H=M, g=rhs).row_scale)


def test_row_scale_matches_the_sparse_max():
    # rows: empty, a stored zero only, duplicates that cancel, unsorted
    # duplicates that add up past the rhs, and an empty last row
    M = sp.csr_matrix(
        (np.array([0.0, 3.0, -3.0, 2.5, -1.0, 0.5, -1.25, 1.0]),
         np.array([2, 1, 1, 0, 3, 0, 3, 0]),
         np.array([0, 0, 1, 4, 8, 8])),
        shape=(5, 4),
    )
    rhs = np.array([0.5, -0.25, 2.0, 1.0, 0.0])
    given = [a.tobytes() for a in (M.indptr, M.indices, M.data)]
    for scale in _scales(M, rhs):
        assert scale.tolist() == [1.0, 1.0, 2.5, 2.25, 1.0]
    assert [a.tobytes() for a in (M.indptr, M.indices, M.data)] == given
    rng = np.random.default_rng(41)
    for _ in range(50):
        m, n = rng.integers(1, 8), rng.integers(1, 8)
        nnz = rng.integers(0, 16)
        r = np.sort(rng.integers(0, m, nnz))
        data = rng.normal(size=nnz) * 4
        data[rng.random(nnz) < 0.2] = 0.0
        indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=m))])
        M = sp.csr_matrix((data, rng.integers(0, n, nnz), indptr), shape=(m, n))
        rhs = rng.normal(size=m) * 2
        for scale in _scales(M, rhs):
            assert scale.tobytes() == _max_reference(M, rhs).tobytes()


# -- warm starts ------------------------------------------------------------


def _rhs_family(rng, n=12, m=5):
    """An equality LP over the unit box and a way to move its rhs."""
    E = rng.normal(size=(m, n))
    c = rng.normal(size=n)

    def at(f):
        return LinearProgram(c, E, f, lb=-np.ones(n), ub=np.ones(n))

    return at, E @ rng.uniform(-0.5, 0.5, size=n)


def test_optimal_simplex_run_reports_its_basis():
    at, f = _rhs_family(np.random.default_rng(21))
    sol = solve_lp(at(f))
    basis = sol.basis
    assert isinstance(basis, LpBasis)
    assert (len(basis.cols), len(basis.rows)) == (12, 5)
    assert sum(s == BASIC for s in basis.cols + basis.rows) == 5
    # interior point reports none and ignores a starting basis
    ipm = solve_lp(at(f), "highs-ipm", basis=basis)
    assert ipm.status == LpStatus.OPTIMAL and ipm.basis is None
    assert abs(ipm.objective_value - sol.objective_value) <= 1e-7


def test_solution_basis_shares_the_status_singletons():
    # like a basis decoded from a tube file, a basis read from a solve
    # holds the module's few status objects, not one object per entry
    at, f = _rhs_family(np.random.default_rng(26), n=200, m=40)
    sol = solve_lp(at(f))
    basis = sol.basis
    assert len(basis.cols) == 200
    assert len({id(s) for s in basis.cols + basis.rows}) <= len(lp._STATUSES)
    raw = sol.highs_basis
    assert basis == LpBasis(tuple(raw.col_status), tuple(raw.row_status))
    assert basis == LpBasis.from_codes(basis.codes(), 200)


def test_warm_start_matches_cold_solve():
    # the optimal basis of one rhs stays dual feasible for every other
    # rhs; warm and cold agree on the verdict and the optimum, and a warm
    # infeasible verdict still carries a checked ray
    rng = np.random.default_rng(22)
    seen = set()
    for _ in range(10):
        at, f0 = _rhs_family(rng)
        basis = solve_lp(at(f0)).basis
        for scale in (0.1, 1.0, 30.0):
            prob = at(f0 + scale * rng.normal(size=f0.size))
            cold = solve_lp(prob)
            warm = solve_lp(prob, basis=basis)
            assert warm.status == cold.status
            seen.add(cold.status)
            if cold.status == LpStatus.OPTIMAL:
                assert abs(warm.objective_value - cold.objective_value) <= 1e-9 * max(
                    1.0, abs(cold.objective_value))
                assert _feasibility_residual(prob, warm.x_opt) <= FEAS_TOL
    assert seen == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}


def test_warm_start_from_a_dual_feasible_basis_stays_dual_simplex(monkeypatch):
    # a warm run lets HiGHS choose the simplex variant; from a basis that
    # is dual but not primal feasible it picks dual simplex, so the run
    # is the one that dual simplex forced by name makes
    rng = np.random.default_rng(26)
    chosen, forced = [], []
    for _ in range(10):
        at, f0 = _rhs_family(rng, n=30, m=12)
        basis = solve_lp(at(f0)).basis
        prob = at(f0 + rng.normal(size=f0.size))
        chosen.append(lp.linprog(prob, "highs", basis))
        with monkeypatch.context() as m:
            m.setattr(lp, "_WARM_OPTIONS", {"simplex_strategy": 1})
            forced.append(lp.linprog(prob, "highs", basis))
    assert any(run.nit > 0 for run in forced)
    for a, b in zip(chosen, forced):
        assert a.status == b.status and a.nit == b.nit
        if a.x is not None:
            assert np.array_equal(a.x, b.x)


def test_warm_start_from_a_primal_feasible_basis():
    # the optimal basis of one objective is primal feasible for any other
    # over the same rows: the warm run agrees with a cold one
    rng = np.random.default_rng(27)
    for _ in range(10):
        at, f = _rhs_family(rng, n=30, m=12)
        basis = solve_lp(at(f)).basis
        prob = at(f)
        prob.c_obj = rng.normal(size=prob.n_vars)
        cold = solve_lp(prob)
        warm = solve_lp(prob, basis=basis)
        assert warm.status == cold.status == LpStatus.OPTIMAL
        assert abs(warm.objective_value - cold.objective_value) <= FEAS_TOL * max(
            1.0, abs(cold.objective_value))
        assert _feasibility_residual(prob, warm.x_opt) <= FEAS_TOL


def test_highs_basis_starts_as_the_lp_basis_it_converts_to():
    # HiGHS's own basis of an optimum is set as it is: the run from it is
    # the run from its LpBasis, for a nearby right-hand side
    rng = np.random.default_rng(23)
    for _ in range(5):
        at, f0 = _rhs_family(rng, n=30, m=12)
        sol = solve_lp(at(f0))
        prob = at(f0 + 0.1 * rng.normal(size=f0.size))
        raw = lp.linprog(prob, "highs", sol.highs_basis)
        converted = lp.linprog(prob, "highs", sol.basis)
        assert raw.status == converted.status and raw.nit == converted.nit
        if raw.x is not None:
            assert np.array_equal(raw.x, converted.x)


def test_basis_of_the_wrong_shape_is_rejected():
    at, f = _rhs_family(np.random.default_rng(24))
    sol = solve_lp(at(f))
    basis = sol.basis
    with pytest.raises(ValueError):
        solve_lp(at(f), basis=LpBasis(basis.cols[:-1], basis.rows))
    other, g = _rhs_family(np.random.default_rng(24), n=11)
    with pytest.raises(ValueError):
        solve_lp(other(g), basis=sol.highs_basis)


def test_failure_with_a_basis_is_retried_cold(monkeypatch):
    # the warm run fails; the retry runs the other algorithm with no basis
    at, f = _rhs_family(np.random.default_rng(25))
    basis = solve_lp(at(f)).basis
    calls = []
    honest = lp.linprog

    def flaky_backend(prob, method="highs", basis=None):
        calls.append((method, basis))
        if len(calls) == 1:
            return HighsRun(lp.highs.HighsModelStatus.kSolveError, 0)
        return honest(prob, method, basis)

    monkeypatch.setattr(lp, "linprog", flaky_backend)
    sol = solve_lp(at(f), basis=basis)
    assert sol.status == LpStatus.OPTIMAL
    assert calls == [("highs", basis), ("highs-ipm", None)]


def test_held_model_serves_only_the_same_rows_bounds_and_options(monkeypatch):
    # a model is held from the second LP on one set of rows, and serves
    # only a copy of that program with its own costs, run by the same
    # method with the same options; every other LP builds its own model
    builds = []
    build = lp._fresh_model

    def spy(prob, options):
        builds.append(prob)
        return build(prob, options)

    monkeypatch.setattr(lp, "_fresh_model", spy)
    rng = np.random.default_rng(28)
    prob = _random_feasible_lp(rng, n=20, m_eq=4, m_ub=6)
    basis = solve_lp(prob).basis

    def with_costs(c):
        out = copy.copy(prob)
        out.c_obj = c
        return out

    def with_lower_bound(lb):
        out = copy.copy(prob)
        out.lb = lb
        return out

    same_values = LinearProgram(prob.c_obj, prob.E, prob.f, prob.H, prob.g, prob.lb, prob.ub)
    steps = [
        (lambda: lp.linprog(prob), 1),  # the rows of the LP before: held
        (lambda: lp.linprog(with_costs(rng.normal(size=20))), 0),
        (lambda: lp.linprog(with_costs(rng.normal(size=20))), 0),
        (lambda: lp.linprog(prob, "highs", basis), 1),  # other options
        (lambda: lp.linprog(prob), 1),
        (lambda: lp.linprog(with_lower_bound(prob.lb.copy())), 0),  # equal bounds
        (lambda: lp.linprog(with_lower_bound(prob.lb / 2)), 1),
        (lambda: lp.linprog(same_values), 1),  # equal rows, other objects
        (lambda: lp.linprog(prob, "highs-ipm"), 1),
        (lambda: lp.linprog(prob, "highs-ipm"), 1),
        (lambda: lp.linprog(prob, "highs-ipm"), 1),  # an IPM model is never held
        (lambda: lp.linprog(prob), 1),
        (lambda: lp.linprog(prob), 0),
    ]
    for i, (run, built) in enumerate(steps):
        del builds[:]
        assert run().status == lp.highs.HighsModelStatus.kOptimal
        assert len(builds) == built, i


def test_rerun_on_a_held_model_continues_from_its_last_optimum():
    # the same program run again, cold and warm: from the third run on
    # the held model serves, starts at the optimum it holds, and takes no
    # iteration to the fresh runs' point
    rng = np.random.default_rng(29)
    for _ in range(5):
        for warm in (False, True):
            prob = _random_feasible_lp(rng, n=20, m_eq=4, m_ub=6)
            basis = LpBasis((lp.NONBASIC,) * prob.n_vars, (BASIC,) * prob.A.shape[0]) if warm else None
            runs = [lp.linprog(prob, "highs", basis) for _ in range(4)]
            assert runs[0].nit == runs[1].nit > 0
            assert np.array_equal(runs[1].x, runs[0].x)
            for run in runs[2:]:
                assert run.nit == 0
                assert np.array_equal(run.x, runs[0].x)


def test_sweep_on_a_held_model_matches_fresh_runs_in_fewer_iterations():
    # a footprint's sweep: 16 neighbouring directions of a 2-dim image of
    # one program, cold and from the program's optimal basis.  Each served
    # run ends as a fresh run of its LP does, within rounding, and the
    # sweep, continuing from each direction's optimum, takes fewer
    # iterations than the fresh runs
    rng = np.random.default_rng(30)
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    for _ in range(5):
        prob = _random_feasible_lp(rng, n=40, m_eq=8, m_ub=12)
        G = rng.normal(size=(2, prob.n_vars))
        costs = [-(G.T @ np.array([np.cos(a), np.sin(a)])) for a in angles]
        for basis in (None, solve_lp(prob).basis):
            served = []
            for c in costs:
                out = copy.copy(prob)
                out.c_obj = c
                served.append(lp.linprog(out, "highs", basis))
            fresh = [lp.linprog(LinearProgram(c, prob.E, prob.f, prob.H, prob.g, prob.lb, prob.ub),
                                "highs", basis) for c in costs]
            for c, a, b in zip(costs, served, fresh):
                assert a.status == b.status == lp.highs.HighsModelStatus.kOptimal
                assert abs(c @ a.x - c @ b.x) <= 1e-9 * max(1.0, abs(c @ b.x))
            assert sum(run.nit for run in served) < sum(run.nit for run in fresh)


def test_program_with_one_block_of_rows_holds_that_block():
    # A = [H; E] is the block itself when the other has no rows, so no
    # program copies its rows; with both, the rows of H come first
    E = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.0]]))
    H = sp.csr_matrix(np.array([[0.0, 3.0, 1.0]]))
    only_e = LinearProgram(c_obj=np.zeros(3), E=E, f=[1.0, 2.0])
    only_h = LinearProgram(c_obj=np.zeros(3), H=H, g=[4.0])
    both = LinearProgram(c_obj=np.zeros(3), E=E, f=[1.0, 2.0], H=H, g=[4.0])
    assert only_e.A is only_e.E is E and only_h.A is only_h.H is H
    assert only_e.row_lo.tolist() == only_e.row_hi.tolist() == [1.0, 2.0]
    assert only_h.row_lo.tolist() == [-np.inf] and only_h.row_hi.tolist() == [4.0]
    assert both.A.toarray().tolist() == [[0.0, 3.0, 1.0], [1.0, 0.0, 2.0], [0.0, -1.0, 0.0]]
    for prob in (only_e, only_h, both):
        assert solve_lp(prob).status == LpStatus.OPTIMAL
