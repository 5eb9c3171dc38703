"""Tests for the linear-program layer."""

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
    dump_lp,
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


def test_dump_lp_roundtrips_values(tmp_path):
    prob = LinearProgram(
        c_obj=[1.0, -2.0],
        E=[[1.0, 1.0]],
        f=[0.125],
        H=[[0.5, 0.0]],
        g=[3.0],
        lb=[-1.0, -1.0],
        ub=[1.0, 1.0],
    )
    path = tmp_path / "prob.lp.txt"
    dump_lp(prob, path)
    text = path.read_text()
    assert "0.125" in text and "minimize" in text.lower()


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

    def spy(prob, ray, rows=None):
        ok = farkas_certifies(prob, ray, rows)
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


def test_basis_of_the_wrong_shape_is_rejected():
    at, f = _rhs_family(np.random.default_rng(24))
    basis = solve_lp(at(f)).basis
    with pytest.raises(ValueError):
        solve_lp(at(f), basis=LpBasis(basis.cols[:-1], basis.rows))


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
