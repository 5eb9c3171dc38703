"""Tests for the constrained-zonotope algebra."""

import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from cztube import czset, lp
from cztube.czset import (
    ConstrainedZonotope,
    EmptySetError,
    Halfspace,
    NotFullDimensionalError,
    min_cost_direction,
)
from cztube.guidance import one_step_ocp
from cztube.landing import DiscreteDynamics
from cztube.lp import FEAS_TOL, SMALL_MATRIX_VALUE, HighsRun, LpError, LpSolution, LpStatus

CZ = ConstrainedZonotope


def rotated_square(angle=math.pi / 4):
    R = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    return CZ.from_box([-1.0, -1.0], [1.0, 1.0]).affine_map(R)


def random_cz(rng, dim=3, n_g=6, n_e=2):
    G = rng.normal(size=(dim, n_g))
    c = rng.normal(size=dim)
    A = rng.normal(size=(n_e, n_g)) * 0.3
    b = A @ rng.uniform(-0.5, 0.5, size=n_g)
    return CZ(G, c, A, b)


# -- constructors ----------------------------------------------------------


def test_from_box_unit():
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0])
    assert np.allclose(z.G, np.eye(2))
    assert np.allclose(z.c, 0.0)
    assert z.n_constraints == 0


def test_from_box_shifted():
    z = CZ.from_box([0.0, 1.0], [2.0, 3.0])
    assert np.allclose(z.G, np.eye(2))
    assert np.allclose(z.c, [1.0, 2.0])


def test_from_box_singleton():
    z = CZ.from_box([5.0], [5.0])
    assert z.n_generators == 0
    assert np.allclose(z.c, [5.0])
    assert z.contains_point([5.0])


def test_from_vertices_simplex_membership():
    z = CZ.from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert z.contains_point([0.5, 0.5])
    assert not z.contains_point([1.5, 1.5])


def test_from_vertices_singleton():
    z = CZ.from_vertices([[3.0, 3.0]])
    assert z.contains_point([3.0, 3.0])
    assert not z.contains_point([3.0, 3.1])


def test_from_vertices_square_support():
    verts = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
    z = CZ.from_vertices(np.array(verts, dtype=float))
    assert abs(z.support([1.0, 1.0]) - 2.0) <= 1e-9


def test_from_vertices_contains_inputs_and_supports():
    rng = np.random.default_rng(0)
    verts = rng.normal(size=(6, 3))
    z = CZ.from_vertices(verts)
    for v in verts:
        assert z.contains_point(v)
    for _ in range(10):
        eta = rng.normal(size=3)
        assert abs(z.support(eta) - max(verts @ eta)) <= 1e-9


# -- exact operations ------------------------------------------------------


def test_affine_map_translation_shifts_support():
    rng = np.random.default_rng(1)
    z = random_cz(rng)
    t = np.array([0.5, -2.0, 1.0])
    zt = z.affine_map(np.eye(3), t)
    for _ in range(5):
        eta = rng.normal(size=3)
        assert abs(zt.support(eta) - (z.support(eta) + eta @ t)) <= 1e-7


def test_affine_map_zero_matrix_gives_singleton():
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0])
    s = z.affine_map(np.zeros((2, 2)), [3.0, 4.0])
    assert s.contains_point([3.0, 4.0])
    assert abs(s.support([1.0, 0.0]) - 3.0) <= 1e-9


def test_affine_map_rotation_support():
    sq = rotated_square()
    assert abs(sq.support([1.0, 0.0]) - math.sqrt(2)) <= 1e-9


def test_minkowski_sum_intervals():
    a = CZ.from_box([-1.0], [1.0])
    b = CZ.from_box([-2.0], [2.0])
    s = a.minkowski_sum(b)
    assert abs(s.support([1.0]) - 3.0) <= 1e-9
    assert abs(s.support([-1.0]) - 3.0) <= 1e-9


def test_minkowski_sum_with_singleton_translates():
    rng = np.random.default_rng(2)
    z = random_cz(rng)
    t = np.array([1.0, 2.0, 3.0])
    s = z.minkowski_sum(CZ.from_box(t, t))
    for _ in range(5):
        eta = rng.normal(size=3)
        assert abs(s.support(eta) - (z.support(eta) + eta @ t)) <= 1e-7


def test_minkowski_sum_box_plus_rotated_square():
    s = CZ.from_box([-1.0, -1.0], [1.0, 1.0]).minkowski_sum(rotated_square())
    assert abs(s.support([1.0, 0.0]) - (1.0 + math.sqrt(2))) <= 1e-9


def test_intersect_intervals():
    z = CZ.from_box([0.0], [2.0]).intersect(CZ.from_box([1.0], [3.0]))
    assert abs(z.support([1.0]) - 2.0) <= 1e-9
    assert abs(z.support([-1.0]) + 1.0) <= 1e-9


def test_intersect_disjoint_empty():
    z = CZ.from_box([0.0], [1.0]).intersect(CZ.from_box([2.0], [3.0]))
    assert z.is_empty()


def test_self_intersection_preserves_supports():
    rng = np.random.default_rng(3)
    z = random_cz(rng)
    zz = z.intersect(z)
    for _ in range(20):
        eta = rng.normal(size=3)
        assert abs(zz.support(eta) - z.support(eta)) <= 1e-9 * (
            1.0 + abs(z.support(eta))
        )


def test_slice_segment():
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0]).slice([0], [0.0])
    assert z.contains_point([0.0, 1.0])
    assert z.contains_point([0.0, -1.0])
    assert not z.contains_point([0.5, 0.0])


def test_slice_outside_empty():
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0]).slice([0], [2.0])
    assert z.is_empty()


def test_slice_simplex_cut():
    simplex = CZ.from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    cut = simplex.slice([0], [1.0])
    # the cut at x1 = 1 is the segment from (1,0) to (1,1)
    assert abs(cut.support([0.0, 1.0]) - 1.0) <= 1e-9
    assert abs(cut.support([0.0, -1.0]) - 0.0) <= 1e-9
    assert cut.contains_point([1.0, 0.5])


def _exact_slice_by_selector_rows(z, dims, values):
    """The exact slice as {x in z : E x = values} with selector rows E,
    stacked under z's rows as sparse blocks, started from z's offered
    start with the pin rows basic."""
    E = np.zeros((len(dims), z.dim))
    E[np.arange(len(dims)), dims] = 1.0
    A = sp.vstack([z.A, sp.csr_matrix(E @ z.G)], format="csr")
    out = CZ(z.G, z.c, A, np.concatenate([z.b, values - E @ z.c]))
    parent = z._offered_start()
    if parent is not None:
        out._start = lp.LpBasis(parent.cols, parent.rows + (lp.BASIC,) * len(dims))
    return out


@pytest.mark.parametrize("tol", [0.0, 1e-12])
def test_exact_slice_matches_the_selector_row_construction(tol):
    # the exact slice appends the pin rows to the parent's CSR arrays, as
    # the banded one does: its arrays and its start are bitwise those of
    # the selector-row construction, for settled and unsettled parents,
    # zero entries in G, repeated or unordered dims, and sets with no rows
    rng = np.random.default_rng(37)
    for trial in range(60):
        dim = int(rng.integers(2, 6))
        z = random_cz(rng, dim=dim, n_g=int(rng.integers(dim, 10)),
                      n_e=int(rng.integers(0, 3)))
        if trial % 3 == 0:
            G = z.G.copy()
            G[rng.integers(dim), rng.integers(z.n_generators)] = 0.0
            z = CZ(G, z.c, z.A, z.b)
        if trial % 2 == 0:
            z.is_empty()
        dims = rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=trial % 5 == 0)
        values = rng.normal(size=dims.size)
        got = z.slice(dims, values, tol=tol)
        ref = _exact_slice_by_selector_rows(z, dims, values)
        assert got.G.tobytes() == ref.G.tobytes() and got.G.shape == ref.G.shape
        assert got.c.tobytes() == ref.c.tobytes()
        assert got.b.tobytes() == ref.b.tobytes()
        assert got.A.shape == ref.A.shape
        assert _arrays(got.A) == _arrays(ref.A)
        for name in ("indptr", "indices", "data"):
            assert getattr(got.A, name).dtype == getattr(ref.A, name).dtype
        assert got._start == ref._start


def test_slice_matches_intersect_affine():
    simplex = CZ.from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    sliced = simplex.slice([0], [1.0])
    assert abs(sliced.support([0.0, 1.0]) - 1.0) <= 1e-9
    assert sliced.slice([0], [5.0]).is_empty() or not sliced.contains_point([5.0, 0.0])
    assert CZ.from_box([-1.0, -1.0], [1.0, 1.0]).slice([0], [2.0]).is_empty()


def test_slice_with_tolerance_band():
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0])
    s = z.slice([0], [1.0 + 5e-7], tol=1e-6)
    assert not s.is_empty()


@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_slice_min_cost_settles_farther_empty_slices_with_a_kept_ray(monkeypatch, tol):
    # a slice beyond the set's support along d solves its LP and keeps
    # its ray; a slice farther out along d is settled by that ray with no
    # LP, and a slice inside still solves its LP and answers as support
    rng = np.random.default_rng(41)
    Z = random_cz(rng, dim=4, n_g=10, n_e=3)
    Z.is_empty()
    dims = [0, 1]
    d = np.array([1.0, -0.5, 0.0, 0.0])
    inside = 0.5 * (Z.extreme_point(d) + Z.extreme_point(-d))[dims]
    reach = Z.support(d) - d[dims] @ inside  # how far inside may move along d
    runs = []
    backend = lp.linprog

    def spy(prob, method="highs", basis=None):
        runs.append(prob.n_vars)
        return backend(prob, method, basis)

    monkeypatch.setattr(lp, "linprog", spy)
    step = d[dims] / (d[dims] @ d[dims])
    assert Z.slice_min_cost(dims, inside + (reach + 0.1) * step, tol) is None
    assert len(runs) == 1
    assert Z.slice_min_cost(dims, inside + (reach + 1.0) * step, tol) is None
    assert len(runs) == 1
    value = Z.slice_min_cost(dims, inside, tol)
    assert len(runs) == 2
    assert value == -Z.slice(dims, inside, tol).support(min_cost_direction(4))


def test_threads_keep_one_ray_per_empty_slice_lp(monkeypatch):
    # more threads than cores ask the same slices of one set in the same
    # order, most of them empty, so that threads that miss together keep
    # their rays together: every ray an LP certified is kept once, in one
    # list, and every answer is the one a fresh copy of the set gives,
    # the same verdict and, since each slice LP continues from the
    # family's last optimum, the same value within FEAS_TOL
    rng = np.random.default_rng(42)
    Z = _with_basis(random_cz(rng, dim=4, n_g=12, n_e=3))
    dims = [0, 1]
    lo = [-Z.support(-e) for e in np.eye(4)[dims]]
    hi = [Z.support(e) for e in np.eye(4)[dims]]
    values = rng.uniform(np.array(lo) - 2.0, np.array(hi) + 2.0, size=(48, 2))
    fresh = _with_basis(CZ(Z.G, Z.c, Z.A, Z.b))
    serial = [fresh.slice_min_cost(dims, v, 1e-6) for v in values]
    rays = []
    lock = threading.Lock()
    solve = czset.solve_lp

    def spy(prob, method="highs", basis=None):
        sol = solve(prob, method, basis)
        if sol.ray is not None:
            with lock:
                rays.append(sol.ray)
        return sol

    monkeypatch.setattr(czset, "solve_lp", spy)
    start = threading.Barrier(6)
    results = [None] * 6

    def worker(i):
        start.wait(timeout=10)
        results[i] = [Z.slice_min_cost(dims, v, 1e-6) for v in values]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for result in results:
        assert [v is None for v in result] == [v is None for v in serial]
        for v, w in zip(result, serial):
            assert v is None or abs(v - w) <= FEAS_TOL * max(1.0, abs(w))
    assert None in serial and rays
    assert list(Z._slice_families) == [((0, 1), 1e-6)]
    kept = Z._slice_families[(0, 1), 1e-6].rays
    program = Z.slice(dims, values[0], 1e-6)._support_program()
    certified = [lp.farkas_ray(program.A, program.lb, program.ub, r) for r in rays]
    assert sorted(r.y.tobytes() for r in kept) == sorted(r.y.tobytes() for r in certified)


def test_slice_band_below_solver_resolution_is_exact():
    # a band the LP solver would drop is not built: the slice is exact
    z = random_cz(np.random.default_rng(31))
    point = z.extreme_point(np.array([1.0, 0.5, -0.2]))
    exact = z.slice([0, 2], point[[0, 2]])
    for tol in (1e-12, SMALL_MATRIX_VALUE / 2):
        thin = z.slice([0, 2], point[[0, 2]], tol=tol)
        assert thin.n_generators == z.n_generators == exact.n_generators
        assert thin.n_constraints == z.n_constraints + 2
        eta = np.array([0.3, -1.0, 0.4])
        assert thin.support(eta) == exact.support(eta)
    banded = z.slice([0, 2], point[[0, 2]], tol=SMALL_MATRIX_VALUE)
    assert banded.n_generators == z.n_generators + 2


def _block_slice_A(z, dims, tol):
    """The banded slice's A as sparse blocks: [A, 0; G[dims], -tol I]."""
    m = len(dims)
    E = np.zeros((m, z.dim))
    E[np.arange(m), dims] = 1.0
    rows = sp.hstack([sp.csr_matrix(E @ z.G), -tol * sp.eye(m, format="csr")])
    A = sp.bmat([[z.A, None], [None, sp.csr_matrix((0, m))]], format="csr")
    A = sp.vstack([A, rows], format="csr")
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


@pytest.mark.parametrize("dims", [[0, 2], [2, 0], [3, 1, 0]])
def test_banded_slice_rows_match_the_block_construction(dims):
    # the slice appends the pin rows to the parent's CSR arrays; A is the
    # canonical form of the block construction, whatever the order of
    # dims and where G has zero entries, which store nothing
    rng = np.random.default_rng(36)
    z = random_cz(rng, dim=4, n_g=9, n_e=3)
    G = z.G.copy()
    G[dims[0], [1, 4]] = 0.0
    G[:, 6] = 0.0  # a latent read by A only
    z = CZ(G, z.c, z.A, z.b)
    for tol in (1e-6, SMALL_MATRIX_VALUE):
        A = z.slice(dims, rng.normal(size=len(dims)), tol=tol).A
        ref = _block_slice_A(z, dims, tol)
        assert A.has_canonical_format and A.data.all()
        assert A.shape == ref.shape and A.indices.dtype == ref.indices.dtype
        assert _arrays(A) == _arrays(ref)


def _cold_copy(z):
    """The same set with no recorded start and no memoized basis."""
    return CZ(z.G, z.c, z.A, z.b)


def _with_basis(z):
    """z, carrying its canonical basis."""
    z.is_empty()
    return z


def _spy_starts(monkeypatch):
    """A list that records, per backend run, whether it started warm."""
    warm_calls = []
    backend = lp.linprog

    def spy(prob, method="highs", basis=None):
        warm_calls.append(basis is not None)
        return backend(prob, method, basis)

    monkeypatch.setattr(lp, "linprog", spy)
    return warm_calls


def _assert_support_matches_cold(Z, eta, warm_calls, outcomes):
    """Z's support in direction eta starts warm and equals a cold solve;
    an empty Z ends in EmptySetError warm and cold alike."""
    del warm_calls[:]
    try:
        warm = Z.support(eta)
    except EmptySetError:
        assert warm_calls[0]
        with pytest.raises(EmptySetError):
            _cold_copy(Z).support(eta)
        outcomes.add("empty")
        return
    assert warm_calls[0]
    cold = _cold_copy(Z).support(eta)
    assert abs(warm - cold) <= 1e-9 * max(1.0, abs(cold))
    outcomes.add("nonempty")


@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_slice_support_warm_matches_cold(monkeypatch, tol):
    # slices of one parent at random points, some outside it, queried in
    # the min-cost direction and in random ones, all started from the
    # parent's basis: each support equals a cold solve, and an empty
    # slice still ends in EmptySetError through a checked ray
    warm_calls = _spy_starts(monkeypatch)
    rng = np.random.default_rng(32)
    outcomes = set()
    ref = min_cost_direction(4)
    for _ in range(4):
        etas = [ref] + [rng.normal(size=4) for _ in range(2)]
        z = _with_basis(random_cz(rng, dim=4, n_g=10, n_e=3))
        lo, hi = z.interval_hull()
        for _ in range(6):
            pin = rng.uniform(lo[:2] - 0.3 * (hi[:2] - lo[:2]), hi[:2] + 0.3 * (hi[:2] - lo[:2]))
            sliced = z.slice([0, 1], pin, tol=tol)
            for eta in etas:
                _assert_support_matches_cold(sliced, eta, warm_calls, outcomes)
    assert outcomes == {"empty", "nonempty"}


def test_intersection_and_translate_support_warm_matches_cold(monkeypatch):
    # Z ∩ (Z + delta), as the decision-deferral rollout makes it, and
    # Z ∩ W for another set W, at offsets some of which empty the
    # intersection, with the translates themselves and min-cost slices of
    # the intersections: every LP starts from the recorded start, and
    # each support equals a cold solve in the min-cost direction and in
    # random ones
    warm_calls = _spy_starts(monkeypatch)
    rng = np.random.default_rng(37)
    outcomes = set()
    ref = min_cost_direction(4)
    for _ in range(3):
        z = _with_basis(random_cz(rng, dim=4, n_g=10, n_e=3))
        w = _with_basis(random_cz(rng, dim=4, n_g=8, n_e=2))
        lo, hi = z.interval_hull()
        for scale in (0.0, 0.3, 0.8, 1.5):
            delta = scale * (hi - lo) * rng.choice([-1.0, 1.0], size=4)
            moved = z.translate(delta)
            for Z in (moved, z.intersect(moved), z.intersect(w.translate(delta))):
                for eta in [ref] + [rng.normal(size=4) for _ in range(2)]:
                    _assert_support_matches_cold(Z, eta, warm_calls, outcomes)
            both = z.intersect(moved)
            pin = (lo[:2] + hi[:2]) / 2 + delta[:2] / 2
            _assert_support_matches_cold(both.slice([0, 1], pin, tol=1e-6), ref,
                                         warm_calls, outcomes)
    assert outcomes == {"empty", "nonempty"}


def test_recorded_start_has_the_shape_of_the_sets_lp():
    # every operation that records a start records a basis of the new
    # set's LP: one status per latent and per row, one basic per row;
    # the others record none
    rng = np.random.default_rng(38)
    z = _with_basis(random_cz(rng, dim=4, n_g=10, n_e=3))
    w = _with_basis(random_cz(rng, dim=4, n_g=7, n_e=2))
    both = z.intersect(w.translate(rng.normal(size=4)))
    made = [
        z.affine_map(rng.normal(size=(4, 4)), rng.normal(size=4)),
        z.project([1, 3]),
        z.translate(rng.normal(size=4)),
        both,
        both.slice([0, 2], [0.1, -0.2]),
        both.slice([0, 2], [0.1, -0.2], tol=1e-6),
        z.slice([3], [0.5], tol=1e-6).project([0, 1]),
        both.intersect(z),
    ]
    for Z in made:
        start = Z._start
        assert start is not None
        assert (len(start.cols), len(start.rows)) == (Z.n_generators, Z.n_constraints)
        assert lp.LpBasis.from_codes(start.codes(), Z.n_generators) == start
    box = CZ.from_box(-np.ones(4), np.ones(4))
    box.is_empty()
    for Z in (
        z.minkowski_sum(w),
        z.intersect(random_cz(rng, dim=4, n_g=5, n_e=1)),  # an operand with no start
        z.intersect_halfspace(Halfspace(np.ones(4), z.support(np.ones(4)) - 0.1)),
        box.pontryagin_difference([0.1 * np.ones(4)]),
        box,
    ):
        assert Z._start is None


def test_slice_support_is_independent_of_query_history():
    # querying slice A first leaves the answer for slice B bitwise as it
    # is when B is queried alone on a fresh copy of the parent
    rng = np.random.default_rng(33)
    eta = min_cost_direction(4)
    z = _with_basis(random_cz(rng, dim=4, n_g=10, n_e=3))
    lo, hi = z.interval_hull()
    mid = (z.extreme_point(np.array([1.0, 0.3, 0.0, 0.0]))
           + z.extreme_point(np.array([-1.0, -0.3, 0.0, 0.0]))) / 2.0
    pin_a, pin_b = mid[:2] + 0.1 * (hi[:2] - lo[:2]), mid[:2] - 0.05 * (hi[:2] - lo[:2])
    z.slice([0, 1], pin_a, tol=1e-6).support(eta)
    after_a = z.slice([0, 1], pin_b, tol=1e-6).extreme_point(eta)
    fresh = _with_basis(_cold_copy(z))
    alone = fresh.slice([0, 1], pin_b, tol=1e-6).extreme_point(eta)
    assert np.array_equal(after_a, alone)


def _spy_builds(monkeypatch):
    """A list that records every HiGHS model the LP layer builds."""
    builds = []
    build = lp._fresh_model

    def spy(prob, options):
        builds.append(prob)
        return build(prob, options)

    monkeypatch.setattr(lp, "_fresh_model", spy)
    return builds


def _fresh_support(z, eta):
    """z's support in direction eta from a program of its own, so that
    the LP layer builds a new model for it."""
    ones = np.ones(z.n_generators)
    prob = lp.LinearProgram(-(z.G.T @ eta), E=z.A, f=z.b, lb=-ones, ub=ones)
    return lp.solve_lp(prob, basis=z._start)


def test_support_family_runs_on_one_model_and_matches_fresh_solves(monkeypatch):
    # a set's support queries share one program; the thread's model of
    # the first serves the rest, and every answer has the status of a
    # fresh solve from the same start and its value within rounding
    builds = _spy_builds(monkeypatch)
    rng = np.random.default_rng(35)
    for _ in range(6):
        z = _with_basis(random_cz(rng, dim=4, n_g=12, n_e=3))
        inside = (z.extreme_point(rng.normal(size=4)) + z.extreme_point(rng.normal(size=4))) / 2
        for Z in (z, z.slice([2, 3], inside[[2, 3]], tol=1e-6)):
            etas = rng.normal(size=(16, 4))
            del builds[:]
            family = [Z._support_solution(eta)[1] for eta in etas]
            # the first two queries build models, and the second is held;
            # none when the model of the queries that found inside serves
            assert len(builds) <= 2
            for eta, sol in zip(etas, family):
                fresh = _fresh_support(Z, eta)
                assert sol.status == fresh.status == LpStatus.OPTIMAL
                scale = max(1.0, abs(fresh.objective_value))
                assert abs(sol.objective_value - fresh.objective_value) <= 1e-9 * scale


def test_support_family_on_an_empty_set_raises_through_a_certified_ray(monkeypatch):
    # a slice outside a rotated square that no single pin row rules out:
    # every query on one model still ends in EmptySetError, each through
    # a Farkas ray that the check accepts
    builds = _spy_builds(monkeypatch)
    certified = []
    check = lp.farkas_certifies

    def spy(prob, ray):
        certified.append(check(prob, ray))
        return certified[-1]

    monkeypatch.setattr(lp, "farkas_certifies", spy)
    outside = rotated_square().slice([0, 1], [1.2, 1.2])
    assert not lp.single_row_certifies(outside._support_lp(np.ones(2)))
    for eta in np.random.default_rng(36).normal(size=(8, 2)):
        with pytest.raises(EmptySetError):
            outside.support(eta)
    assert len(builds) == 2
    assert certified == [True] * 8


def test_two_threads_querying_one_set_get_the_serial_answers():
    # each thread holds its own model, so two threads that query one set
    # in the same order get the points of one thread querying an equal set
    rng = np.random.default_rng(37)
    z = _with_basis(random_cz(rng, dim=4, n_g=40, n_e=6))
    inside = (z.extreme_point(rng.normal(size=4)) + z.extreme_point(rng.normal(size=4))) / 2
    etas = rng.normal(size=(40, 4))

    def footprint():
        return z.slice([2, 3], inside[[2, 3]], tol=1e-6)

    alone = footprint()
    serial = np.array([alone.extreme_point(eta) for eta in etas])
    shared = footprint()
    start = threading.Barrier(2)
    results = [None, None]

    def worker(i):
        start.wait(timeout=10)
        results[i] = np.array([shared.extreme_point(eta) for eta in etas])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for points in results:
        assert np.array_equal(points, serial)


def test_image_support_warm_matches_cold(monkeypatch):
    # projections and affine images of a slice warm-start every support
    # LP from the basis of the LP that settled the slice's emptiness;
    # each answer equals a cold solve
    warm_calls = _spy_starts(monkeypatch)
    rng = np.random.default_rng(34)
    for _ in range(4):
        z = _with_basis(random_cz(rng, dim=4, n_g=10, n_e=3))
        inside = (z.extreme_point(rng.normal(size=4)) + z.extreme_point(rng.normal(size=4))) / 2
        sliced = z.slice([2, 3], inside[[2, 3]], tol=1e-6)
        assert not sliced.is_empty()
        assert sliced.basis() is not None
        M = rng.normal(size=(2, 2))
        image = sliced.project([0, 1]).affine_map(M, rng.normal(size=2))
        assert image._start is sliced.basis()
        for _ in range(8):
            eta = rng.normal(size=2)
            del warm_calls[:]
            warm, point = image.support(eta), image.extreme_point(eta)
            assert warm_calls == [True, True]
            cold = _cold_copy(image)
            scale = max(1.0, abs(cold.support(eta)))
            assert abs(warm - cold.support(eta)) <= FEAS_TOL * scale
            assert np.linalg.norm(point - cold.extreme_point(eta)) <= FEAS_TOL * scale


def test_image_start_needs_an_unpruned_image_and_a_settled_source(monkeypatch):
    rng = np.random.default_rng(35)
    z = random_cz(rng, dim=3, n_g=6, n_e=2)
    assert z.project([0])._start is None  # emptiness not settled yet
    assert not z.is_empty()
    basis = z.basis()
    assert basis is not None and z.project([0, 1])._start is basis
    # the basis is the one the min-cost support LP leaves; an image of an
    # image, made before the first image settles, is handed the same
    assert basis == CZ(z.G, z.c, z.A, z.b)._settle_emptiness()[1]
    assert z.project([0, 1]).affine_map(np.eye(2))._start is basis
    # the set's own LPs start from its own start, not from its basis
    warm_calls = _spy_starts(monkeypatch)
    z.support(rng.normal(size=3))
    assert z._start is None and warm_calls == [False]
    # an image that prunes latents has another latent LP
    free = CZ(np.eye(2), np.zeros(2))
    free.is_empty()
    assert free.basis() is not None
    assert free.project([0]).n_generators == 1
    assert free.project([0])._start is None


def test_support_emptiness_check_raises_on_numerical_failure(monkeypatch):
    monkeypatch.setattr(czset, "solve_lp",
                        lambda prob, method="highs", basis=None: LpSolution(LpStatus.NUMERICAL_FAILURE))
    with pytest.raises(LpError):
        CZ.from_box([-1.0, -1.0], [1.0, 1.0]).is_empty()


def test_unbounded_verdict_makes_the_emptiness_check_raise(monkeypatch):
    # no support LP is unbounded; a solver that says so has failed
    monkeypatch.setattr(lp, "linprog", lambda prob, method="highs", basis=None:
                        HighsRun(lp.highs.HighsModelStatus.kUnbounded, 0))
    with pytest.raises(LpError, match="UNBOUNDED"):
        CZ.from_box([-1.0, -1.0], [1.0, 1.0]).is_empty()


def _arrays(A):
    return [a.tobytes() for a in (A.indptr, A.indices, A.data)]


def test_queries_leave_the_constraint_matrix_untouched():
    # the caller's A has unsorted indices and a duplicate in row 0
    # (columns 8, 0, 8); the set holds its canonical copy, and no LP over
    # the set changes either one
    A = sp.csr_matrix(
        (np.array([1.0, 0.5, 0.5, 1.0, -1.0]), np.array([8, 0, 8, 3, 1]), np.array([0, 3, 5])),
        shape=(2, 9),
    )
    given = _arrays(A)
    G = np.hstack([np.eye(8), np.zeros((8, 1))])
    Z = CZ(G, np.zeros(8), A, np.zeros(2))
    assert Z.A.indices.tolist() == [0, 8, 1, 3] and Z.A.data.tolist() == [0.5, 1.5, -1.0, 1.0]
    held = _arrays(Z.A)
    dyn = DiscreteDynamics(np.eye(8), np.zeros((8, 4)), np.zeros(8), 1.0)
    assert not Z.is_empty()
    assert Z.support(np.ones(8)) > 0
    assert Z.contains_point(np.zeros(8))
    _, _, c_k = one_step_ocp(np.zeros(8), Z, CZ.from_box(-np.ones(4), np.ones(4)), dyn)
    assert abs(c_k + 1.0) <= 1e-9
    # a slice outside the set: its support query ends in a certified
    # INFEASIBLE, and both certificate checks read the LP's CSR rows,
    # which hold the set's own matrix
    outside = Z.slice([0], [3.0], tol=1e-6)
    sliced = _arrays(outside.A)
    with pytest.raises(EmptySetError):
        outside.support(min_cost_direction(8))
    prob = outside._support_lp(min_cost_direction(8))
    assert prob.E is outside.A and prob.A.format == "csr"
    run = lp.linprog(prob)
    assert lp.farkas_certifies(prob, run.ray)
    assert lp.single_row_certifies(prob)
    assert _arrays(outside.A) == sliced
    assert _arrays(A) == given
    assert _arrays(Z.A) == held


def test_memoized_value_is_computed_once_across_threads():
    # more threads than cores miss on the same key together; a lost
    # update would run the computation twice or hand out two objects
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0])
    calls = []
    start = threading.Barrier(8)
    results = []

    def compute():
        calls.append(1)
        time.sleep(0.01)
        return object()

    def worker():
        start.wait(timeout=10)
        results.append(z.cached("key", compute))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(results) == 8 and all(r is results[0] for r in results)


def test_project_box_axis():
    z = CZ.from_box([0.0, 2.0], [1.0, 3.0]).project([1])
    assert abs(z.support([1.0]) - 3.0) <= 1e-9
    assert abs(z.support([-1.0]) + 2.0) <= 1e-9


def test_project_singleton():
    z = CZ.from_box([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).project([0, 2])
    assert z.contains_point([1.0, 3.0])


def test_project_rotated_square():
    p = rotated_square().project([0])
    assert abs(p.support([1.0]) - math.sqrt(2)) <= 1e-9


def test_intersect_halfspace_half_box():
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0]).intersect_halfspace(
        Halfspace(np.array([1.0, 0.0]), 0.0)
    )
    assert abs(z.support([1.0, 0.0]) - 0.0) <= 1e-9
    assert abs(z.support([-1.0, 0.0]) - 1.0) <= 1e-9


def test_intersect_halfspace_nonbinding_identity():
    rng = np.random.default_rng(4)
    box = CZ.from_box([-1.0, -1.0], [1.0, 1.0])
    z = box.intersect_halfspace(Halfspace(np.array([1.0, 0.0]), 5.0))
    for _ in range(20):
        eta = rng.normal(size=2)
        assert abs(z.support(eta) - box.support(eta)) <= 1e-9


def test_intersect_halfspace_empty():
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0]).intersect_halfspace(
        Halfspace(np.array([1.0, 0.0]), -2.0)
    )
    assert z.is_empty()


# -- queries ---------------------------------------------------------------


def test_support_unit_box_diagonal():
    assert abs(CZ.from_box([-1, -1], [1, 1]).support([1.0, 1.0]) - 2.0) <= 1e-9


def test_support_singleton():
    c = np.array([2.0, -3.0])
    z = CZ.from_box(c, c)
    eta = np.array([0.3, 0.7])
    assert abs(z.support(eta) - eta @ c) <= 1e-12


def test_support_simplex():
    z = CZ.from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert abs(z.support([1.0, 1.0]) - 2.0) <= 1e-9


def test_extreme_point_box_corner():
    x = CZ.from_box([-1, -1], [1, 1]).extreme_point([1.0, 1.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-8)


def test_extreme_point_segment_end():
    seg = CZ.from_box([0.0, -1.0], [0.0, 1.0])
    assert np.allclose(seg.extreme_point([0.0, 1.0]), [0.0, 1.0], atol=1e-8)


def test_extreme_point_simplex_vertex():
    z = CZ.from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(z.extreme_point([1.0, 0.0]), [2.0, 0.0], atol=1e-7)


def test_contains_center_and_rejects_outside():
    rng = np.random.default_rng(5)
    z = random_cz(rng)
    assert not CZ.from_box([-1, -1], [1, 1]).contains_point([2.0, 0.0])
    assert CZ.from_box([-1, -1], [1, 1]).contains_point([1.0, 1.0])


def test_is_empty_cases():
    assert CZ(np.array([[1.0]]), [0.0], np.array([[1.0]]), [2.0]).is_empty()
    assert not CZ.from_box([-1.0], [1.0]).is_empty()
    assert CZ.from_box([0.0], [1.0]).intersect(CZ.from_box([2.0], [3.0])).is_empty()


def test_support_on_empty_raises():
    z = CZ(np.array([[1.0]]), [0.0], np.array([[1.0]]), [2.0])
    with pytest.raises(EmptySetError):
        z.support([1.0])


def test_interval_hull_box_and_singleton():
    lo, hi = CZ.from_box([-1.0, 0.0], [2.0, 3.0]).interval_hull()
    assert np.allclose(lo, [-1.0, 0.0]) and np.allclose(hi, [2.0, 3.0])
    lo, hi = CZ.from_box([5.0], [5.0]).interval_hull()
    assert np.allclose(lo, hi)


def test_interval_hull_diamond():
    z = CZ.from_vertices([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    lo, hi = z.interval_hull()
    assert np.allclose(lo, [-1.0, -1.0], atol=1e-9)
    assert np.allclose(hi, [1.0, 1.0], atol=1e-9)


# -- normalization ---------------------------------------------------------


def test_minrow_scalar_multiple_collapses():
    z = CZ(
        np.array([[1.0, 0.0]]),
        [0.0],
        np.array([[1.0, 0.0], [2.0, 0.0]]),
        [0.5, 1.0],
    )
    zn = z.minrow_normalize()
    assert zn.n_constraints == 1
    assert not zn.is_empty()


def test_minrow_inconsistent_flags_empty():
    z = CZ(
        np.array([[1.0, 0.0]]),
        [0.0],
        np.array([[1.0, 0.0], [1.0, 0.0]]),
        [0.0, 1.0],
    )
    assert z.minrow_normalize().is_empty()


def test_inconsistent_duplicate_row_is_empty_without_normalization(monkeypatch):
    # no recursion normalizes, so the emptiness LP meets such rows as
    # built; no row alone is infeasible, and a checked Farkas ray decides
    verdicts = []
    farkas = lp.farkas_certifies

    def spy(prob, ray):
        verdicts.append(farkas(prob, ray))
        return verdicts[-1]

    monkeypatch.setattr(lp, "farkas_certifies", spy)
    z = CZ(np.array([[1.0, 0.0]]), [0.0], np.array([[1.0, 0.0], [1.0, 0.0]]), [0.0, 1.0])
    assert z.n_constraints == 2
    assert z.is_empty()
    assert verdicts == [True]


def test_minrow_full_rank_preserves_supports():
    rng = np.random.default_rng(6)
    z = random_cz(rng)
    zn = z.minrow_normalize()
    for _ in range(10):
        eta = rng.normal(size=3)
        assert abs(zn.support(eta) - z.support(eta)) <= 1e-7


# -- randomized support identities ----------------------------------------


def test_support_identities_randomized():
    rng = np.random.default_rng(8)
    for _ in range(10):
        z1 = random_cz(rng)
        z2 = random_cz(rng)
        R = rng.normal(size=(3, 3))
        r = rng.normal(size=3)
        eta = rng.normal(size=3)
        s = z1.minkowski_sum(z2)
        assert abs(s.support(eta) - (z1.support(eta) + z2.support(eta))) <= 1e-7
        m = z1.affine_map(R, r)
        assert abs(m.support(eta) - (z1.support(R.T @ eta) + eta @ r)) <= 1e-7
        i = z1.intersect(z2)
        if not i.is_empty():
            assert i.support(eta) <= min(z1.support(eta), z2.support(eta)) + 1e-7


def test_containment_of_extreme_points_randomized():
    rng = np.random.default_rng(9)
    z = random_cz(rng)
    for _ in range(10):
        eta = rng.normal(size=3)
        assert z.contains_point(z.extreme_point(eta))


# -- inner-approximate erosion --------------------------------------------


def test_erosion_box_box_exact():
    z = CZ.from_box([-2.0, -2.0], [2.0, 2.0])
    d = z.pontryagin_difference([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    for eta in (np.eye(2)[0], np.eye(2)[1], -np.eye(2)[0], -np.eye(2)[1]):
        assert abs(d.support(eta) - 1.0) <= 1e-9


def test_erosion_empty_generator_list_identity():
    z = CZ.from_box([-1.0], [1.0])
    d = z.pontryagin_difference([])
    assert abs(d.support([1.0]) - 1.0) <= 1e-12


def test_erosion_oversized_subtrahend_empty():
    z = CZ.from_box([-1.0], [1.0])
    d = z.pontryagin_difference([np.array([2.0])])
    assert d.is_empty()


@pytest.mark.parametrize("status", [LpStatus.NUMERICAL_FAILURE, LpStatus.UNBOUNDED])
def test_erosion_lp_failure_raises(monkeypatch, status):
    # only a certified infeasible erosion LP may yield the empty set
    solve = czset.solve_lp

    def failing_erosion(prob, method="highs", basis=None):
        if method == "highs-ipm":
            return LpSolution(status)
        return solve(prob, method, basis)

    monkeypatch.setattr(czset, "solve_lp", failing_erosion)
    z = CZ.from_box([-2.0, -2.0], [2.0, 2.0])
    with pytest.raises(LpError):
        z.pontryagin_difference([np.array([1.0, 0.0])])


def test_erosion_requires_full_dimensional():
    flat = CZ.from_box([0.0, -1.0], [0.0, 1.0])
    with pytest.raises(NotFullDimensionalError):
        flat.pontryagin_difference([np.array([0.1, 0.1])])


def test_erosion_soundness_randomized():
    # supp(D, eta) + supp(W, eta) <= supp(Z, eta) in random directions
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = 3
        z = random_cz(rng, dim=n, n_g=7, n_e=2)
        if not z.is_full_dimensional() or z.is_empty():
            continue
        gens = [rng.normal(size=n) * 0.05 for _ in range(2)]
        d = z.pontryagin_difference(gens)
        if d.is_empty():
            continue
        for _ in range(20):
            eta = rng.normal(size=n)
            w_supp = sum(abs(eta @ g) for g in gens)
            assert d.support(eta) + w_supp <= z.support(eta) + 1e-7


def test_full_dimensionality_detection():
    assert CZ.from_box([-1.0, -1.0], [1.0, 1.0]).is_full_dimensional()
    assert not CZ.from_box([0.0, -1.0], [0.0, 1.0]).is_full_dimensional()
