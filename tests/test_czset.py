"""Tests for the constrained-zonotope algebra."""

import math
import sys
import threading
import time

import numpy as np
import pytest

from cztube import czset, lp
from cztube.czset import (
    ConstrainedZonotope,
    EmptySetError,
    Halfspace,
    NotFullDimensionalError,
)
from cztube.lp import SMALL_MATRIX_VALUE, LpError, LpSolution, LpStatus

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


def test_intersect_affine_segment():
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0]).intersect_affine(
        np.array([[1.0, 0.0]]), [0.0]
    )
    assert z.contains_point([0.0, 1.0])
    assert z.contains_point([0.0, -1.0])
    assert not z.contains_point([0.5, 0.0])


def test_intersect_affine_outside_empty():
    z = CZ.from_box([-1.0, -1.0], [1.0, 1.0]).intersect_affine(
        np.array([[1.0, 0.0]]), [2.0]
    )
    assert z.is_empty()


def test_intersect_affine_simplex_cut():
    simplex = CZ.from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    cut = simplex.intersect_affine(np.array([[1.0, 0.0]]), [1.0])
    # the cut at x1 = 1 is the segment from (1,0) to (1,1)
    assert abs(cut.support([0.0, 1.0]) - 1.0) <= 1e-9
    assert abs(cut.support([0.0, -1.0]) - 0.0) <= 1e-9
    assert cut.contains_point([1.0, 0.5])


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


def _cold_copy(z):
    """The same set with no slice origin and no memoized bases."""
    return CZ(z.G, z.c, z.A, z.b)


def _with_bases(z, etas):
    """z, carrying its canonical support basis in each direction."""
    for eta in etas:
        z.support_basis(eta)
    return z


@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_slice_support_warm_matches_cold(monkeypatch, tol):
    # slices of one parent at random points, some outside it, queried in
    # random directions: the warm-started support equals a cold solve, and
    # an empty slice still ends in EmptySetError through a checked ray
    warm_calls = []
    backend = lp.linprog

    def spy(prob, method="highs", basis=None):
        warm_calls.append(basis is not None)
        return backend(prob, method, basis)

    monkeypatch.setattr(lp, "linprog", spy)
    rng = np.random.default_rng(32)
    outcomes = set()
    for _ in range(4):
        etas = [rng.normal(size=4) for _ in range(3)]
        z = _with_bases(random_cz(rng, dim=4, n_g=10, n_e=3), etas)
        lo, hi = z.interval_hull()
        for _ in range(6):
            pin = rng.uniform(lo[:2] - 0.3 * (hi[:2] - lo[:2]), hi[:2] + 0.3 * (hi[:2] - lo[:2]))
            sliced = z.slice([0, 1], pin, tol=tol)
            for eta in etas:
                try:
                    warm = sliced.support(eta)
                except EmptySetError:
                    with pytest.raises(EmptySetError):
                        _cold_copy(sliced).support(eta)
                    outcomes.add("empty")
                    continue
                cold = _cold_copy(sliced).support(eta)
                assert abs(warm - cold) <= 1e-9 * max(1.0, abs(cold))
                outcomes.add("nonempty")
    assert outcomes == {"empty", "nonempty"}
    assert any(warm_calls)


def test_slice_support_is_independent_of_query_history():
    # querying slice A first leaves the answer for slice B bitwise as it
    # is when B is queried alone on a fresh copy of the parent
    rng = np.random.default_rng(33)
    eta = np.array([0.0, 0.0, 1.0, -0.5])
    z = _with_bases(random_cz(rng, dim=4, n_g=10, n_e=3), [eta])
    lo, hi = z.interval_hull()
    mid = (z.extreme_point(np.array([1.0, 0.3, 0.0, 0.0]))
           + z.extreme_point(np.array([-1.0, -0.3, 0.0, 0.0]))) / 2.0
    pin_a, pin_b = mid[:2] + 0.1 * (hi[:2] - lo[:2]), mid[:2] - 0.05 * (hi[:2] - lo[:2])
    z.slice([0, 1], pin_a, tol=1e-6).support(eta)
    after_a = z.slice([0, 1], pin_b, tol=1e-6).extreme_point(eta)
    fresh = _with_bases(_cold_copy(z), [eta])
    alone = fresh.slice([0, 1], pin_b, tol=1e-6).extreme_point(eta)
    assert np.array_equal(after_a, alone)


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
