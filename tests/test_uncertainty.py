"""Tests for the chi-squared machinery and disturbance modeling."""

import math

import numpy as np
import pytest

from cztube.landing import LandingScenario, discretize
from cztube.uncertainty import (
    DisturbanceSchedule,
    Ellipsoid,
    UncertaintyModel,
    build_disturbance_schedule,
    build_effective_map,
    chi2_cdf,
    chi2_inv_cdf,
    control_noise_radius,
    ellipsoid_outer_zonotope,
    landing_uncertainty_model,
    robustify_control_set,
    worst_case_depletion_dynamics,
)

# quantiles computed by bisection on an independent implementation of
# the regularized lower incomplete gamma series (mpmath cross-checked);
# the per-step probabilities of a 20-step and a 100-step schedule at
# lambda = 0.95 are from mpmath at 40 digits
CHI2_REFERENCE = {
    (0.5, 2): 1.386294361119890618834,
    (0.95, 2): 5.991464547107979608,
    (0.95, 3): 7.814727903251178804,
    (0.95, 6): 12.59158724374398420,
    (0.95, 15): 24.99579013972863292,
    (0.95 ** (1.0 / 20.0), 15): 34.875513768743410,
    (0.95 ** (1.0 / 100.0), 6): 24.043138551856947,
}


def test_chi2_small_p_tends_to_zero():
    ref = 2.4179879427180358e-8  # mpmath, 40 digits
    assert abs(chi2_inv_cdf(1e-12, 3) - ref) <= 1e-14 * ref


def test_chi2_dof2_closed_form():
    for p in (0.1, 0.5, 0.95, 0.997438):
        assert abs(chi2_inv_cdf(p, 2) + 2.0 * math.log1p(-p)) <= 1e-10


def test_chi2_reference_quantiles():
    for (p, dof), ref in CHI2_REFERENCE.items():
        assert abs(chi2_inv_cdf(p, dof) - ref) <= 1e-14 * ref


def test_chi2_roundtrip_tight():
    for p in (0.5, 0.95, 0.95 ** (1.0 / 20.0)):
        for dof in (2, 3, 6, 15):
            x = chi2_inv_cdf(p, dof)
            assert abs(chi2_cdf(x, dof) - p) <= 1e-10


def test_chi2_out_of_range():
    with pytest.raises(ValueError):
        chi2_inv_cdf(0.0, 3)
    with pytest.raises(ValueError):
        chi2_inv_cdf(1.0, 3)


def test_chi2_empirical_calibration():
    rng = np.random.default_rng(0)
    n, dof, p = 200_000, 6, 0.95
    r2 = chi2_inv_cdf(p, dof)
    samples = rng.normal(size=(n, dof))
    freq = np.mean(np.sum(samples * samples, axis=1) <= r2)
    assert abs(freq - p) <= 3.0 * math.sqrt(p * (1 - p) / n)


def test_ellipsoid_support():
    e = Ellipsoid(np.zeros(2), np.diag([4.0, 1.0]), 1.0)
    assert abs(e.support(np.array([1.0, 0.0])) - 2.0) <= 1e-12
    assert abs(e.support(np.array([0.0, 1.0])) - 1.0) <= 1e-12


def test_outer_zonotope_identity_shape():
    gens = ellipsoid_outer_zonotope(Ellipsoid(np.zeros(3), np.eye(3), 1.0))
    G = np.column_stack(gens)
    assert G.shape == (3, 3)
    assert np.allclose(np.abs(G) @ np.ones(3), 1.0)  # unit box generators


def test_outer_zonotope_diagonal_shape():
    gens = ellipsoid_outer_zonotope(Ellipsoid(np.zeros(2), np.diag([4.0, 1.0]), 1.0))
    norms = sorted(np.linalg.norm(g) for g in gens)
    assert abs(norms[0] - 1.0) <= 1e-12 and abs(norms[1] - 2.0) <= 1e-12


def test_outer_zonotope_rank_deficient():
    v = np.array([1.0, 2.0])
    gens = ellipsoid_outer_zonotope(Ellipsoid(np.zeros(2), np.outer(v, v), 1.0))
    assert len(gens) == 1


def test_outer_zonotope_requires_centered():
    with pytest.raises(ValueError):
        ellipsoid_outer_zonotope(Ellipsoid(np.ones(2), np.eye(2), 1.0))


def test_outer_zonotope_contains_ellipsoid():
    rng = np.random.default_rng(1)
    S = rng.normal(size=(4, 4))
    e = Ellipsoid(np.zeros(4), S @ S.T, 2.5)
    gens = ellipsoid_outer_zonotope(e)
    for _ in range(100):
        eta = rng.normal(size=4)
        zon = sum(abs(eta @ g) for g in gens)
        assert zon >= e.support(eta) - 1e-9


def test_effective_map_blocks():
    scn = LandingScenario()
    dyn = discretize(scn)
    model = landing_uncertainty_model()
    M = build_effective_map(model, dyn)
    assert M.shape == (8, 15)
    assert np.allclose(M[:, :3], dyn.B @ model.E_w_u)
    assert np.allclose(M[:, 3:9], model.E_w_x)
    assert np.allclose(M[:, 9:], -dyn.A @ model.E_w_x)


def test_effective_map_collapsed_blocks():
    scn = LandingScenario()
    dyn = discretize(scn)
    base = landing_uncertainty_model()
    no_nav = UncertaintyModel(
        E_w_u=base.E_w_u,
        E_w_x=np.zeros((8, 0)),
        Sigma_u=base.Sigma_u,
        sigma_x_fn=lambda k, N: np.zeros((0, 0)),
        lam=base.lam,
    )
    assert build_effective_map(no_nav, dyn).shape == (8, 3)
    no_exec = UncertaintyModel(
        E_w_u=np.zeros((4, 0)),
        E_w_x=base.E_w_x,
        Sigma_u=np.zeros((0, 0)),
        sigma_x_fn=base.sigma_x_fn,
        lam=base.lam,
    )
    M = build_effective_map(no_exec, dyn)
    assert M.shape == (8, 12)
    assert np.allclose(M[:, :6], base.E_w_x)


def test_schedule_probability_and_dofs():
    scn = LandingScenario(N=20, dt=15.0)
    dyn = discretize(scn)
    model = landing_uncertainty_model()
    sched = build_disturbance_schedule(model, dyn, 20)
    assert isinstance(sched, DisturbanceSchedule)
    assert abs(sched.p - 0.95 ** (1.0 / 20.0)) <= 1e-12
    assert abs(sched.p - 0.997438) <= 1e-6
    # path steps bound a 15-dof stack, the final step only 6 nav dims
    assert abs(sched.sets[0].radius_sq - chi2_inv_cdf(sched.p, 15)) <= 1e-9
    assert abs(sched.sets[-1].radius_sq - chi2_inv_cdf(sched.p, 6)) <= 1e-9
    assert sched.N == 20


def _reference_path_shape(model, dyn, k, N):
    """M cov M' of a path step, with cov placed block by block."""
    blocks = [m for m in (model.Sigma_u, model.sigma_x(k + 1, N), model.sigma_x(k, N)) if m.size]
    n = sum(m.shape[0] for m in blocks)
    cov, i = np.zeros((n, n)), 0
    for m in blocks:
        cov[i : i + m.shape[0], i : i + m.shape[0]] = m
        i += m.shape[0]
    M = build_effective_map(model, dyn)
    return Ellipsoid(np.zeros(8), M @ cov @ M.T, 1.0).shape


def test_schedule_shapes_with_and_without_execution_noise():
    # the landing schedule's path ellipsoids are bitwise those of the
    # block-by-block covariance; a model with no execution-noise channel
    # builds its schedule from the navigation blocks alone
    scn = LandingScenario(N=20, dt=15.0)
    dyn = discretize(scn)
    base = landing_uncertainty_model()
    no_exec = UncertaintyModel(
        E_w_u=np.zeros((4, 0)),
        E_w_x=base.E_w_x,
        Sigma_u=np.zeros((0, 0)),
        sigma_x_fn=base.sigma_x_fn,
        lam=base.lam,
    )
    for model, dof in ((base, 15), (no_exec, 12)):
        sched = build_disturbance_schedule(model, dyn, 20)
        assert abs(sched.sets[0].radius_sq - chi2_inv_cdf(sched.p, dof)) <= 1e-9
        for k, e in enumerate(sched.sets[:-1], start=1):
            assert np.array_equal(e.shape, _reference_path_shape(model, dyn, k, 20))
    assert sched.R_u == 0.0


def test_schedule_position_sigma_profile():
    model = landing_uncertainty_model()
    # 3-sigma position error 1.5(N-k+1) m: at k=1, N=20 the std is 10 m
    sx = model.sigma_x(1, 20)
    assert np.allclose(np.diag(sx)[:3], 10.0**2)
    sx_last = model.sigma_x(20, 20)
    assert np.allclose(np.diag(sx_last)[:3], 0.5**2)


def test_schedule_monotone_shrinking():
    scn = LandingScenario(N=20, dt=15.0)
    dyn = discretize(scn)
    sched = build_disturbance_schedule(landing_uncertainty_model(), dyn, 20)
    rng = np.random.default_rng(2)
    for _ in range(10):
        eta = rng.normal(size=8)
        supports = [e.support(eta) for e in sched.sets[:-1]]
        assert all(s1 >= s2 - 1e-9 for s1, s2 in zip(supports, supports[1:]))


def test_control_noise_radius():
    model = landing_uncertainty_model(sigma3_u=0.023)
    assert abs(control_noise_radius(model) - 0.023 / 3.0) <= 1e-12


def test_robustify_zero_noise_is_identity():
    scn = LandingScenario(n_points=14)
    base = robustify_control_set(scn, 0.0, 14)
    from cztube.landing import build_control_set

    ref = build_control_set(scn, 14)
    rng = np.random.default_rng(3)
    for _ in range(50):
        eta = rng.normal(size=4)
        assert abs(base.support(eta) - ref.support(eta)) <= 1e-9


def test_robustify_tightens_bounds():
    scn = LandingScenario(n_points=14)
    r_u = 0.023 / 3.0
    U = robustify_control_set(scn, r_u, 14)
    sigma_top = U.support(np.array([0.0, 0.0, 0.0, 1.0]))
    assert abs(sigma_top - (scn.accel_max - r_u)) <= 1e-9
    u3_bottom = -U.support(np.array([0.0, 0.0, -1.0, 0.0]))
    assert u3_bottom >= scn.accel_min + r_u - 1e-9


def test_robustify_collapse_detected():
    scn = LandingScenario(n_points=14)
    huge = 0.5 * (scn.accel_max - scn.accel_min) + 0.1
    with pytest.raises(ValueError):
        robustify_control_set(scn, huge, 14)


def test_worst_case_depletion():
    scn = LandingScenario(alpha=0.0002875, dt=15.0)
    dyn = discretize(scn)
    r_u = 0.023 / 3.0
    worst = worst_case_depletion_dynamics(dyn, scn.alpha, r_u)
    delta = scn.alpha * r_u * scn.dt
    assert abs((dyn.d[6] - worst.d[6]) - delta) <= 1e-12
    assert abs((dyn.d[7] - worst.d[7]) - delta) <= 1e-12
    assert abs(delta - 3.30625e-5) <= 1e-9
    # zero radius leaves the dynamics untouched
    same = worst_case_depletion_dynamics(dyn, scn.alpha, 0.0)
    assert np.array_equal(same.d, dyn.d)
    # the worst-case mass trajectory never exceeds the nominal one
    x = np.concatenate([scn.r_i, scn.v_i, [scn.z_max, scn.c_max]])
    u = np.array([0.0, 0.0, 2.0, 2.0])
    for _ in range(5):
        assert worst.step(x, u)[6] <= dyn.step(x, u)[6] + 1e-15
        x = dyn.step(x, u)
