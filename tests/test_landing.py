"""Tests for the landing model: discretization and constraint sets."""

import math

import numpy as np
import pytest

from cztube.landing import (
    C_IDX,
    STATE_DIM,
    Z_IDX,
    LandingScenario,
    build_control_set,
    build_state_set,
    build_terminal_set,
    discretize,
)


def make_scn(**kw):
    return LandingScenario(**kw)


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scn(T_min=9000.0)
    with pytest.raises(ValueError):
        make_scn(m_dry=2000.0)
    with pytest.raises(ValueError):
        make_scn(theta_max=math.radians(120.0))
    with pytest.raises(ValueError):
        make_scn(dt=0.0)


def test_drift_only_propagation():
    scn = make_scn(g=0.0, dt=1.0)
    dyn = discretize(scn)
    x = np.zeros(STATE_DIM)
    x[3] = 1.0  # unit velocity along the first axis
    nxt = dyn.step(x, np.zeros(4))
    assert np.allclose(nxt[:3], [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(nxt[3:6], x[3:6], atol=1e-12)


def test_gravity_affine_term():
    dyn = discretize(make_scn(g=1.625, dt=3.0))
    assert abs(dyn.d[5] + 4.875) <= 1e-12  # vertical velocity: -g*dt
    assert abs(dyn.d[2] + 7.3125) <= 1e-12  # vertical position: -g*dt^2/2
    assert np.allclose(np.delete(dyn.d, [2, 5]), 0.0, atol=1e-15)


def test_zero_alpha_removes_mass_coupling():
    dyn = discretize(make_scn(alpha=0.0))
    assert np.allclose(dyn.B[Z_IDX], 0.0)
    assert np.allclose(dyn.B[C_IDX], 0.0)


def test_discretization_semigroup():
    scn = make_scn(dt=2.0)
    d1 = discretize(scn, dt=1.0)
    d2 = discretize(scn, dt=2.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=STATE_DIM)
    u = rng.normal(size=4)
    twice = d1.step(d1.step(x, u), u)
    once = d2.step(x, u)
    assert np.allclose(twice, once, atol=1e-12)


def test_A_invertible():
    dyn = discretize(make_scn())
    assert np.allclose(dyn.A_inv @ dyn.A, np.eye(STATE_DIM), atol=1e-12)


def test_mass_and_cost_bounds():
    scn = make_scn()
    X = build_state_set(scn)
    lo, hi = X.interval_hull()
    assert abs(lo[Z_IDX] - math.log(1505.0)) <= 1e-9
    assert abs(hi[Z_IDX] - math.log(1905.0)) <= 1e-9
    assert abs(lo[C_IDX]) <= 1e-9
    assert abs(hi[C_IDX] - math.log(1905.0 / 1505.0)) <= 1e-9


def test_state_set_glideslope_membership():
    scn = make_scn()
    X = build_state_set(scn)
    on_axis = np.array([0.0, 0.0, 100.0, 0, 0, 0, scn.z_max, 0.1])
    assert X.contains_point(on_axis)
    shallow = np.array([1000.0, 0.0, 10.0, 0, 0, 0, scn.z_max, 0.1])
    assert not X.contains_point(shallow)


def test_control_set_bounds():
    scn = make_scn()
    U = build_control_set(scn, 14)
    assert abs(scn.accel_max - 8400.0 / 1905.0) <= 1e-12
    assert abs(scn.accel_min - 2100.0 / 1505.0) <= 1e-12
    assert U.contains_point([0.0, 0.0, 2.0, 2.0])
    assert not U.contains_point([0.0, 0.0, 5.0, 5.0])


def test_control_set_vertices_satisfy_constraints():
    scn = make_scn()
    U = build_control_set(scn, 14)
    rng = np.random.default_rng(1)
    for _ in range(30):
        v = U.extreme_point(rng.normal(size=4))
        u, sigma = v[:3], v[3]
        assert np.linalg.norm(u) <= sigma + 1e-9
        assert sigma <= scn.accel_max + 1e-9
        assert u[2] >= scn.accel_min - 1e-9
        assert u[2] >= sigma * math.cos(scn.theta_max) - 1e-9


def test_terminal_set_pinned_coordinates():
    scn = make_scn()
    Xf = build_terminal_set(scn)
    assert Xf.contains_point(
        np.concatenate([scn.r_f, scn.v_f, [scn.z_max, 0.0]])
    )
    off = np.concatenate([scn.r_f, scn.v_f, [scn.z_max, 0.01]])
    assert not Xf.contains_point(off)
    lo, hi = Xf.interval_hull()
    assert abs(lo[Z_IDX] - scn.z_min) <= 1e-9
    assert abs(hi[Z_IDX] - scn.z_max) <= 1e-9


def test_constraint_sets_bundle():
    scn = make_scn(n_points=14)
    state_set = build_state_set(scn)
    control_set = build_control_set(scn)
    terminal_set = build_terminal_set(scn)
    assert state_set.dim == STATE_DIM
    assert control_set.dim == 4
    assert terminal_set.dim == STATE_DIM
    assert not state_set.is_empty()
    assert not control_set.is_empty()
