"""Tests for the controllable-tube recursions and the tube file format."""

import hashlib
import struct

import numpy as np
import pytest
import scipy.sparse as sp

from cztube.czset import ConstrainedZonotope, NotFullDimensionalError
from cztube.landing import DiscreteDynamics, LandingScenario
from cztube.tube import (
    ControllableTube,
    RobustInfeasibleError,
    backward_step,
    deterministic_recursion,
    deserialize_tube,
    make_full_dim_terminal,
    min_cost_direction,
    robust_recursion,
    scenario_digest,
    serialize_tube,
)
from cztube.uncertainty import DisturbanceSchedule, Ellipsoid


def interval(lo, hi):
    lo, hi = np.atleast_1d(np.asarray(lo, float)), np.atleast_1d(np.asarray(hi, float))
    return ConstrainedZonotope(np.diag((hi - lo) / 2.0), (hi + lo) / 2.0)


def toy_integrator():
    """Scalar x+ = x + u."""
    return DiscreteDynamics(
        A=np.array([[1.0]]), B=np.array([[1.0]]), d=np.array([0.0]), dt=1.0
    )


def toy_schedule(N, w=0.25):
    ell = Ellipsoid(np.zeros(1), np.array([[w * w]]), 1.0)
    return DisturbanceSchedule(
        sets=[ell] * N,
        outer_zonotopes=[[np.array([w])]] * N,
        p=0.99,
        R_u=0.0,
    )


def test_scalar_deterministic_tube_growth():
    # from the pinned origin the j-step controllable set is [-j, j]
    dyn = toy_integrator()
    X, U = interval(-10.0, 10.0), interval(-1.0, 1.0)
    Xf = ConstrainedZonotope(np.zeros((1, 0)), np.zeros(1))
    tube = deterministic_recursion(dyn, X, U, Xf, max_N=6)
    assert tube.kind == "deterministic" and tube.N == 6
    for j in range(6):
        lo, hi = tube.cs(tube.N - j).interval_hull()
        assert abs(lo[0] + j) <= 1e-9 and abs(hi[0] - j) <= 1e-9


def test_scalar_deterministic_saturates_at_state_bounds():
    dyn = toy_integrator()
    X, U = interval(-3.0, 3.0), interval(-1.0, 1.0)
    Xf = ConstrainedZonotope(np.zeros((1, 0)), np.zeros(1))
    tube = deterministic_recursion(dyn, X, U, Xf, max_N=10)
    lo, hi = tube.cs(1).interval_hull()
    assert abs(lo[0] + 3.0) <= 1e-9 and abs(hi[0] - 3.0) <= 1e-9


def test_static_system_tube_is_constant():
    # with no control authority, every set equals X ∩ terminal
    dyn = DiscreteDynamics(
        A=np.eye(2), B=np.zeros((2, 1)), d=np.zeros(2), dt=1.0
    )
    X = interval([-2.0, -2.0], [2.0, 2.0])
    U = interval(0.0, 0.0)
    Xf = interval([-1.0, -1.0], [1.0, 1.0])
    tube = deterministic_recursion(dyn, X, U, Xf, max_N=4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        eta = rng.normal(size=2)
        ref = Xf.support(eta)
        for k in range(1, tube.N + 1):
            assert abs(tube.cs(k).support(eta) - ref) <= 1e-7


def test_backward_step_one_step_self_consistency():
    # every extreme point of CS_k must reach CS_{k+1} under some control
    dyn = toy_integrator()
    X, U = interval(-10.0, 10.0), interval(-1.0, 1.0)
    target = interval(-2.0, 2.0)
    cs = backward_step(dyn, X, U, target)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = cs.extreme_point(rng.normal(size=1))
        reach_lo = dyn.step(x, np.array([-1.0]))
        reach_hi = dyn.step(x, np.array([1.0]))
        assert reach_lo[0] <= 2.0 + 1e-9 and reach_hi[0] >= -2.0 - 1e-9


def test_deterministic_rejects_empty_terminal():
    dyn = toy_integrator()
    with pytest.raises(ValueError):
        deterministic_recursion(
            dyn,
            interval(-1.0, 1.0),
            interval(-1.0, 1.0),
            ConstrainedZonotope.empty(1),
        )


def test_scalar_robust_tube_contained_in_shrunk_intervals():
    # exact answer: CS_{N-j} = [-(0.75 + 0.75 j), 0.75 + 0.75 j]
    dyn = toy_integrator()
    X, U = interval(-10.0, 10.0), interval(-1.0, 1.0)
    T = interval(-1.0, 1.0)
    N = 4
    sink = {}
    tube = robust_recursion(
        dyn, X, U, T, toy_schedule(N), N, eroded_sink=sink
    )
    assert tube.kind == "robust" and tube.N == N
    for j in range(N):
        lo, hi = tube.cs(N - j).interval_hull()
        exact = 0.75 * (j + 1)
        assert hi[0] <= exact + 1e-7 and lo[0] >= -exact - 1e-7
        assert hi[0] >= 0.9 * exact and lo[0] <= -0.9 * exact
    assert set(sink) == set(range(1, N))
    for k, eroded in sink.items():
        lo, hi = eroded.interval_hull()
        nxt_lo, nxt_hi = tube.cs(k + 1).interval_hull()
        assert hi[0] <= nxt_hi[0] - 0.25 + 1e-7
        assert lo[0] >= nxt_lo[0] + 0.25 - 1e-7


def test_robust_with_zero_disturbance_matches_deterministic():
    dyn = toy_integrator()
    X, U = interval(-10.0, 10.0), interval(-1.0, 1.0)
    T = interval(-0.5, 0.5)
    N = 5
    robust = robust_recursion(dyn, X, U, T, toy_schedule(N, w=0.0), N)
    det_sets = [T]
    for _ in range(N - 1):
        det_sets.append(backward_step(dyn, X, U, det_sets[-1]))
    det_sets.reverse()
    for k in range(1, N + 1):
        for eta in (np.array([1.0]), np.array([-1.0])):
            assert abs(robust.cs(k).support(eta) - det_sets[k - 1].support(eta)) <= 1e-6


def test_robust_infeasible_names_the_step():
    # disturbance wider than the terminal set empties the recursion at N
    dyn = toy_integrator()
    with pytest.raises(RobustInfeasibleError) as err:
        robust_recursion(
            dyn,
            interval(-10.0, 10.0),
            interval(-1.0, 1.0),
            interval(-0.5, 0.5),
            toy_schedule(3, w=2.0),
            3,
        )
    assert err.value.step == 3


def test_robust_horizon_schedule_mismatch():
    dyn = toy_integrator()
    with pytest.raises(ValueError):
        robust_recursion(
            dyn,
            interval(-1.0, 1.0),
            interval(-1.0, 1.0),
            interval(-1.0, 1.0),
            toy_schedule(4),
            5,
        )


def test_full_dim_terminal_properties():
    scn = LandingScenario(N=20, dt=15.0, alpha=0.0002875, n_points=14,
                          r_i=np.array([4000.0, 4000.0, 4000.0]),
                          v_i=np.array([-10.0, -10.0, -10.0]))
    T = make_full_dim_terminal(scn, k_points=14)
    assert T.is_full_dimensional()
    assert not T.is_empty()
    # still consistent with the path constraints
    from cztube.landing import build_state_set

    X = build_state_set(scn)
    rng = np.random.default_rng(2)
    for _ in range(5):
        eta = rng.normal(size=8)
        assert T.support(eta) <= X.support(eta) + 1e-6
    with pytest.raises(ValueError):
        make_full_dim_terminal(scn, pre_steps=0)


def test_tube_accessor_bounds():
    Xf = interval(-1.0, 1.0)
    tube = ControllableTube([Xf, Xf], 1.0, "deterministic")
    with pytest.raises(IndexError):
        tube.cs(0)
    with pytest.raises(IndexError):
        tube.cs(3)
    with pytest.raises(ValueError):
        ControllableTube([], 1.0, "deterministic")
    with pytest.raises(ValueError):
        ControllableTube([Xf], 1.0, "mystery")


def test_scenario_digest_sensitivity():
    a = scenario_digest(LandingScenario())
    b = scenario_digest(LandingScenario(dt=4.0))
    c = scenario_digest(LandingScenario(), n_points=14)
    assert len(a) == 32 and a != b and a != c
    assert scenario_digest(LandingScenario()) == a


def test_serialization_roundtrip_bitwise(tmp_path):
    dyn = toy_integrator()
    X, U = interval(-5.0, 5.0), interval(-1.0, 1.0)
    Xf = ConstrainedZonotope(np.zeros((1, 0)), np.zeros(1))
    tube = deterministic_recursion(dyn, X, U, Xf, max_N=4,
                                   scenario_hash=hashlib.sha256(b"toy").digest())
    path = tmp_path / "toy.tube"
    serialize_tube(tube, path)
    back = deserialize_tube(path)
    assert back.kind == tube.kind and back.N == tube.N and back.dt == tube.dt
    assert back.scenario_hash == tube.scenario_hash
    for Z, W in zip(tube.sets, back.sets):
        assert np.array_equal(np.asarray(Z.G, float), np.asarray(W.G, float))
        assert np.array_equal(Z.c, W.c)
        assert np.array_equal(Z.A.toarray(), W.A.toarray())
        assert np.array_equal(Z.b, W.b)
    # serializing the reloaded tube reproduces the file byte-for-byte
    path2 = tmp_path / "toy2.tube"
    serialize_tube(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def _toy_tube():
    dyn = toy_integrator()
    X, U = interval(-5.0, 5.0), interval(-1.0, 1.0)
    Xf = interval(-0.5, 0.5)
    return deterministic_recursion(dyn, X, U, Xf, max_N=4)


def test_recursion_and_tube_file_carry_the_cost_bases(tmp_path):
    # every set is made with its min-cost basis, and a loaded set carries
    # the same one without solving anything
    tube = _toy_tube()
    eta = min_cost_direction(1)
    bases = [Z.support_basis(eta, compute=False) for Z in tube.sets]
    assert all(b is not None for b in bases)
    assert not any(Z.is_empty() for Z in tube.sets)
    path = tmp_path / "toy.tube"
    serialize_tube(tube, path)
    back = deserialize_tube(path)
    assert [Z.support_basis(eta, compute=False) for Z in back.sets] == bases


def test_version_1_tube_file_loads_without_bases(tmp_path):
    Z = interval(-1.0, 2.0)
    raw = b"CZTB" + struct.pack("<IBId", 1, 0, 1, 1.0) + b"\x00" * 32
    raw += struct.pack("<III", 1, 1, 0) + np.array([1.5, 0.5]).tobytes()
    path = tmp_path / "v1.tube"
    path.write_bytes(raw)
    back = deserialize_tube(path)
    W = back.cs(1)
    assert np.array_equal(W.G, Z.G) and np.array_equal(W.c, Z.c)
    assert W.support_basis(min_cost_direction(1), compute=False) is None


@pytest.mark.parametrize("payload", [b"\x02", b"\x01\x09", b"\x01\x01"])
def test_serialization_rejects_corrupt_basis(tmp_path, payload):
    # a one-set file ends in its basis: flag byte and one status code
    tube = ControllableTube([interval(-1.0, 1.0)], 1.0, "deterministic")
    path = tmp_path / "t.tube"
    serialize_tube(tube, path)
    good = path.read_bytes()
    assert good[-2] == 1
    path.write_bytes(good[:-2] + payload)
    with pytest.raises(ValueError):
        deserialize_tube(path)


def test_serialization_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.tube"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        deserialize_tube(path)


def test_serialization_rejects_truncation(tmp_path):
    tube = ControllableTube([interval(-1.0, 1.0)], 1.0, "deterministic")
    path = tmp_path / "t.tube"
    serialize_tube(tube, path)
    clipped = tmp_path / "clip.tube"
    clipped.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        deserialize_tube(clipped)


def test_serialization_rejects_trailing_garbage(tmp_path):
    tube = ControllableTube([interval(-1.0, 1.0)], 1.0, "deterministic")
    path = tmp_path / "t.tube"
    serialize_tube(tube, path)
    padded = tmp_path / "pad.tube"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError):
        deserialize_tube(padded)
