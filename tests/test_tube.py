"""Tests for the controllable-tube recursions and the tube file format."""

import hashlib
import struct

import numpy as np
import pytest
import scipy.sparse as sp

from cztube.czset import ConstrainedZonotope
from cztube.guidance import optimal_horizon
from cztube.landing import DiscreteDynamics, LandingScenario
from cztube.tube import (
    ControllableTube,
    RobustInfeasibleError,
    backward_step,
    deterministic_recursion,
    deserialize_tube,
    make_full_dim_terminal,
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


def test_scalar_landing_toy_keeps_its_empty_coupling_rows():
    # criterion 02's toy: position moved by u, cost depleted by sigma.
    # Six of the 8 coupling rows of each step read 0 = 0, since X, U and
    # the target all pin those coordinates; the recursion keeps them, so
    # n_e grows by 9 per step (U's row and all 8 coupling rows), and the
    # horizon scan reads the same as on a copy with independent rows
    B = np.zeros((8, 2))
    B[0, 0], B[7, 1] = 1.0, -1.0
    dyn = DiscreteDynamics(A=np.eye(8), B=B, d=np.zeros(8), dt=1.0)
    U = ConstrainedZonotope.from_vertices(np.array([[-1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
    GX = np.zeros((8, 2))
    GX[0, 0] = GX[7, 1] = 10.0
    X = ConstrainedZonotope(GX, np.array([0, 0, 0, 0, 0, 0, 0, 10.0]))
    Xf = ConstrainedZonotope(np.zeros((8, 0)), np.zeros(8))
    tube = deterministic_recursion(dyn, X, U, Xf, max_N=12)
    assert [tube.cs(tube.N - j).n_constraints for j in range(tube.N)] == [
        9 * j for j in range(tube.N)
    ]
    reduced = ControllableTube([Z.minrow_normalize() for Z in tube.sets], tube.dt, tube.kind)
    assert reduced.cs(1).n_constraints == 3 * (tube.N - 1)
    for x0 in np.random.default_rng(42).uniform(-8.0, 8.0, size=10):
        x = np.array([x0, 0, 0, 0, 0, 0, 0])
        built, ref = optimal_horizon(x, tube, tol=1e-12), optimal_horizon(x, reduced, tol=1e-12)
        assert built.k_star == ref.k_star and built.costs.keys() == ref.costs.keys()
        assert max(abs(built.costs[k] - ref.costs[k]) for k in built.costs) <= 1e-12


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
        assert eroded is tube.eroded[k - 1]
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


def test_only_a_robust_tube_carries_eroded_targets_one_per_step():
    Xf = interval(-1.0, 1.0)
    assert ControllableTube([Xf, Xf], 1.0, "robust", eroded=[Xf]).eroded == [Xf]
    with pytest.raises(ValueError, match="robust"):
        ControllableTube([Xf, Xf], 1.0, "deterministic", eroded=[Xf])
    for targets in ([], [Xf, Xf]):
        with pytest.raises(ValueError, match="1..N-1"):
            ControllableTube([Xf, Xf], 1.0, "robust", eroded=targets)


def test_scenario_digest_sensitivity():
    a = scenario_digest(LandingScenario())
    b = scenario_digest(LandingScenario(dt=4.0))
    c = scenario_digest(LandingScenario(), n_points=14)
    assert len(a) == 32 and a != b and a != c
    assert scenario_digest(LandingScenario()) == a
    # one tube serves every start it contains, so the start is left out
    moved = LandingScenario(r_i=np.array([1.0, 2.0, 3.0]), v_i=np.array([4.0, 5.0, 6.0]))
    assert scenario_digest(moved) == a
    assert scenario_digest(LandingScenario(r_f=np.ones(3))) != a


def _assert_roundtrip_bitwise(tube, tmp_path):
    path = tmp_path / "tube.cztb"
    serialize_tube(tube, path)
    back = deserialize_tube(path)
    assert back.kind == tube.kind and back.N == tube.N and back.dt == tube.dt
    assert back.scenario_hash == tube.scenario_hash
    assert (back.eroded is None) == (tube.eroded is None)
    ours, theirs = tube.sets + (tube.eroded or []), back.sets + (back.eroded or [])
    assert len(ours) == len(theirs)
    for Z, W in zip(ours, theirs):
        assert np.array_equal(np.asarray(Z.G, float), np.asarray(W.G, float))
        assert np.array_equal(Z.c, W.c)
        assert np.array_equal(Z.A.toarray(), W.A.toarray())
        assert np.array_equal(Z.b, W.b)
        assert W.basis() == Z.basis()
    # serializing the reloaded tube reproduces the file byte-for-byte
    path2 = tmp_path / "again.cztb"
    serialize_tube(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_serialization_roundtrip_bitwise(tmp_path):
    dyn = toy_integrator()
    X, U = interval(-5.0, 5.0), interval(-1.0, 1.0)
    Xf = ConstrainedZonotope(np.zeros((1, 0)), np.zeros(1))
    tube = deterministic_recursion(dyn, X, U, Xf, max_N=4,
                                   scenario_hash=hashlib.sha256(b"toy").digest())
    _assert_roundtrip_bitwise(tube, tmp_path)


def test_robust_tube_roundtrip_carries_its_eroded_targets_bitwise(tmp_path):
    N = 4
    tube = robust_recursion(toy_integrator(), interval(-10.0, 10.0), interval(-1.0, 1.0),
                            interval(-1.0, 1.0), toy_schedule(N), N,
                            scenario_hash=hashlib.sha256(b"robust toy").digest())
    assert len(tube.eroded) == N - 1
    assert all(Z.basis() is not None for Z in tube.eroded)
    _assert_roundtrip_bitwise(tube, tmp_path)
    # the header counts the targets, and they follow CS_N
    raw = (tmp_path / "tube.cztb").read_bytes()
    assert struct.unpack_from("<IBIId", raw, 4) == (4, 1, N, N - 1, 1.0)
    # a robust tube without its targets writes none and loads without them
    bare = ControllableTube(tube.sets, tube.dt, "robust", tube.scenario_hash)
    serialize_tube(bare, tmp_path / "bare.cztb")
    assert deserialize_tube(tmp_path / "bare.cztb").eroded is None
    assert (tmp_path / "bare.cztb").stat().st_size < len(raw)


def _landing_toy_tube():
    """The 8-state, 12-set toy tube of acceptance criterion 02."""
    B = np.zeros((8, 2))
    B[0, 0], B[7, 1] = 1.0, -1.0
    dyn = DiscreteDynamics(A=np.eye(8), B=B, d=np.zeros(8), dt=1.0)
    U = ConstrainedZonotope.from_vertices(np.array([[-1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
    GX = np.zeros((8, 2))
    GX[0, 0], GX[7, 1] = 10.0, 10.0
    X = ConstrainedZonotope(GX, np.array([0, 0, 0, 0, 0, 0, 0, 10.0]))
    Xf = ConstrainedZonotope(np.zeros((8, 0)), np.zeros(8))
    return deterministic_recursion(dyn, X, U, Xf, max_N=12)


def test_landing_toy_roundtrip_bitwise(tmp_path):
    _assert_roundtrip_bitwise(_landing_toy_tube(), tmp_path)


def test_noncanonical_constraint_matrix_writes_its_canonical_form(tmp_path):
    # A = [[1, 2, 0], [0, 1, 1]] with an explicit zero and unsorted
    # indices in its first row
    A = sp.csr_matrix(
        (np.array([2.0, 0.0, 1.0, 1.0, 1.0]), np.array([1, 2, 0, 1, 2]), np.array([0, 3, 5])),
        shape=(2, 3),
    )
    args = (np.array([[1.0, 0.5, 0.25]]), np.zeros(1), A, np.array([0.5, 0.2]))
    raw = ConstrainedZonotope(*args)
    canonical = ConstrainedZonotope(args[0], args[1], sp.csr_matrix(A.toarray()), args[3])
    for a, b in ((raw.A.indptr, canonical.A.indptr), (raw.A.indices, canonical.A.indices),
                 (raw.A.data, canonical.A.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    paths = tmp_path / "canonical.cztb", tmp_path / "raw.cztb"
    serialize_tube(ControllableTube([canonical], 1.0, "deterministic"), paths[0])
    serialize_tube(ControllableTube([raw], 1.0, "deterministic"), paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # the caller's matrix is left as it was
    assert A.nnz == 5 and A.indices.tolist() == [1, 2, 0, 1, 2]


def test_latent_with_only_a_stored_zero_is_pruned_and_its_tube_loads(tmp_path):
    # A = [[1, 0, 0]] stores its column-2 zero; G's column 2 is zero too,
    # so that latent is unused and the set drops it, as its reload does
    A = sp.csr_matrix((np.array([1.0, 0.0]), np.array([0, 2]), np.array([0, 2])), shape=(1, 3))
    Z = ConstrainedZonotope(np.array([[1.0, 1.0, 0.0]]), np.zeros(1), A, np.array([0.5]))
    assert Z.n_generators == 2
    path = tmp_path / "zero.cztb"
    serialize_tube(ControllableTube([Z], 1.0, "deterministic"), path)
    back = deserialize_tube(path).cs(1)
    assert Z.basis() is not None
    assert back.basis() == Z.basis()


def _toy_tube():
    dyn = toy_integrator()
    X, U = interval(-5.0, 5.0), interval(-1.0, 1.0)
    Xf = interval(-0.5, 0.5)
    return deterministic_recursion(dyn, X, U, Xf, max_N=4)


def test_recursion_and_tube_file_carry_the_cost_bases(tmp_path):
    # every set is made with its min-cost basis, and a loaded set carries
    # the same one without solving anything
    tube = _toy_tube()
    bases = [Z.basis() for Z in tube.sets]
    assert all(b is not None for b in bases)
    assert not any(Z.is_empty() for Z in tube.sets)
    path = tmp_path / "toy.tube"
    serialize_tube(tube, path)
    back = deserialize_tube(path)
    assert [Z.basis() for Z in back.sets] == bases


@pytest.mark.parametrize("version", [1, 2, 3])
def test_version_1_and_2_tube_files_ask_for_a_rebuild(tmp_path, version):
    # the header alone decides: no set of an older file is read
    raw = b"CZTB" + struct.pack("<IBId", version, 0, 1, 1.0) + b"\x00" * 32
    raw += struct.pack("<III", 1, 1, 0) + np.array([1.5, 0.5]).tobytes()
    path = tmp_path / f"v{version}.tube"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"version {version} .*build-tube"):
        deserialize_tube(path)


def _csr_tube_file(tmp_path):
    """A one-set file whose A is [[1, 2, 0, 0], [0, 1, 1, 0], [0, 0, 1, 3]],
    and the byte offsets of its nnz field, indptr, indices and data."""
    A = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 3.0]])
    G = np.array([[1.0, 1.0, 1.0, 1.0]])
    Z = ConstrainedZonotope(G, np.zeros(1), A, A @ np.array([0.1, 0.2, 0.0, 0.1]))
    path = tmp_path / "t.cztb"
    serialize_tube(ControllableTube([Z], 1.0, "deterministic"), path)
    nnz_at = 4 + struct.calcsize("<IBIId") + 32 + 12
    indptr_at = nnz_at + 8 + 8 * (4 + 1)
    indices_at = indptr_at + 8 * 4
    data_at = indices_at + 4 * 6
    return path, {"nnz": nnz_at, "indptr": indptr_at, "indices": indices_at, "data": data_at}


def test_csr_tube_file_layout(tmp_path):
    path, at = _csr_tube_file(tmp_path)
    raw = path.read_bytes()
    assert struct.unpack_from("<Q", raw, at["nnz"])[0] == 6
    assert np.frombuffer(raw, "<i8", 4, at["indptr"]).tolist() == [0, 2, 4, 6]
    assert np.frombuffer(raw, "<i4", 6, at["indices"]).tolist() == [0, 1, 1, 2, 2, 3]
    assert np.frombuffer(raw, "<f8", 6, at["data"]).tolist() == [1, 2, 1, 1, 1, 3]
    W = deserialize_tube(path).cs(1)
    assert W.A.toarray().tolist() == [[1, 2, 0, 0], [0, 1, 1, 0], [0, 0, 1, 3]]


@pytest.mark.parametrize("field, fmt, index, value", [
    ("indptr", "<q", 0, 1),           # does not start at 0
    ("indptr", "<q", 1, 5),           # decreases
    ("indptr", "<q", 3, 5),           # ends before nnz
    ("indices", "<i", 5, 4),          # column n_g
    ("indices", "<i", 0, -1),         # negative column
    ("indices", "<i", 0, 1),          # duplicate column in a row
    ("indices", "<i", 3, 1),          # unsorted columns in a row
    ("data", "<d", 2, 0.0),           # stored zero
    ("nnz", "<Q", 0, 1 << 40),        # entries run past the end of the file
])
def test_serialization_rejects_corrupt_constraint_matrix(tmp_path, field, fmt, index, value):
    path, at = _csr_tube_file(tmp_path)
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, at[field] + index * struct.calcsize(fmt), value)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        deserialize_tube(path)


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
