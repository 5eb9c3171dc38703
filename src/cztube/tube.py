"""Controllable-tube construction and storage.

The controllable set CS_k collects every augmented state at step k from
which the terminal set is reachable in the remaining steps while
honoring the path and control constraints.  The backward recursion
CS_k = X ∩ A^-1(CS_{k+1} ⊕ (-B U - d)) builds the whole tube offline;
the robust variant additionally erodes each set by the step's bounded
disturbance before stepping backward.

Each set is made with its canonical basis (``ConstrainedZonotope.basis``),
the optimal basis of its support LP in the direction of least
cost-to-go, which the set's emptiness check leaves behind, and the tube
file stores it.  The online queries warm-start from these
bases (see ``cztube.guidance``) and never compute one themselves, so a
process that loads a tube and lands once gets the warm starts too.

Tube file, format version 3 (all little-endian):

- ``CZTB``, then ``<IBId`` (version, kind code, N, dt), then the 32-byte
  scenario digest;
- per set CS_1 ... CS_N: ``<IIIQ`` (n, n_g, n_e, nnz of A); G (n x n_g
  ``<f8``, row-major) and c (n ``<f8``); A in the canonical CSR form
  every set holds (duplicates summed, no stored zeros, column indices
  strictly increasing within each row) as ``indptr`` (n_e + 1 ``<i8``),
  ``indices`` (nnz ``<i4``) and ``data`` (nnz ``<f8``); b (n_e ``<f8``);
  then the basis block: one flag byte, and when it is 1 one uint8 HiGHS
  status code per latent column and per latent row.  The flag is 0 for
  a set that has no basis, such as a set with no generators.

A is sparse by construction (the block rows of intersections and
Minkowski sums), about 2% dense on the deterministic landing tube, so
the N=46 tube takes 22 MB instead of the 441 MB of a dense A.  Only
version 3 is read; an older file is rejected with a request to rebuild
it with ``cztube build-tube``.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from .czset import ConstrainedZonotope, NotFullDimensionalError
from .landing import (
    DiscreteDynamics,
    LandingScenario,
    build_control_set,
    build_state_set,
    build_terminal_set,
    discretize,
)
from .lp import LpBasis
from .uncertainty import (
    DisturbanceSchedule,
    UncertaintyModel,
    build_disturbance_schedule,
    robustify_control_set,
    worst_case_depletion_dynamics,
)

TUBE_MAGIC = b"CZTB"
TUBE_VERSION = 3  # the only version read; older files ask for a rebuild
_KINDS = ("deterministic", "robust")


class RobustInfeasibleError(Exception):
    """Robust recursion emptied out; .step names the offending index."""

    def __init__(self, step: int):
        super().__init__(f"robust recursion became empty at step {step}")
        self.step = step


@dataclass
class ControllableTube:
    """Sets CS_1 ... CS_N (sets[k-1] is CS_k); CS_N is the terminal set."""

    sets: List[ConstrainedZonotope]
    dt: float
    kind: str
    scenario_hash: bytes = b"\x00" * 32

    def __post_init__(self):
        if not self.sets:
            raise ValueError("tube must contain at least one set")
        if self.kind not in _KINDS:
            raise ValueError(f"tube kind must be one of {_KINDS}")
        if len(self.scenario_hash) != 32:
            raise ValueError("scenario hash must be 32 bytes")

    @property
    def N(self) -> int:
        return len(self.sets)

    def cs(self, k: int) -> ConstrainedZonotope:
        """1-based accessor for CS_k."""
        if not 1 <= k <= self.N:
            raise IndexError(f"step {k} outside 1..{self.N}")
        return self.sets[k - 1]


def scenario_digest(scn: LandingScenario, **extra) -> bytes:
    """Stable 32-byte digest of the generating parameters."""
    h = hashlib.sha256()
    for name in sorted(vars(scn)):
        val = getattr(scn, name)
        h.update(name.encode())
        h.update(np.asarray(val, dtype=float).tobytes() if val is not None else b"none")
    for name in sorted(extra):
        h.update(name.encode())
        h.update(repr(extra[name]).encode())
    return h.digest()


def backward_step(
    dyn: DiscreteDynamics,
    state_set: ConstrainedZonotope,
    control_set: ConstrainedZonotope,
    target: ConstrainedZonotope,
) -> ConstrainedZonotope:
    """X ∩ A^-1(target ⊕ (-B U - d)), normalized."""
    shifted = control_set.affine_map(-dyn.B, -dyn.d)
    pre = target.minkowski_sum(shifted).affine_map(dyn.A_inv)
    return state_set.intersect(pre).minrow_normalize()


def eroded_target(cs: ConstrainedZonotope, generators) -> ConstrainedZonotope:
    """cs minus the centered zonotope of ``generators``, normalized: the
    set that a robust step steers into."""
    return cs.pontryagin_difference(generators).minrow_normalize()


def deterministic_recursion(
    dyn: DiscreteDynamics,
    state_set: ConstrainedZonotope,
    control_set: ConstrainedZonotope,
    terminal_set: ConstrainedZonotope,
    max_N: int = 200,
    scenario_hash: bytes = b"\x00" * 32,
    progress=None,
) -> ControllableTube:
    """Backward recursion from the terminal set until it empties out.

    The cost-to-go coordinate is bounded and strictly depleting, so the
    recursion terminates on its own; max_N only guards misconfiguration.
    """
    if terminal_set.is_empty():
        raise ValueError("terminal set is empty")
    sets = [terminal_set]
    while len(sets) < max_N:
        t0 = time.perf_counter()
        nxt = backward_step(dyn, state_set, control_set, sets[-1])
        if nxt.is_empty():
            break
        sets.append(nxt)
        if progress is not None:
            progress(len(sets), nxt, time.perf_counter() - t0)
    sets.reverse()
    return ControllableTube(sets, dyn.dt, "deterministic", scenario_hash)


def robust_recursion(
    dyn_worst_case: DiscreteDynamics,
    state_set: ConstrainedZonotope,
    control_set_robust: ConstrainedZonotope,
    terminal_set_fulldim: ConstrainedZonotope,
    schedule: DisturbanceSchedule,
    N: int,
    scenario_hash: bytes = b"\x00" * 32,
    progress=None,
    eroded_sink=None,
) -> ControllableTube:
    """Fixed-horizon recursion with per-step disturbance erosion.

    When eroded_sink is a dict, the intermediate disturbance-eroded
    targets are stored into it (eroded_sink[k] is the step k+1 set minus
    the step-k disturbance) so closed-loop simulation can reuse them.
    """
    if N != schedule.N:
        raise ValueError("horizon does not match disturbance schedule length")
    cs = eroded_target(terminal_set_fulldim, schedule.outer_zonotopes[N - 1])
    if cs.is_empty():
        raise RobustInfeasibleError(N)
    sets = [cs]
    for k in range(N - 1, 0, -1):
        t0 = time.perf_counter()
        eroded = eroded_target(sets[-1], schedule.outer_zonotopes[k - 1])
        if eroded.is_empty():
            raise RobustInfeasibleError(k)
        if eroded_sink is not None:
            eroded_sink[k] = eroded
        nxt = backward_step(dyn_worst_case, state_set, control_set_robust, eroded)
        if nxt.is_empty():
            raise RobustInfeasibleError(k)
        sets.append(nxt)
        if progress is not None:
            progress(k, nxt, time.perf_counter() - t0)
    sets.reverse()
    return ControllableTube(sets, dyn_worst_case.dt, "robust", scenario_hash)


def make_full_dim_terminal(
    scn: LandingScenario,
    k_points: Optional[int] = None,
    pre_steps: int = 2,
) -> ConstrainedZonotope:
    """Full-dimensional stand-in for the flat terminal conditions.

    Runs pre_steps deterministic backward steps at dt/pre_steps from the
    flat terminal set with untightened dynamics and controls, so every
    point of the result can still reach the original terminal conditions
    within one sampling interval.
    """
    if pre_steps < 1:
        raise ValueError("need at least one pre-recursion step")
    dyn = discretize(scn, scn.dt / pre_steps)
    state_set = build_state_set(scn)
    control_set = build_control_set(scn, k_points)
    cs = build_terminal_set(scn)
    for _ in range(pre_steps):
        cs = backward_step(dyn, state_set, control_set, cs)
    if not cs.is_full_dimensional():
        raise NotFullDimensionalError(
            "terminal pre-recursion did not produce a full-dimensional set"
        )
    return cs


def robust_parts(scn: LandingScenario, model: UncertaintyModel, pre_steps: int = 2):
    """(dynamics, schedule over scn.N steps, robust control set,
    full-dimensional terminal set, worst-case dynamics): what
    ``robust_recursion`` and ``guidance.monte_carlo`` take besides the
    state set.  Both control sets use scn.n_points thrust points."""
    dyn = discretize(scn)
    schedule = build_disturbance_schedule(model, dyn, scn.N)
    control_set = robustify_control_set(scn, schedule.R_u)
    terminal = make_full_dim_terminal(scn, pre_steps=pre_steps)
    dyn_worst_case = worst_case_depletion_dynamics(dyn, scn.alpha, schedule.R_u)
    return dyn, schedule, control_set, terminal, dyn_worst_case


# -- serialization ---------------------------------------------------------


def _write_array(fh, arr: np.ndarray, dtype: str = "<f8") -> None:
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _read_exact(fh, size: int) -> bytearray:
    # checked against the file size first, so a corrupt count cannot
    # allocate past the end of the file
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("tube file truncated")
    buf = bytearray(size)
    if fh.readinto(buf) != size:
        raise ValueError("tube file truncated")
    return buf


def _read_array(fh, count: int, dtype: str = "<f8") -> np.ndarray:
    dtype = np.dtype(dtype)
    return np.frombuffer(_read_exact(fh, count * dtype.itemsize), dtype=dtype)


def _read_csr(fh, n_e: int, n_g: int, nnz: int) -> sp.csr_matrix:
    """The CSR block of a version-3 set, validated as canonical."""
    indptr = _read_array(fh, n_e + 1, "<i8")
    indices = _read_array(fh, nnz, "<i4")
    data = _read_array(fh, nnz)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ValueError("corrupt tube constraint matrix: bad row pointers")
    if nnz and (indices.min() < 0 or indices.max() >= n_g):
        raise ValueError("corrupt tube constraint matrix: column index out of range")
    # consecutive entries of one row must have increasing columns; the
    # pairs that straddle a row start are exempt
    within_row = np.ones(max(nnz - 1, 0), dtype=bool)
    starts = indptr[1:-1]
    within_row[starts[(starts > 0) & (starts < nnz)] - 1] = False
    if np.any(np.diff(indices)[within_row] <= 0):
        raise ValueError("corrupt tube constraint matrix: unsorted or duplicate column index")
    if np.any(data == 0):
        raise ValueError("corrupt tube constraint matrix: stored zero")
    return sp.csr_matrix((data, indices, indptr), shape=(n_e, n_g))


def serialize_tube(tube: ControllableTube, path) -> None:
    """Write the tube in format version 3 (see the module docstring).

    Each set's A is written as it is held, in canonical CSR form, so a
    set writes the same bytes as every equal set and as its reload.
    Each set is followed by its canonical basis (one flag byte,
    then one HiGHS status code per latent column and per latent row),
    computed here by the set's emptiness check if it has none yet."""
    with open(path, "wb") as fh:
        fh.write(TUBE_MAGIC)
        fh.write(struct.pack("<IBId", TUBE_VERSION, _KINDS.index(tube.kind), tube.N, tube.dt))
        fh.write(tube.scenario_hash)
        for Z in tube.sets:
            n, n_g, n_e = Z.dim, Z.n_generators, Z.n_constraints
            fh.write(struct.pack("<IIIQ", n, n_g, n_e, Z.A.nnz))
            _write_array(fh, Z.G)
            _write_array(fh, Z.c)
            _write_array(fh, Z.A.indptr, "<i8")
            _write_array(fh, Z.A.indices, "<i4")
            _write_array(fh, Z.A.data)
            _write_array(fh, Z.b)
            Z.is_empty()
            basis = Z.basis()
            fh.write(b"\x00" if basis is None else b"\x01" + basis.codes().tobytes())


def deserialize_tube(path) -> ControllableTube:
    """Load a tube file of format version 3; ValueError names what is
    wrong with a file that is not a well-formed version-3 tube."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TUBE_MAGIC:
            raise ValueError("not a tube file (bad magic bytes)")
        header = fh.read(struct.calcsize("<IBId"))
        if len(header) != struct.calcsize("<IBId"):
            raise ValueError("tube file truncated")
        version, kind_code, N, dt = struct.unpack("<IBId", header)
        if version in (1, 2):
            raise ValueError(
                f"tube format version {version} is no longer read; "
                "rebuild the tube with `cztube build-tube`"
            )
        if version != TUBE_VERSION:
            raise ValueError(f"unsupported tube format version {version}")
        if kind_code >= len(_KINDS) or N < 1:
            raise ValueError("corrupt tube header")
        digest = fh.read(32)
        if len(digest) != 32:
            raise ValueError("tube file truncated")
        sets = []
        for _ in range(N):
            n, n_g, n_e, nnz = struct.unpack("<IIIQ", _read_exact(fh, struct.calcsize("<IIIQ")))
            G = _read_array(fh, n * n_g).reshape(n, n_g)
            c = _read_array(fh, n)
            A = _read_csr(fh, n_e, n_g, nnz)
            b = _read_array(fh, n_e)
            Z = ConstrainedZonotope(G, c, A, b)
            flag = _read_exact(fh, 1)
            if flag == b"\x01":
                codes = _read_array(fh, n_g + n_e, "u1")
                try:
                    Z.attach_basis(LpBasis.from_codes(codes, n_g))
                except ValueError as err:
                    raise ValueError(f"corrupt tube basis: {err}") from None
            elif flag != b"\x00":
                raise ValueError("corrupt tube basis flag")
            sets.append(Z)
        if fh.read(1):
            raise ValueError("trailing bytes after tube payload")
    return ControllableTube(sets, dt, _KINDS[kind_code], digest)
