"""Controllable-tube construction and storage.

The controllable set CS_k collects every augmented state at step k from
which the terminal set is reachable in the remaining steps while
honoring the path and control constraints.  The backward recursion
CS_k = X ∩ A^-1(CS_{k+1} ⊕ (-B U - d)) builds the whole tube offline;
the robust variant additionally erodes each set by the step's bounded
disturbance before stepping backward.  Both are plain set algebra: no
step reduces a set's latent equality rows, and the LP layer certifies
its verdicts on dependent or inconsistent rows (see ``cztube.lp``).

The tube file stores each set's canonical basis (see ``cztube.czset``),
so a process that loads a tube and lands once starts warm, and a robust
tube its eroded targets, so the online side never erodes.

Tube file, format version 4 (all little-endian):

- ``CZTB``, then ``<IBIId`` (version, kind code, N, M, dt), then the
  32-byte scenario digest (``scenario_digest``; the CLI checks it on
  load).  M is the number of eroded targets: N-1 for a tube from
  ``robust_recursion``, else 0;
- the sets CS_1 ... CS_N, then the eroded targets 1 ... M, each as
  ``<IIIQ`` (n, n_g, n_e, nnz of A); G (n x n_g ``<f8``, row-major) and
  c (n ``<f8``); A in the canonical CSR form every set holds
  (duplicates summed, no stored zeros, column indices strictly
  increasing within each row) as ``indptr`` (n_e + 1 ``<i8``),
  ``indices`` (nnz ``<i4``) and ``data`` (nnz ``<f8``); b (n_e ``<f8``);
  then the basis block: one flag byte, and when it is 1 one uint8 HiGHS
  status code per latent column and per latent row.  The flag is 0 for
  a set that has no basis, such as a set with no generators.

A is sparse by construction (the block rows of intersections and
Minkowski sums), about 2% dense on the deterministic landing tube, so
the N=46 tube takes 22 MB instead of the 441 MB of a dense A.  Only
version 4 is read; an older file is rejected with a request to rebuild
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
TUBE_VERSION = 4  # the only version read; older files ask for a rebuild
_KINDS = ("deterministic", "robust")
# backward steps, at dt/PRE_STEPS, that make the terminal set full-dimensional
PRE_STEPS = 2


class RobustInfeasibleError(Exception):
    """Robust recursion emptied out; .step names the offending index."""

    def __init__(self, step: int):
        super().__init__(f"robust recursion became empty at step {step}")
        self.step = step


@dataclass
class ControllableTube:
    """Sets CS_1 ... CS_N (sets[k-1] is CS_k); CS_N is the terminal set.
    A robust tube may carry its eroded targets: eroded[k-1] is CS_{k+1}
    minus the step-k disturbance, for k = 1 ... N-1."""

    sets: List[ConstrainedZonotope]
    dt: float
    kind: str
    scenario_hash: bytes = b"\x00" * 32
    eroded: Optional[List[ConstrainedZonotope]] = None

    def __post_init__(self):
        if not self.sets:
            raise ValueError("tube must contain at least one set")
        if self.kind not in _KINDS:
            raise ValueError(f"tube kind must be one of {_KINDS}")
        if len(self.scenario_hash) != 32:
            raise ValueError("scenario hash must be 32 bytes")
        if self.eroded is not None and (self.kind != "robust" or len(self.eroded) != self.N - 1):
            raise ValueError("only a robust tube carries eroded targets, one per step 1..N-1")

    @property
    def N(self) -> int:
        return len(self.sets)

    def cs(self, k: int) -> ConstrainedZonotope:
        """1-based accessor for CS_k."""
        if not 1 <= k <= self.N:
            raise IndexError(f"step {k} outside 1..{self.N}")
        return self.sets[k - 1]


def scenario_digest(scn: LandingScenario, **extra) -> bytes:
    """Stable 32-byte digest of the parameters a tube is built from:
    every scenario field but the start (r_i, v_i), since one tube serves
    every start it contains, and the extra ones given."""
    h = hashlib.sha256()
    for name in sorted(set(vars(scn)) - {"r_i", "v_i"}):
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
    """X ∩ A^-1(target ⊕ (-B U - d)) as the set algebra builds it."""
    shifted = control_set.affine_map(-dyn.B, -dyn.d)
    pre = target.minkowski_sum(shifted).affine_map(dyn.A_inv)
    return state_set.intersect(pre)


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

    The tube carries the eroded targets (``ControllableTube.eroded``):
    the step-k target is CS_{k+1} minus the step-k disturbance, the set
    that closed-loop step k steers into.  When eroded_sink is a dict it
    also receives them, keyed by step k.
    """
    if N != schedule.N:
        raise ValueError("horizon does not match disturbance schedule length")
    cs = terminal_set_fulldim.pontryagin_difference(schedule.outer_zonotopes[N - 1])
    if cs.is_empty():
        raise RobustInfeasibleError(N)
    sets, targets = [cs], []
    for k in range(N - 1, 0, -1):
        t0 = time.perf_counter()
        eroded = sets[-1].pontryagin_difference(schedule.outer_zonotopes[k - 1])
        if eroded.is_empty():
            raise RobustInfeasibleError(k)
        targets.append(eroded)
        nxt = backward_step(dyn_worst_case, state_set, control_set_robust, eroded)
        if nxt.is_empty():
            raise RobustInfeasibleError(k)
        sets.append(nxt)
        if progress is not None:
            progress(k, nxt, time.perf_counter() - t0)
    sets.reverse()
    targets.reverse()
    if eroded_sink is not None:
        eroded_sink.update(enumerate(targets, start=1))
    return ControllableTube(sets, dyn_worst_case.dt, "robust", scenario_hash, targets)


def make_full_dim_terminal(
    scn: LandingScenario,
    k_points: Optional[int] = None,
) -> ConstrainedZonotope:
    """Full-dimensional stand-in for the flat terminal conditions.

    Runs PRE_STEPS deterministic backward steps at dt/PRE_STEPS from the
    flat terminal set with untightened dynamics and controls, so every
    point of the result can still reach the original terminal conditions
    within one sampling interval.
    """
    dyn = discretize(scn, scn.dt / PRE_STEPS)
    state_set = build_state_set(scn)
    control_set = build_control_set(scn, k_points)
    cs = build_terminal_set(scn)
    for _ in range(PRE_STEPS):
        cs = backward_step(dyn, state_set, control_set, cs)
    if not cs.is_full_dimensional():
        raise NotFullDimensionalError(
            "terminal pre-recursion did not produce a full-dimensional set"
        )
    return cs


def robust_parts(scn: LandingScenario, model: UncertaintyModel):
    """(dynamics, schedule over scn.N steps, robust control set,
    full-dimensional terminal set, worst-case dynamics): what
    ``robust_recursion`` and ``guidance.monte_carlo`` take besides the
    state set.  Both control sets use scn.n_points thrust points."""
    dyn = discretize(scn)
    schedule = build_disturbance_schedule(model, dyn, scn.N)
    control_set = robustify_control_set(scn, schedule.R_u)
    terminal = make_full_dim_terminal(scn)
    dyn_worst_case = worst_case_depletion_dynamics(dyn, scn.alpha, schedule.R_u)
    return dyn, schedule, control_set, terminal, dyn_worst_case


# -- serialization ---------------------------------------------------------


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
    """The CSR block of a set, validated as canonical."""
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


def _write_set(fh, Z: ConstrainedZonotope) -> None:
    fh.write(struct.pack("<IIIQ", Z.dim, Z.n_generators, Z.n_constraints, Z.A.nnz))
    for arr, dtype in ((Z.G, "<f8"), (Z.c, "<f8"), (Z.A.indptr, "<i8"),
                       (Z.A.indices, "<i4"), (Z.A.data, "<f8"), (Z.b, "<f8")):
        fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    Z.is_empty()
    basis = Z.basis()
    fh.write(b"\x00" if basis is None else b"\x01" + basis.codes().tobytes())


def _read_set(fh) -> ConstrainedZonotope:
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
    return Z


def serialize_tube(tube: ControllableTube, path) -> None:
    """Write the tube in format version 4 (see the module docstring).

    Each set's A, and each eroded target's, is written as it is held, in
    canonical CSR form, so a set writes the same bytes as every equal set
    and as its reload.  Each is followed by its canonical basis (one flag
    byte, then one HiGHS status code per latent column and per latent
    row), computed here by the set's emptiness check if it has none yet."""
    targets = tube.eroded or []
    with open(path, "wb") as fh:
        fh.write(TUBE_MAGIC)
        fh.write(struct.pack("<IBIId", TUBE_VERSION, _KINDS.index(tube.kind), tube.N,
                             len(targets), tube.dt))
        fh.write(tube.scenario_hash)
        for Z in tube.sets + targets:
            _write_set(fh, Z)


def deserialize_tube(path) -> ControllableTube:
    """Load a tube file of format version 4; ValueError names what is
    wrong with a file that is not a well-formed version-4 tube."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TUBE_MAGIC:
            raise ValueError("not a tube file (bad magic bytes)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version < TUBE_VERSION:
            raise ValueError(
                f"tube format version {version} is no longer read; "
                "rebuild the tube with `cztube build-tube`"
            )
        if version != TUBE_VERSION:
            raise ValueError(f"unsupported tube format version {version}")
        kind_code, N, M, dt = struct.unpack("<BIId", _read_exact(fh, struct.calcsize("<BIId")))
        if kind_code >= len(_KINDS) or N < 1:
            raise ValueError("corrupt tube header")
        digest = bytes(_read_exact(fh, 32))
        sets = [_read_set(fh) for _ in range(N + M)]
        if fh.read(1):
            raise ValueError("trailing bytes after tube payload")
    return ControllableTube(sets[:N], dt, _KINDS[kind_code], digest, sets[N:] or None)
