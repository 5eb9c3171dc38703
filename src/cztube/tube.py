"""Controllable-tube construction and storage.

The controllable set CS_k collects every augmented state at step k from
which the terminal set is reachable in the remaining steps while
honoring the path and control constraints.  The backward recursion
CS_k = X ∩ A^-1(CS_{k+1} ⊕ (-B U - d)) builds the whole tube offline;
the robust variant additionally erodes each set by the step's bounded
disturbance before stepping backward.

Each set is made with its canonical min-cost basis (``attach_cost_basis``),
the optimal basis of its support LP in the direction of least cost-to-go,
and the tube file stores it.  The online queries warm-start from these
bases (see ``cztube.guidance``) and never compute one themselves, so a
process that loads a tube and lands once gets the warm starts too.
"""

from __future__ import annotations

import hashlib
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
from .uncertainty import DisturbanceSchedule

TUBE_MAGIC = b"CZTB"
TUBE_VERSION = 2  # 1: the same without the per-set basis block
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


def min_cost_direction(dim: int) -> np.ndarray:
    """Support direction of least cost-to-go, the last coordinate of the
    augmented state: the support LP in it minimizes the cost."""
    eta = np.zeros(dim)
    eta[-1] = -1.0
    return eta


def attach_cost_basis(Z: ConstrainedZonotope) -> ConstrainedZonotope:
    """Z, with its canonical min-cost basis computed and memoized.

    The basis comes from the emptiness check: ``Z.is_empty`` settled by
    the support LP in the min-cost direction, which costs less than the
    zero-objective feasibility LP that settles it otherwise."""
    Z.is_empty(min_cost_direction(Z.dim))
    return Z


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
    if attach_cost_basis(terminal_set).is_empty():
        raise ValueError("terminal set is empty")
    sets = [terminal_set]
    while len(sets) < max_N:
        t0 = time.perf_counter()
        nxt = attach_cost_basis(backward_step(dyn, state_set, control_set, sets[-1]))
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
    cs = terminal_set_fulldim.minrow_normalize().pontryagin_difference(
        schedule.outer_zonotopes[N - 1]
    )
    cs = attach_cost_basis(cs.minrow_normalize())
    if cs.is_empty():
        raise RobustInfeasibleError(N)
    sets = [cs]
    for k in range(N - 1, 0, -1):
        t0 = time.perf_counter()
        eroded = sets[-1].pontryagin_difference(schedule.outer_zonotopes[k - 1])
        eroded = attach_cost_basis(eroded.minrow_normalize())
        if eroded.is_empty():
            raise RobustInfeasibleError(k)
        if eroded_sink is not None:
            eroded_sink[k] = eroded
        nxt = attach_cost_basis(
            backward_step(dyn_worst_case, state_set, control_set_robust, eroded)
        )
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


# -- serialization ---------------------------------------------------------


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, size: int) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError("tube file truncated")
    return raw


def _read_array(fh, count: int) -> np.ndarray:
    return np.frombuffer(_read_exact(fh, count * 8), dtype="<f8").copy()


def serialize_tube(tube: ControllableTube, path) -> None:
    """Write the tube; each set is followed by its canonical min-cost
    basis (one flag byte, then one HiGHS status code per latent column
    and per latent row), computed here if the set has none yet."""
    with open(path, "wb") as fh:
        fh.write(TUBE_MAGIC)
        fh.write(struct.pack("<IBId", TUBE_VERSION, _KINDS.index(tube.kind), tube.N, tube.dt))
        fh.write(tube.scenario_hash)
        for Z in tube.sets:
            n, n_g, n_e = Z.dim, Z.n_generators, Z.n_constraints
            fh.write(struct.pack("<III", n, n_g, n_e))
            _write_array(fh, Z.G)
            _write_array(fh, Z.c)
            _write_array(fh, Z.A.toarray())
            _write_array(fh, Z.b)
            basis = attach_cost_basis(Z).support_basis(min_cost_direction(n), compute=False)
            fh.write(b"\x00" if basis is None else b"\x01" + basis.codes().tobytes())


def deserialize_tube(path) -> ControllableTube:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TUBE_MAGIC:
            raise ValueError("not a tube file (bad magic bytes)")
        header = fh.read(struct.calcsize("<IBId"))
        if len(header) != struct.calcsize("<IBId"):
            raise ValueError("tube file truncated")
        version, kind_code, N, dt = struct.unpack("<IBId", header)
        if version not in (1, TUBE_VERSION):
            raise ValueError(f"unsupported tube format version {version}")
        if kind_code >= len(_KINDS) or N < 1:
            raise ValueError("corrupt tube header")
        digest = fh.read(32)
        if len(digest) != 32:
            raise ValueError("tube file truncated")
        sets = []
        for _ in range(N):
            dims = fh.read(12)
            if len(dims) != 12:
                raise ValueError("tube file truncated")
            n, n_g, n_e = struct.unpack("<III", dims)
            G = _read_array(fh, n * n_g).reshape(n, n_g)
            c = _read_array(fh, n)
            A = _read_array(fh, n_e * n_g).reshape(n_e, n_g)
            b = _read_array(fh, n_e)
            Z = ConstrainedZonotope(G, c, sp.csr_matrix(A), b)
            flag = _read_exact(fh, 1) if version > 1 else b"\x00"
            if flag == b"\x01":
                codes = np.frombuffer(_read_exact(fh, n_g + n_e), dtype=np.uint8)
                try:
                    Z.attach_support_basis(min_cost_direction(n), LpBasis.from_codes(codes, n_g))
                except ValueError as err:
                    raise ValueError(f"corrupt tube basis: {err}") from None
            elif flag != b"\x00":
                raise ValueError("corrupt tube basis flag")
            sets.append(Z)
        if fh.read(1):
            raise ValueError("trailing bytes after tube payload")
    return ControllableTube(sets, dt, _KINDS[kind_code], digest)
