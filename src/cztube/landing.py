"""Powered-descent landing model.

State is the 8-vector (r1, r2, r3, v1, v2, v3, z, c): position, velocity,
log-mass, and remaining cost-to-go.  Control is (u1, u2, u3, sigma):
mass-normalized thrust acceleration and its relaxed magnitude.  The
log-mass transform makes the depletion dynamics affine, and sigma upper
bounds ||u||_2 so every constraint is representable with polytopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cone import CompactQuadraticCone, cqc_inner_approx
from .czset import ConstrainedZonotope, Halfspace

R_IDX = slice(0, 3)
Z_IDX = 6
C_IDX = 7
STATE_DIM = 8
CONTROL_DIM = 4


def default_glideslope(gamma_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Four-sided glideslope cone keeping the approach above gamma_max."""
    cg, sg = math.cos(gamma_max), math.sin(gamma_max)
    H = np.array(
        [
            [cg, 0.0, -sg],
            [0.0, cg, -sg],
            [-cg, 0.0, -sg],
            [0.0, -cg, -sg],
        ]
    )
    return H, np.zeros(4)


@dataclass
class LandingScenario:
    """Physical and mission parameters for the landing problem (SI units)."""

    g: float = 1.625
    T_full: float = 10500.0
    T_max: float = 8400.0
    T_min: float = 2100.0
    m_wet: float = 1905.0
    m_dry: float = 1505.0
    alpha: float = 0.00115
    theta_max: float = math.radians(50.0)
    gamma_max: float = math.radians(80.0)
    r_max: float = 4000.0
    v_max: float = 100.0
    r_i: np.ndarray = field(default_factory=lambda: np.array([875.0, 0.0, 635.0]))
    v_i: np.ndarray = field(default_factory=lambda: np.array([40.0, 0.0, -30.0]))
    r_f: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v_f: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dt: float = 3.0
    n_points: int = 302
    N: Optional[int] = None

    def __post_init__(self):
        self.r_i = np.asarray(self.r_i, dtype=float)
        self.v_i = np.asarray(self.v_i, dtype=float)
        self.r_f = np.asarray(self.r_f, dtype=float)
        self.v_f = np.asarray(self.v_f, dtype=float)
        if not (0 < self.T_min < self.T_max <= self.T_full):
            raise ValueError("thrust bounds must satisfy 0 < T_min < T_max <= T_full")
        if not self.m_dry < self.m_wet:
            raise ValueError("dry mass must be below wet mass")
        if self.theta_max > math.pi / 2:
            raise ValueError("pointing half-angle must not exceed 90 degrees")
        if self.dt <= 0:
            raise ValueError("sampling time must be positive")

    @property
    def z_min(self) -> float:
        return math.log(self.m_dry)

    @property
    def z_max(self) -> float:
        return math.log(self.m_wet)

    @property
    def c_max(self) -> float:
        return math.log(self.m_wet / self.m_dry)

    @property
    def accel_max(self) -> float:
        """Maximum mass-normalized thrust acceleration, T_max / m_wet."""
        return self.T_max / self.m_wet

    @property
    def accel_min(self) -> float:
        """Conservative lower thrust acceleration bound, T_min / m_dry."""
        return self.T_min / self.m_dry

    def initial_state(self) -> np.ndarray:
        """(r_i, v_i, full-tank log-mass); cost-to-go is decided online."""
        return np.concatenate([self.r_i, self.v_i, [self.z_max]])


@dataclass
class DiscreteDynamics:
    """Exact zero-order-hold discretization x+ = A x + B u + d."""

    A: np.ndarray
    B: np.ndarray
    d: np.ndarray
    dt: float

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.A @ x + self.B @ u + self.d

    @property
    def A_inv(self) -> np.ndarray:
        return np.linalg.inv(self.A)


def discretize(scn: LandingScenario, dt: Optional[float] = None) -> DiscreteDynamics:
    """Exact ZOH maps for the double-integrator + depletion dynamics.

    r+ = r + v dt + (u - g e_z) dt^2/2;  v+ = v + (u - g e_z) dt;
    z+ = z - alpha sigma dt;             c+ = c - alpha sigma dt.
    """
    dt = scn.dt if dt is None else dt
    A = np.eye(STATE_DIM)
    A[0:3, 3:6] = dt * np.eye(3)
    B = np.zeros((STATE_DIM, CONTROL_DIM))
    B[0:3, 0:3] = 0.5 * dt * dt * np.eye(3)
    B[3:6, 0:3] = dt * np.eye(3)
    B[Z_IDX, 3] = -scn.alpha * dt
    B[C_IDX, 3] = -scn.alpha * dt
    d = np.zeros(STATE_DIM)
    d[2] = -0.5 * scn.g * dt * dt
    d[5] = -scn.g * dt
    return DiscreteDynamics(A, B, d, dt)


def build_state_set(scn: LandingScenario) -> ConstrainedZonotope:
    """Path-constraint set: position/velocity boxes, mass and cost bounds,
    glideslope halfspaces."""
    lower = np.concatenate(
        [np.full(3, -scn.r_max), np.full(3, -scn.v_max), [scn.z_min, 0.0]]
    )
    upper = np.concatenate(
        [np.full(3, scn.r_max), np.full(3, scn.v_max), [scn.z_max, scn.c_max]]
    )
    Z = ConstrainedZonotope.from_box(lower, upper)
    for row, off in zip(*default_glideslope(scn.gamma_max)):
        normal = np.zeros(STATE_DIM)
        normal[R_IDX] = row
        Z = Z.intersect_halfspace(Halfspace(normal, off))
    return Z


def build_control_set(
    scn: LandingScenario,
    k_points: Optional[int] = None,
    accel_max: Optional[float] = None,
    accel_min: Optional[float] = None,
    pointing_margin: float = 0.0,
) -> ConstrainedZonotope:
    """Admissible (u, sigma) set as a polytopic CZ.

    Inner cone approximation of ||u||_2 <= sigma <= accel_max,
    intersected with the thrust lower bound e_z'u >= accel_min and the
    pointing constraint e_z'u - sigma cos(theta_max) >= pointing_margin.
    The optional overrides implement robustness tightening.
    """
    k_points = scn.n_points if k_points is None else k_points
    if k_points < 4:
        raise ValueError("need at least 4 cone points")
    t_max = scn.accel_max if accel_max is None else accel_max
    lb = scn.accel_min if accel_min is None else accel_min
    if t_max <= lb:
        raise ValueError("thrust bounds collapsed: upper acceleration below lower")
    cone = CompactQuadraticCone(CONTROL_DIM, t_max)
    _, U = cqc_inner_approx(cone, k_points)
    ct = math.cos(scn.theta_max)
    U = U.intersect_halfspace(Halfspace([0.0, 0.0, -1.0, 0.0], -lb))
    U = U.intersect_halfspace(Halfspace([0.0, 0.0, -1.0, ct], -pointing_margin))
    if U.is_empty():
        raise ValueError("control set is empty; check thrust/pointing parameters")
    return U


def build_terminal_set(scn: LandingScenario) -> ConstrainedZonotope:
    """Flat terminal set: r, v pinned to the target, c = 0, z free to dry."""
    lower = np.concatenate([scn.r_f, scn.v_f, [scn.z_min, 0.0]])
    upper = np.concatenate([scn.r_f, scn.v_f, [scn.z_max, 0.0]])
    return ConstrainedZonotope.from_box(lower, upper)

