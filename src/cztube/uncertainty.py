"""Gaussian disturbance modeling and probabilistic set bounds.

Control execution noise and navigation noise enter the discrete state
update through an effective disturbance map; confidence ellipsoids from
the chi-squared distribution bound each step's effective disturbance
with per-step probability p = lambda**(1/N), and outer zonotopes of
those ellipsoids feed the robust tube recursion.  Also houses the
robustness tightenings of the control set and the depletion dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.special

from .czset import ConstrainedZonotope
from .landing import (
    CONTROL_DIM,
    STATE_DIM,
    DiscreteDynamics,
    LandingScenario,
    build_control_set,
)

# -- chi-squared quantiles -------------------------------------------------


def chi2_cdf(x: float, dof: int) -> float:
    if x <= 0:
        return 0.0
    return float(scipy.special.gammainc(dof / 2.0, x / 2.0))


def chi2_inv_cdf(p: float, dof: int) -> float:
    """Quantile of the chi-squared distribution with dof degrees of
    freedom, via the inverse regularized lower incomplete gamma."""
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly in (0, 1)")
    if dof < 1:
        raise ValueError("degrees of freedom must be positive")
    return 2.0 * float(scipy.special.gammaincinv(dof / 2.0, p))


# -- disturbance sets ------------------------------------------------------


@dataclass
class Ellipsoid:
    """{q : (q - center)' pinv(shape) (q - center) <= radius_sq}.

    Degenerate shapes are interpreted through the image form
    {center + sqrt(shape) u : ||u||_2 <= sqrt(radius_sq)}.
    """

    center: np.ndarray
    shape: np.ndarray
    radius_sq: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).ravel()
        self.shape = np.asarray(self.shape, dtype=float)
        self.shape = 0.5 * (self.shape + self.shape.T)
        if self.radius_sq < 0:
            raise ValueError("squared radius must be nonnegative")

    def support(self, eta) -> float:
        eta = np.asarray(eta, dtype=float).ravel()
        return float(
            eta @ self.center
            + math.sqrt(self.radius_sq) * math.sqrt(max(0.0, eta @ self.shape @ eta))
        )


def ellipsoid_outer_zonotope(e: Ellipsoid) -> List[np.ndarray]:
    """Generators of a centered zonotope containing the ellipsoid.

    Columns of R * sqrt(shape) (symmetric square root): the image of the
    radius-R ball is contained in the image of the radius-R box.  Zero
    eigendirections contribute no generator.
    """
    if np.any(e.center):
        raise ValueError("outer zonotope requires a centered ellipsoid")
    w, V = np.linalg.eigh(e.shape)
    if w.size and w[0] < -1e-10 * max(w[-1], 1.0):
        raise ValueError("ellipsoid shape matrix is not positive semidefinite")
    w = np.maximum(w, 0.0)
    root = V * np.sqrt(w)
    R = math.sqrt(e.radius_sq)
    gens = [R * root[:, j] for j in range(root.shape[1])]
    return [g for g in gens if np.linalg.norm(g) > 0.0]


@dataclass
class UncertaintyModel:
    """Gaussian control-execution and navigation noise description.

    E_w_u embeds control noise into control space, E_w_x embeds
    navigation noise into state space; Sigma_u is the (constant) control
    noise covariance and sigma_x_fn(k, N) gives the navigation noise
    covariance at step k.
    """

    E_w_u: np.ndarray
    E_w_x: np.ndarray
    Sigma_u: np.ndarray
    sigma_x_fn: object
    lam: float = 0.95

    def __post_init__(self):
        self.E_w_u = np.atleast_2d(np.asarray(self.E_w_u, dtype=float))
        self.E_w_x = np.atleast_2d(np.asarray(self.E_w_x, dtype=float))
        self.Sigma_u = np.atleast_2d(np.asarray(self.Sigma_u, dtype=float))
        if not 0.0 < self.lam < 1.0:
            raise ValueError("terminal probability target must lie in (0, 1)")

    @property
    def n_u(self) -> int:
        return self.E_w_u.shape[1]

    @property
    def n_x(self) -> int:
        return self.E_w_x.shape[1]

    def sigma_x(self, k: int, N: int) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.sigma_x_fn(k, N), dtype=float))


def landing_uncertainty_model(
    sigma3_u: float = 0.023,
    sigma3_r_rate: float = 1.5,
    sigma3_v_rate: float = 0.03,
    lam: float = 0.95,
) -> UncertaintyModel:
    """Landing-problem noise model with linearly shrinking navigation error.

    Arguments are 3-sigma values: sigma3_u on each thrust-acceleration
    axis, and per-axis position/velocity 3-sigma rates multiplying
    (N - k + 1).
    """
    E_w_u = np.zeros((CONTROL_DIM, 3))
    E_w_u[0:3, 0:3] = np.eye(3)
    E_w_x = np.zeros((STATE_DIM, 6))
    E_w_x[0:6, 0:6] = np.eye(6)
    R_u = sigma3_u / 3.0
    Sigma_u = R_u * R_u * np.eye(3)

    def sigma_x(k, N):
        s_r = sigma3_r_rate * (N - k + 1) / 3.0
        s_v = sigma3_v_rate * (N - k + 1) / 3.0
        return np.diag([s_r * s_r] * 3 + [s_v * s_v] * 3)

    return UncertaintyModel(E_w_u, E_w_x, Sigma_u, sigma_x, lam)


def build_effective_map(model: UncertaintyModel, dyn: DiscreteDynamics) -> np.ndarray:
    """Map from stacked noise (w_u, w_x[k+1], w_x[k]) to the state update."""
    blocks = []
    if model.n_u:
        blocks.append(dyn.B @ model.E_w_u)
    if model.n_x:
        blocks.append(model.E_w_x)
        blocks.append(-dyn.A @ model.E_w_x)
    if not blocks:
        raise ValueError("uncertainty model has no noise channels")
    return np.hstack(blocks)


@dataclass
class DisturbanceSchedule:
    """Per-step effective disturbance bounds W_1 ... W_N.

    sets[k-1] is the confidence ellipsoid at step k; outer_zonotopes
    holds the matching centered-zonotope generator lists.  p is the
    per-step probability and R_u the control-noise ball radius used for
    constraint tightening.
    """

    sets: List[Ellipsoid]
    outer_zonotopes: List[List[np.ndarray]]
    p: float
    R_u: float

    @property
    def N(self) -> int:
        return len(self.sets)


def control_noise_radius(model: UncertaintyModel) -> float:
    """Per-axis standard deviation of the control noise (0 if noiseless)."""
    if model.Sigma_u.size == 0:
        return 0.0
    return math.sqrt(float(np.max(np.diag(model.Sigma_u))))


def build_disturbance_schedule(
    model: UncertaintyModel, dyn: DiscreteDynamics, N: int
) -> DisturbanceSchedule:
    """Chi-squared confidence sets for the effective disturbance chain.

    The stacked per-step noise (control, next-step nav, current-step
    nav) is treated as independent, giving a block-diagonal covariance;
    the final step bounds only the terminal navigation error.
    """
    if N < 2:
        raise ValueError("schedule needs at least 2 steps")
    p = model.lam ** (1.0 / N)
    M = build_effective_map(model, dyn)
    dof_path = model.n_u + 2 * model.n_x
    dof_term = model.n_x
    R2_path = chi2_inv_cdf(p, dof_path)
    R2_term = chi2_inv_cdf(p, dof_term)
    sets = []
    for k in range(1, N):
        cov = _blkdiag(model.Sigma_u, model.sigma_x(k + 1, N), model.sigma_x(k, N))
        sets.append(Ellipsoid(np.zeros(STATE_DIM), M @ cov @ M.T, R2_path))
    shape_N = model.E_w_x @ model.sigma_x(N, N) @ model.E_w_x.T
    sets.append(Ellipsoid(np.zeros(STATE_DIM), shape_N, R2_term))
    outer = [ellipsoid_outer_zonotope(e) for e in sets]
    return DisturbanceSchedule(sets, outer, p, control_noise_radius(model))


def _blkdiag(*mats) -> np.ndarray:
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in mats if np.asarray(m).size]
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    i = 0
    for m in mats:
        k = m.shape[0]
        out[i : i + k, i : i + k] = m
        i += k
    return out


# -- robustness tightenings ------------------------------------------------


def robustify_control_set(
    scn: LandingScenario, R_u: float, k_points: Optional[int] = None
) -> ConstrainedZonotope:
    """Control set shrunk so any execution noise in the R_u ball keeps the
    applied thrust inside the original bounds."""
    if R_u < 0:
        raise ValueError("noise radius must be nonnegative")
    t_max = scn.accel_max - R_u
    lb = scn.accel_min + R_u
    if t_max <= lb:
        raise ValueError("robustness tightening collapsed the thrust bounds")
    margin = R_u * (1.0 + math.cos(scn.theta_max))
    return build_control_set(
        scn, k_points, accel_max=t_max, accel_min=lb, pointing_margin=margin
    )


def worst_case_depletion_dynamics(dyn: DiscreteDynamics, alpha: float, R_u: float) -> DiscreteDynamics:
    """Dynamics whose mass/cost depletion assumes adversarial thrust noise.

    The affine term loses alpha * R_u * dt on both the log-mass and
    cost-to-go components; A and B are unchanged."""
    if R_u < 0:
        raise ValueError("noise radius must be nonnegative")
    if R_u == 0:
        return dyn
    d = dyn.d.copy()
    d[6] -= alpha * R_u * dyn.dt
    d[7] -= alpha * R_u * dyn.dt
    return DiscreteDynamics(dyn.A, dyn.B, d, dyn.dt)
