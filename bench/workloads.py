"""The three workloads: one operation each, its inputs, and its output check.

Every workload is a closed loop with one client: the next operation
starts when the previous one ends.  Inputs are drawn from the run's seed
in operation order, so a seed always yields the same inputs.  ``run``
is timed; ``check`` runs afterwards, outside the timed window, and
returns ``(operations, failed)`` for one ``run`` call, which covers
``ops_per_call`` operations.  The timed window closes on a multiple of
``calls_per_round`` calls, after at least ``min_calls`` calls.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from cztube import guidance
from cztube.landing import CONTROL_DIM

ORACLE_REL_TOL = 1e-4  # criterion 01
SIGMA_GAP_MAX = 0.05  # criterion 10
BOUNDARY_MARGIN = 1e-3  # criterion 04, as a share of the footprint's diameter
REACH_DIRECTIONS = 32
REACH_MIN_REMAINING = 5
MC_BATCH = 8


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


class DetGuidance:
    """One landing: optimal horizon, then the closed-loop rollout.

    The start is the configured initial state plus a seeded uniform
    offset of up to ``case.start_jitter`` per coordinate.
    """

    name = "det-guidance"
    ops_per_call = 1
    calls_per_round = 1
    min_calls = 2
    tolerated_fail_frac = 0.0

    def __init__(self, case, seed: int):
        self.case = case
        self.rng = np.random.default_rng(seed)

    def run(self, i):
        c = self.case
        x0 = c.start + self.rng.uniform(-1.0, 1.0, c.start.size) * c.start_jitter
        hq = guidance.optimal_horizon(x0, c.tube)
        log = guidance.forward_rollout(x0, c.tube, c.U, c.dyn, start=hq)
        return x0, hq, log

    def check(self, out):
        x0, hq, log = out
        c = self.case
        cost, _, _ = guidance.full_horizon_oracle(x0, c.tube.N - hq.k_star, c.dyn, c.X, c.U, c.Xf)
        ok = abs(log.total_cost - cost) <= ORACLE_REL_TOL * abs(cost)
        if c.U.dim == CONTROL_DIM:  # the relaxed magnitude sigma is a landing control
            ok = ok and log.sigma_gap() <= SIGMA_GAP_MAX
        return 1, int(not ok)

    def digest(self, out):
        x0, hq, log = out
        return _sha(x0, [hq.k_star, hq.c_star, log.total_cost], log.terminal_state,
                    *[np.concatenate([r.state, r.control]) for r in log.records])


class DetReach:
    """One divert-footprint query on a step of the nominal rollout.

    Queries run on the nominal rollout from the configured start, which
    the set-up loads.  Each query takes a step k with at least
    ``REACH_MIN_REMAINING`` steps to go (smaller footprints shrink toward
    the slice tolerance), shifts the horizontal position by a seeded
    offset, and asks for the extreme points of the reachable landing
    sites in 32 evenly spaced directions under a seeded rotation.  Steps come in mirrored pairs (j, K-1-j), the
    pairs in a seeded order that repeats none until all have run, and a
    run ends on a whole pair, so that every run sees nearly the same mix
    of set sizes.
    """

    name = "det-reach"
    ops_per_call = 1
    calls_per_round = 2
    min_calls = 4
    tolerated_fail_frac = 0.0

    def __init__(self, case, seed: int):
        self.case = case
        self.rng = np.random.default_rng(seed)
        last = case.tube.N - REACH_MIN_REMAINING
        self.records = [(k, state) for k, state in case.nominal if k <= last]
        if not self.records:
            raise ValueError("the nominal rollout has no step with a wide footprint")
        self._order = self._pair = None

    def run(self, i):
        c = self.case
        K = len(self.records)
        if i % 2 == 0:
            n_pairs = (K + 1) // 2
            if i // 2 % n_pairs == 0:
                self._order = self.rng.permutation(n_pairs)
            self._pair = int(self._order[i // 2 % n_pairs])
            j = self._pair
        else:
            j = K - 1 - self._pair
        rec = self.records[j]
        k, state = rec
        x_hat = state[:2] + self.rng.uniform(-1.0, 1.0, 2) * c.start_jitter[:2]
        rot = self.rng.uniform(0.0, 2.0 * math.pi / REACH_DIRECTIONS)
        R = guidance.instantaneous_reachable(x_hat, state[2:], c.tube, k,
                                             c.scn.r_f[:2], dyn=c.dyn)
        angles = rot + 2.0 * math.pi * np.arange(REACH_DIRECTIONS) / REACH_DIRECTIONS
        points = np.array([R.extreme_point(np.array([math.cos(a), math.sin(a)]))
                           for a in angles])
        return rec, x_hat, angles, points

    def check(self, out):
        """Criterion 04's oracle, with the landing site moved: a point just
        inside the first boundary point is reachable, one just outside is not."""
        rec, x_hat, angles, points = out
        diam = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
        p = points[0]
        inward = points.mean(axis=0) - p
        inward /= max(float(np.linalg.norm(inward)), 1e-300)
        step = BOUNDARY_MARGIN * diam
        eta = np.array([math.cos(angles[0]), math.sin(angles[0])])
        ok = (self._landable(rec, x_hat, p + step * inward)
              and not self._landable(rec, x_hat, p + step * eta))
        return 1, int(not ok)

    def _landable(self, rec, x_hat, site):
        c = self.case
        k, state = rec
        x0 = np.concatenate([x_hat, state[2:7]])
        delta = np.zeros(state.size)
        delta[0:2] = site
        try:
            guidance.full_horizon_oracle(
                x0, c.tube.N - k, c.dyn, c.X.translate(delta), c.U,
                c.Xf.translate(delta), fixed_cost=float(state[-1]),
            )
        except guidance.InfeasibleError:
            return False
        return True

    def digest(self, out):
        rec, x_hat, angles, points = out
        return _sha([rec[0]], x_hat, angles, points)


class RobustMonteCarlo:
    """A batch of ``MC_BATCH`` closed-loop trials through ``monte_carlo``.

    The pool is sized to the usable cores through CZTUBE_THREADS, which
    the set-up sets.  Each batch has its own master seed, drawn from the
    run's seed, and every trial starts from the configured initial state.
    """

    name = "robust-mc"
    ops_per_call = MC_BATCH
    calls_per_round = 1
    min_calls = 4

    def __init__(self, case, seed: int):
        self.case = case
        self.seed = seed
        # the controller's guarantee is probabilistic: all trials land
        # with probability lambda, so misses up to 1 - lambda are expected
        self.tolerated_fail_frac = 1.0 - case.model.lam
        os.environ["CZTUBE_THREADS"] = str(len(os.sched_getaffinity(0)))

    def run(self, i):
        c = self.case
        return guidance.monte_carlo(
            c.scn, c.tube, c.model, c.sched, c.U_rob, c.Tf, c.dyn,
            trials=MC_BATCH, master_seed=self.seed * 1_000_000 + i, eroded=c.eroded,
        )

    def check(self, summary):
        """A trial fails if it did not land, or landed below the dry mass
        (criterion 08)."""
        z_floor = math.log(self.case.scn.m_dry)
        failed = sum(
            not (r.success and r.terminal_state[6] >= z_floor - 1e-12)
            for r in summary.results
        )
        return summary.trials, failed

    def digest(self, summary):
        rows = []
        for r in summary.results:
            term = r.terminal_state if r.terminal_state is not None else np.full(8, np.nan)
            fuel = np.nan if r.fuel_kg is None else r.fuel_kg
            step = -1 if r.failure_step is None else r.failure_step
            rows.append(np.concatenate([[r.trial, r.seed, r.success, step, fuel], term]))
        return _sha(*rows)


WORKLOADS = {w.name: w for w in (DetGuidance, DetReach, RobustMonteCarlo)}
