"""Set-up of the benchmark: the tube pipelines, their cache, and the toy case.

The operations of every workload run on the full-size tubes of the
acceptance fixtures: the deterministic tube of ``LandingScenario(
n_points=100)`` (N=46) and the robust tube of the 20-step configuration
with its disturbance-eroded targets.  Building them takes minutes, far
more than one benchmark run may spend, so the first run in a checkout
builds them once, in a child process, into ``.bench_build/`` under a key
that hashes the package sources and this file; any change to either
rebuilds them.

The cache also holds the nominal rollout of the deterministic tube from
the configured start, the trajectory on which ``det-reach`` queries
footprints.

The set-up that each run times is the same pipeline at a reduced horizon
(the deterministic recursion stopped after ``DET_SETUP_SETS`` sets, the
robust pipeline with ``ROBUST_SETUP_N`` steps), serialized, followed by
loading the full cached tube.  It is repeated and the median is reported,
so work moved into the build or the load shows in ``setup_s``.

Run ``python3 bench/pipelines.py`` from the checkout root to build the
cache by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "cztube"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from cztube import czset, guidance, landing, tube, uncertainty  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

DET_N_POINTS = 100
DET_SETUP_SETS = 16
ROBUST_N = 20
ROBUST_SETUP_N = 3


def robust_scenario(N: int) -> landing.LandingScenario:
    """The robust configuration of configs/robust.cfg with horizon N."""
    return landing.LandingScenario(
        N=N, dt=15.0, alpha=0.0002875, n_points=14,
        r_i=np.array([4000.0, 4000.0, 4000.0]),
        v_i=np.array([-10.0, -10.0, -10.0]),
    )


@dataclass
class DetCase:
    """What a deterministic-tube operation needs."""

    scn: object
    dyn: landing.DiscreteDynamics
    X: czset.ConstrainedZonotope
    U: czset.ConstrainedZonotope
    Xf: czset.ConstrainedZonotope
    tube: tube.ControllableTube
    start: np.ndarray
    start_jitter: np.ndarray
    tube_file: Path
    setup_file: Path
    nominal: list
    step_s: list = field(default_factory=list)


@dataclass
class RobustCase:
    """What a Monte Carlo batch needs."""

    scn: object
    dyn: landing.DiscreteDynamics
    model: uncertainty.UncertaintyModel
    sched: uncertainty.DisturbanceSchedule
    U_rob: czset.ConstrainedZonotope
    Tf: czset.ConstrainedZonotope
    tube: tube.ControllableTube
    eroded: dict
    tube_file: Path
    setup_file: Path
    step_s: list = field(default_factory=list)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_key() -> str:
    """SHA-256 over what the cached tubes depend on: the package sources
    and this file, by relative path."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")) + [Path(__file__).resolve()]:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


# -- pipelines ---------------------------------------------------------------


def det_pipeline(max_N: int = 200, progress=None):
    scn = landing.LandingScenario(n_points=DET_N_POINTS)
    dyn = landing.discretize(scn)
    X = landing.build_state_set(scn)
    U = landing.build_control_set(scn, DET_N_POINTS)
    Xf = landing.build_terminal_set(scn)
    built = tube.deterministic_recursion(dyn, X, U, Xf, max_N=max_N, progress=progress)
    return scn, dyn, X, U, Xf, built


def robust_parts(N: int):
    """Everything of the robust pipeline except its recursion."""
    scn = robust_scenario(N)
    dyn = landing.discretize(scn)
    model = uncertainty.landing_uncertainty_model()
    sched = uncertainty.build_disturbance_schedule(model, dyn, N)
    U_rob = uncertainty.robustify_control_set(scn, sched.R_u, scn.n_points)
    Tf = tube.make_full_dim_terminal(scn, k_points=scn.n_points)
    return scn, dyn, model, sched, U_rob, Tf


def robust_pipeline(N: int, progress=None):
    scn, dyn, model, sched, U_rob, Tf = robust_parts(N)
    dyn_w = uncertainty.worst_case_depletion_dynamics(dyn, scn.alpha, sched.R_u)
    sink = {}
    built = tube.robust_recursion(
        dyn_w, landing.build_state_set(scn), U_rob, Tf, sched, N,
        progress=progress, eroded_sink=sink,
    )
    return built, sink


def eroded_as_tube(built, sink) -> tube.ControllableTube:
    """The eroded targets eroded[1..N-1] stored in the tube file format."""
    return tube.ControllableTube([sink[k] for k in range(1, built.N)], built.dt, "robust")


# -- cache -------------------------------------------------------------------


def cache_dir() -> Path:
    return BUILD_DIR / f"cache-{source_key()[:16]}"


def _traced_build(manifest, name, fn, *args):
    """Run one full build traced; its wall time and nonzero per-layer
    metrics go into the manifest, so every run can report where the
    full-size build spent its time."""
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        out = fn(*args)
    manifest["build_s"][name] = time.perf_counter() - t0
    layers = layer_metrics(tracer.spans, {})
    manifest["build_layers"][name] = {k: v for k, v in layers.items() if v}
    return out


def build_cache(dest: Path) -> None:
    """Build the full-size tubes into dest, atomically."""
    tmp = dest.with_name(dest.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    manifest = {"source_sha256": source_key(), "build_s": {}, "build_layers": {}, "files": {}}
    scn, dyn, X, U, Xf, det = _traced_build(manifest, "det", det_pipeline)
    tube.serialize_tube(det, tmp / "det.cztb")
    log = guidance.forward_rollout(scn.initial_state(), det, U, dyn)
    np.savez(tmp / "det_nominal.npz", k=[r.k for r in log.records],
             state=[r.state for r in log.records])
    rob, sink = _traced_build(manifest, "robust", robust_pipeline, ROBUST_N)
    tube.serialize_tube(rob, tmp / "rob.cztb")
    tube.serialize_tube(eroded_as_tube(rob, sink), tmp / "rob_eroded.cztb")
    for name in ("det.cztb", "det_nominal.npz", "rob.cztb", "rob_eroded.cztb"):
        p = tmp / name
        manifest["files"][name] = {"sha256": file_sha256(p), "bytes": p.stat().st_size}
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1))
    for stale in BUILD_DIR.glob("cache-*"):
        if stale != tmp:
            shutil.rmtree(stale, ignore_errors=True)
    os.replace(tmp, dest)


def ensure_cache() -> Path:
    """The cache directory for these sources, built first if missing."""
    dest = cache_dir()
    if not (dest / "manifest.json").exists():
        import subprocess

        print(f"building the full-size tubes into {dest.relative_to(ROOT)}", file=sys.stderr)
        subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True,
                       stdout=sys.stderr)
    return dest


def load_manifest(dest: Path) -> dict:
    return json.loads((dest / "manifest.json").read_text())


# -- timed set-ups -----------------------------------------------------------


def det_setup(cache: Path, work: Path) -> DetCase:
    """Reduced deterministic build, serialize it, load the full tube."""
    steps = []
    scn, dyn, X, U, Xf, built = det_pipeline(
        max_N=DET_SETUP_SETS, progress=lambda k, Z, s: steps.append(s)
    )
    setup_file = work / "det-setup.cztb"
    tube.serialize_tube(built, setup_file)
    full = tube.deserialize_tube(cache / "det.cztb")
    with np.load(cache / "det_nominal.npz") as f:
        nominal = list(zip(f["k"].tolist(), f["state"]))
    jitter = np.array([50.0, 50.0, 50.0, 3.0, 3.0, 3.0, 0.0])
    return DetCase(scn, dyn, X, U, Xf, full, scn.initial_state(), jitter,
                   cache / "det.cztb", setup_file, nominal, steps)


def robust_setup(cache: Path, work: Path) -> RobustCase:
    """Reduced robust build, serialize it, load the full tube and targets."""
    steps = []
    built, _ = robust_pipeline(ROBUST_SETUP_N, progress=lambda k, Z, s: steps.append(s))
    setup_file = work / "rob-setup.cztb"
    tube.serialize_tube(built, setup_file)
    scn, dyn, model, sched, U_rob, Tf = robust_parts(ROBUST_N)
    full = tube.deserialize_tube(cache / "rob.cztb")
    eroded = tube.deserialize_tube(cache / "rob_eroded.cztb")
    targets = {k: eroded.cs(k) for k in range(1, full.N)}
    return RobustCase(scn, dyn, model, sched, U_rob, Tf, full, targets,
                      cache / "rob.cztb", setup_file, steps)


# -- toy case for the harness self-test --------------------------------------


def toy_setup(work: Path):
    """Criterion 02's 12-step scalar toy tube, as both kinds of case.

    Position moves by u, cost depletes by sigma, |u| <= sigma <= 1, the
    target is pinned at 0.  The robust case reuses the deterministic tube
    as its eroded targets and has no noise, so every trial lands.
    """
    A = np.eye(8)
    B = np.zeros((8, 2))
    B[0, 0] = 1.0
    B[7, 1] = -1.0
    dyn = landing.DiscreteDynamics(A=A, B=B, d=np.zeros(8), dt=1.0)
    U = czset.ConstrainedZonotope.from_vertices(
        np.array([[-1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    )
    GX = np.zeros((8, 2))
    GX[0, 0] = 10.0
    GX[7, 1] = 10.0
    X = czset.ConstrainedZonotope(GX, np.array([0, 0, 0, 0, 0, 0, 0, 10.0]))
    Xf = czset.ConstrainedZonotope(np.zeros((8, 0)), np.zeros(8))
    steps = []
    built = tube.deterministic_recursion(dyn, X, U, Xf, max_N=12,
                                         progress=lambda k, Z, s: steps.append(s))
    path = work / "toy.cztb"
    tube.serialize_tube(built, path)
    toy = tube.deserialize_tube(path)
    start = np.array([8.0, 0, 0, 0, 0, 0, 0])
    scn = SimpleNamespace(initial_state=lambda: start.copy(), m_wet=2.0, m_dry=1.0,
                          r_f=np.zeros(3))
    log = guidance.forward_rollout(start, toy, U, dyn)
    nominal = [(r.k, r.state) for r in log.records]
    det = DetCase(scn, dyn, X, U, Xf, toy, start, np.array([1.5, 0, 0, 0, 0, 0, 0]),
                  path, path, nominal, steps)
    model = uncertainty.UncertaintyModel(
        E_w_u=np.zeros((2, 1)), E_w_x=np.zeros((8, 1)), Sigma_u=np.zeros((1, 1)),
        sigma_x_fn=lambda k, N: np.zeros((1, 1)),
    )
    sched = uncertainty.DisturbanceSchedule([], [], 1.0, 0.0)
    targets = {k: toy.cs(k + 1) for k in range(1, toy.N)}
    rob = RobustCase(scn, dyn, model, sched, U, Xf, toy, targets, path, path, steps)
    return det, rob


if __name__ == "__main__":
    build_cache(cache_dir())
