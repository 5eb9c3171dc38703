"""cztube benchmark: one workload, one process, one JSON result.

Usage, from the root of a checkout::

    python3 bench/run.py --workload det-guidance --seed 1 --seconds 15 --trace 0

The run sets up (``pipelines``), repeats the set-up ``SETUP_REPS`` times
and reports the median plus the workload's one-off preparation as
``setup_s``, then runs operations back to back until ``--seconds`` have
passed and the operation in flight has finished (and at least the
workload's ``min_calls`` calls are done).  Outputs are checked after the
timed window.  ``--trace 1`` wraps the package's public calls
(``tracing``) and reports per-layer metrics instead of end-to-end ones,
aggregated over the set-ups and the first ``min_calls`` calls; all spans
go to ``.bench_build/cztube/traces/``.

Standard output ends with a human-readable metric list, one JSON line
holding the full record (environment, determinism digests, samples), and
as its last line the result object ``{"correct", "attempted", "failed",
"metrics"}``.  The record is also written to
``.bench_build/cztube/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
THREAD_SAMPLE_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class ThreadSampler:
    """Polls the process's OS thread count, HiGHS and pool threads included."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="thread-sampler", daemon=True)

    def _count(self) -> int:
        try:
            return len(os.listdir("/proc/self/task")) - 1  # not the sampler itself
        except OSError:
            return threading.active_count() - 1

    def _poll(self):
        while not self._stop.wait(THREAD_SAMPLE_S):
            self.peak = max(self.peak, self._count())

    def __enter__(self):
        self.peak = self._count()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(threads_peak: int) -> dict:
    import numpy
    import scipy

    from pipelines import source_key

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "tube_source_sha256": source_key(),
        "CZTUBE_THREADS": os.environ.get("CZTUBE_THREADS"),
        "threads_peak": threads_peak,
    }


def tube_stats(case) -> dict:
    sets = case.tube.sets
    control = getattr(case, "U", None) or case.U_rob
    return {
        "tube.sets": len(sets),
        "tube.n_g_max": max(Z.n_generators for Z in sets),
        "tube.n_g_sum": sum(Z.n_generators for Z in sets),
        "tube.n_e_sum": sum(Z.n_constraints for Z in sets),
        "tube.file_bytes": case.tube_file.stat().st_size,
        "landing.control_set.n_g": control.n_generators,
    }


def measure(workload_cls, setup, seed: int, seconds: float, tracer=None,
            reps: int = SETUP_REPS, trace_path=None):
    """Set up, run the timed window, check outputs; returns (result, record).

    With a ``tracing.Tracer`` the run is traced and reports per-layer
    metrics; without one it reports the end-to-end metrics.
    """
    from pipelines import file_sha256
    from tracing import layer_metrics

    trace = tracer is not None
    with ThreadSampler() as sampler:
        with tracer.installed() if trace else nullcontext():
            rep_s, step_s = [], []
            for _ in range(reps):
                t0 = perf_counter()
                case = setup()
                rep_s.append(perf_counter() - t0)
                step_s += case.step_s
            t0 = perf_counter()
            workload = workload_cls(case, seed)
            prep_s = perf_counter() - t0
            gc.collect()

            outputs, latencies, errors = [], [], []
            start = perf_counter()
            i = 0
            while True:
                if trace:
                    tracer.op = i
                t0 = perf_counter()
                try:
                    out = workload.run(i)
                except Exception:
                    out = None
                    errors.append(traceback.format_exc())
                t1 = perf_counter()
                if trace:
                    tracer.op = None
                outputs.append(out)
                latencies.append((t1 - t0) / workload.ops_per_call)
                i += 1
                if (t1 - start >= seconds and i >= workload.min_calls
                        and i % workload.calls_per_round == 0):
                    break
            window_s = t1 - start

        attempted = failed = 0
        digests = []
        for out in outputs:
            if out is None:
                attempted += workload.ops_per_call
                failed += workload.ops_per_call
                digests.append(None)
                continue
            try:
                n, bad = workload.check(out)
            except Exception:
                errors.append(traceback.format_exc())
                n, bad = workload.ops_per_call, workload.ops_per_call
            attempted += n
            failed += bad
            digests.append(workload.digest(out))
    for err in errors[:3]:
        print(err, file=sys.stderr)

    ops_per_s = attempted / window_s
    if trace:
        # per-layer metrics cover the set-ups and the first min_calls
        # calls, a fixed amount of work, so counts repeat exactly for a seed
        counted = workload.min_calls
        extra = tube_stats(case)
        extra["tube.step_s_max"] = max(step_s, default=0.0)
        extra["trace.op_busy_s"] = sum(latencies[:counted]) * workload.ops_per_call
        extra["trace.ops_per_s"] = ops_per_s
        spans = [s for s in tracer.spans if s.op is None or s.op < counted]
        metrics = layer_metrics(spans, extra)
        if trace_path is not None:
            tracer.write(trace_path)
    else:
        metrics = {
            "setup_s": statistics.median(rep_s) + prep_s,
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    correct = not errors and failed <= workload.tolerated_fail_frac * attempted
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload_cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "failed_frac": failed / attempted if attempted else 0.0,
        "errors": len(errors),
        "samples": {"calls": len(latencies), "ops": attempted},
        "setup": {"rep_s": rep_s, "prep_s": prep_s},
        "window_s": window_s,
        "latency_ms": [1e3 * x for x in latencies],
        "determinism": {
            "tube_file": case.tube_file.name,
            "setup_tube_sha256": file_sha256(case.setup_file),
            "op_sha256": digests,
        },
        "environment": environment(sampler.peak),
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cztube" / "__init__.py").is_file():
        print(f"error: no cztube package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    import pipelines
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    cache = pipelines.ensure_cache()
    manifest = pipelines.load_manifest(cache)
    work = pipelines.BUILD_DIR / "work"
    traces = pipelines.BUILD_DIR / "traces"
    results = pipelines.BUILD_DIR / "results"
    for d in (work, traces, results):
        d.mkdir(parents=True, exist_ok=True)
    setup = (pipelines.robust_setup if args.workload == "robust-mc"
             else pipelines.det_setup)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    result, record = measure(
        WORKLOADS[args.workload], lambda: setup(cache, work), args.seed,
        args.seconds, tracer, trace_path=traces / f"{tag}.jsonl",
    )
    record["determinism"]["tube_sha256"] = (
        manifest["files"][record["determinism"]["tube_file"]]["sha256"]
    )
    record["full_build"] = {"build_s": manifest["build_s"], "layers": manifest["build_layers"]}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))

    units = dict(END_TO_END)
    if args.trace:
        from tracing import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in result["metrics"].items():
        print(f"{name:42s} {value:.6g} {units[name]}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(record))
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
