"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles(v,
n=4)``) and the interquartile range as a share of the median next to
the metric's bound.  From the checkout root::

    python3 bench/spread.py --workload det-reach --seeds 1-10 [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the per-seed values here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                         if not args.trace),
              flush=True)
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], None, v[0])
        share = (q3 - q1) / med if med else float("nan")
        print(f"{m['name']:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{m.get('bound', ''):>6}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
