"""Self-test of the benchmark harness on criterion 02's scalar toy tube.

Runs every workload's operation, check and metric assembly on a tube that
builds in milliseconds, traced and untraced::

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import pipelines  # noqa: E402  (puts the checkout's src on sys.path)
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    work = tmp_path_factory.mktemp("toy")
    return work


def _toy_setup(name, work):
    det, rob = pipelines.toy_setup(work)
    return rob if name == "robust-mc" else det


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_on_toy_tube(name, trace, toy, tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    tracer = tracing.Tracer() if trace else None
    result, record = run.measure(
        WORKLOADS[name], lambda: _toy_setup(name, toy), seed=3, seconds=0.2,
        tracer=tracer, reps=2, trace_path=spans_file if trace else None,
    )
    assert result["correct"], record
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    assert all(isinstance(v, (int, float)) for v in result["metrics"].values())
    if trace:
        spans = tracer.spans
        lps = [s for s in spans if s.name == tracing.LP_SPAN]
        assert lps, "no LP was traced"
        assert all(s.attrs["caller"] in tracing.CALLERS for s in lps)
        assert result["metrics"]["lp.untagged_solves"] == 0
        assert len(spans_file.read_text().splitlines()) == len(spans)
    else:
        assert all(v > 0 for v in result["metrics"].values())
    assert all(d is not None for d in record["determinism"]["op_sha256"])


def test_toy_outputs_repeat_bitwise(toy):
    digests = []
    for _ in range(2):
        _, record = run.measure(
            WORKLOADS["det-guidance"], lambda: _toy_setup("det-guidance", toy),
            seed=5, seconds=0.05, reps=1,
        )
        digests.append(record["determinism"]["op_sha256"][0])
    assert digests[0] == digests[1]


def test_tracer_restores_every_name():
    from cztube import czset, guidance, lp

    before = (lp.solve_lp, czset.solve_lp, guidance.one_step_ocp,
              czset.ConstrainedZonotope.support)
    with tracing.Tracer().installed():
        assert guidance.one_step_ocp is not before[2]
    after = (lp.solve_lp, czset.solve_lp, guidance.one_step_ocp,
             czset.ConstrainedZonotope.support)
    assert after == before


def test_benchmark_spec_lists_the_harness_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
