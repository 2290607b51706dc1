"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They run every workload briefly, so they take a couple of minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402  (sets the BLAS pin before numpy work starts)
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_registered_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    registered = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in registered} == set(result["metrics"])
    for m in registered:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert np.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, m["name"]


def test_benchmark_registers_exactly_the_emitted_names():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER_UNITS)


def _check_nesting(recorded) -> int:
    by_id = {s[0]: s for s in recorded}
    nested = 0
    for sid, label, start, end, parent, tid in recorded:
        assert start <= end, label
        if parent < 0:
            continue
        p = by_id[parent]
        assert p[5] == tid, f"{label} crosses threads"
        assert p[2] <= start and end <= p[3], f"{label} escapes {p[1]}"
        nested += 1
    return nested


def test_child_spans_nest_inside_their_parents():
    recorder = spans.SpanRecorder()

    def inner():
        return 1

    traced_inner = recorder.wrap("b.inner:inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    assert recorder.wrap("a.outer:outer", outer)() == 2
    assert _check_nesting(recorder.spans) == 2
    totals = spans.metric_totals(recorder.label_totals())
    assert totals["b.inner"]["calls"] == 2
    outer_span = next(s for s in recorder.spans if s[1] == "a.outer:outer")
    inner_time = sum(s[3] - s[2] for s in recorder.spans if s[1] == "b.inner:inner")
    assert totals["a.outer"]["self_s"] == pytest.approx(
        outer_span[3] - outer_span[2] - inner_time
    )


def test_wrappers_nest_on_a_real_solve_and_uninstall_cleanly():
    import solves
    from repro.core import _dist_common
    from repro.sparse import ops

    original = _dist_common.sampled_gram
    workload = solves.WORKLOADS["dense_lasso"]
    inst = solves.build_instances(workload, 5)[0]
    inst.fstar = 0.0  # no stopping needed: a short fixed budget is enough
    recorder = spans.SpanRecorder()
    installed = spans.install(recorder)
    try:
        assert _dist_common.sampled_gram is not original
        assert ops.sampled_gram is _dist_common.sampled_gram
        from repro.core.rc_sfista_dist import rc_sfista_distributed
        from repro.runtime import RuntimeConfig

        recorder.wrap("solve", rc_sfista_distributed)(
            inst.problem(), 4, k=2, S=2, b=0.1, epochs=1, iters_per_epoch=4,
            runtime=RuntimeConfig(backend="bsp", comm="auto"),
        )
    finally:
        installed.remove()
    assert _dist_common.sampled_gram is original
    assert _check_nesting(recorder.spans) > 0
    layers = spans.metric_totals(recorder.label_totals())
    for layer in ("sparse.gram", "core.update", "distsim.charge", "runtime.loop"):
        assert layers[layer]["calls"] > 0, layer
    assert "solve.body" in recorder.label_totals()


def test_a_wrong_reference_counts_as_failed():
    run.import_program()
    metrics, attempted, failed, reasons = run.run_solve_workload(
        "sparse_logistic_auto", 3, 0.0, False, reference_error=0.05
    )
    assert attempted > 0 and failed == attempted
    assert metrics.values["ok_ratio"][0] == 0.0
    assert all("not within" in r for r in reasons)
