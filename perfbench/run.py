"""Repository benchmark: time-to-tolerance, charged cost and serve latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense_lasso --seed 1 --seconds 20 --trace 0

Workloads: ``dense_lasso``, ``sparse_logistic_auto`` and
``serve_lambda_path`` (see perfbench/README.md). ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the same loop with the layer
wrappers of perfbench/spans.py installed on every other operation and
prints the per-layer metrics. The program is imported from ``src/`` next
to this directory; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads; the server child inherits it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

SOLVE_WORKLOADS = ("dense_lasso", "sparse_logistic_auto")
WORKLOADS = (*SOLVE_WORKLOADS, "serve_lambda_path")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "sim_s": "s",
    "job_s.p50": "s",
    "job_s.p95": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


# Layers timed by spans (perfbench/spans.py): each reports <layer>_s and
# <layer>.calls per operation.
TIMED_LAYERS = (
    "sparse.gram", "sparse.gather", "sparse.spmv", "core.block", "core.update",
    "distsim.reduce", "distsim.sparse", "distsim.charge", "runtime.loop",
    "runtime.checkpoint", "runtime.backend_start", "runtime.close",
    "obs.telemetry", "serve.parse", "serve.cache", "serve.serialize",
)

PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in TIMED_LAYERS},
    **{f"{layer}.calls": "count" for layer in TIMED_LAYERS},
    "sparse.gram.gflops": "GFLOP/s",
    "core.iters": "count",
    "distsim.words_per_rank": "words",
    "distsim.msgs_per_rank": "count",
    "distsim.sparse_round_ratio": "ratio",
    "runtime.checkpoints": "count",
    "serve.queue_s.p50": "s",
    "serve.solve_s.fista.p50": "s",
    "serve.solve_s.rc.p50": "s",
    "serve.overhead_s.p50": "s",
    "serve.polls_per_job": "count",
    "serve.cache.path_ratio": "ratio",
    "serve.cache.exact_ratio": "ratio",
    "serve.cache.cold_ratio": "ratio",
    "serve.cache.evictions": "count",
    "serve.batched_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


class Metrics:
    """Named values with their unit and sample count."""

    def __init__(self, units: dict[str, str]) -> None:
        self.units = units
        self.values: dict[str, tuple[float, int]] = {}

    def set(self, name: str, value: float, samples: int) -> None:
        if name not in self.units:
            raise KeyError(f"metric {name!r} is not registered")
        self.values[name] = (float(value), int(samples))

    def missing(self) -> list[str]:
        return [name for name in self.units if name not in self.values]

    def as_json(self) -> dict[str, dict[str, object]]:
        return {
            name: {"value": self.values[name][0], "unit": self.units[name]}
            for name in self.units
        }

    def table(self) -> list[str]:
        return [
            f"{name:<28s} {value:>14.6g} {self.units[name]:<8s} n={samples}"
            for name, (value, samples) in self.values.items()
        ]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(values, q: float) -> float:
    """The *q*-th percentile if at least 10 samples lie beyond it.

    Otherwise the highest percentile that has 10 samples beyond it, and never
    less than the median: a run of a dozen two-second solves supports no
    tail estimate, and its maximum would only report the host's worst moment.
    """
    supported = 100.0 * (1.0 - 10.0 / len(values))
    return percentile(values, max(50.0, min(q, supported)))


def host_fingerprint() -> dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def rss_mb(pid: int | str = "self", field: str = "VmRSS") -> float:
    """Resident (``VmRSS``) or peak resident (``VmHWM``) MB of a process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def reset_peak_rss() -> float:
    """Return freed memory to the OS, restart this process's peak RSS at its
    current RSS (Linux ``clear_refs``), and return that RSS in MB.

    The peak read after a phase, minus this figure, is the memory the phase
    added: the program's working set, not the benchmark's inputs.
    """
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")
    return rss_mb()


def import_program() -> float:
    """Put ``src/`` first on the path and import the program; seconds taken."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.core.rc_sfista_dist  # noqa: F401
    import repro.serve  # noqa: F401

    seconds = time.perf_counter() - t0
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return seconds


# --------------------------------------------------------------------------- #
# solve workloads
# --------------------------------------------------------------------------- #
def run_solve_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    import_s: float = 0.0,
    reference_error: float = 0.0,
    span_path: Path | None = None,
) -> tuple[Metrics, int, int, list[str]]:
    import solves
    import spans as tracing

    workload = solves.WORKLOADS[name]
    builds = []
    for _ in range(SETUP_REPEATS):
        instances = None  # free the previous pool before building the next
        t0 = time.perf_counter()
        instances = solves.build_instances(workload, seed)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)
    solves.certify(instances)  # the benchmark's own reference: not set-up

    prints = solves.Fingerprints()
    recorder = tracing.SpanRecorder()

    def traced(solve):
        def run(*args):
            installation = tracing.install(recorder)
            try:
                return recorder.wrap("solve", solve)(*args)
            finally:
                installation.remove()

        return run

    records = []
    base_mb = reset_peak_rss()
    warm = solves.solve_once(workload, instances[0], 0, prints, reference_error=reference_error)
    attempted, failed = 1, int(not warm.ok)
    reasons = [] if warm.ok else [warm.reason]
    n = len(instances)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        idx = i % n
        rec = solves.solve_once(
            workload, instances[idx], idx, prints, reference_error=reference_error
        )
        records.append(rec)
        if trace:
            rec = solves.solve_once(
                workload, instances[idx], idx, prints,
                reference_error=reference_error, wrap=traced,
            )
            rec.traced = True
            records.append(rec)
        i += 1
    wall = time.perf_counter() - start
    solve_peak_mb = rss_mb(field="VmHWM") - base_mb
    for rec in records:
        attempted += 1
        if not rec.ok:
            failed += 1
            reasons.append(f"instance {rec.index}: {rec.reason}")

    plain = [r for r in records if not r.traced]
    first = {}
    for r in plain:
        first.setdefault(r.index, r)
    if trace:
        metrics = Metrics(PER_LAYER_UNITS)
        traced_records = [r for r in records if r.traced]
        n = max(len(traced_records), 1)
        span_metrics(metrics, recorder.label_totals(), recorder.counters, n)
        for name, attr in (
            ("core.iters", "iterations"),
            ("distsim.words_per_rank", "words_per_rank"),
            ("distsim.msgs_per_rank", "msgs_per_rank"),
        ):
            metrics.set(name, statistics.median(getattr(r, attr) for r in first.values()), len(first))
        metrics.set(
            "trace.overhead",
            percentile([r.seconds for r in traced_records], 50)
            / percentile([r.seconds for r in plain], 50),
            n,
        )
        _zero_fill(metrics)
        if span_path is not None:
            span_path.parent.mkdir(parents=True, exist_ok=True)
            recorder.dump(str(span_path), host_fingerprint())
    else:
        metrics = Metrics(END_TO_END_UNITS)
        # A job here is one solve, so job_s repeats solve_s. A run has too few
        # solves for a p90 or p95, so both tails fall back to (near) the median.
        times = [r.seconds for r in plain]
        metrics.set("solve_s.p50", percentile(times, 50), len(times))
        metrics.set("solve_s.p90", tail(times, 90), len(times))
        metrics.set("sim_s", statistics.median(r.sim_s for r in first.values()), len(first))
        metrics.set("job_s.p50", percentile(times, 50), len(times))
        metrics.set("job_s.p95", tail(times, 95), len(times))
        ok = sum(r.ok for r in plain)
        metrics.set("jobs_per_s", ok / wall, ok)
        metrics.set("setup_s", setup_s, SETUP_REPEATS)
        metrics.set("peak_rss_mb", solve_peak_mb, 1)
        metrics.set("ok_ratio", (attempted - failed) / attempted, attempted)
    return metrics, attempted, failed, reasons


def span_metrics(metrics: Metrics, labels: dict, counters: dict, n: int) -> None:
    """The per-layer metrics that come from spans, per operation (*n* ops)."""
    import spans as tracing

    layer_totals = tracing.metric_totals(labels)
    for layer in TIMED_LAYERS:
        agg = layer_totals.get(layer, {"self_s": 0.0, "calls": 0})
        metrics.set(f"{layer}_s", agg["self_s"] / n, n)
        metrics.set(f"{layer}.calls", agg["calls"] / n, n)
    gram_s = layer_totals.get("sparse.gram", {}).get("self_s", 0.0)
    flops = counters.get("sparse.gram.flops", 0.0)
    metrics.set("sparse.gram.gflops", flops / gram_s / 1e9 if gram_s > 0 else 0.0, n)
    rounds = labels.get("distsim.charge:BSPCluster.allreduce_comm", {}).get("calls", 0)
    sparse = labels.get("distsim.charge:BSPCluster.sparse_allreduce", {}).get("calls", 0)
    metrics.set("distsim.sparse_round_ratio", sparse / rounds if rounds else 0.0, rounds)
    commits = labels.get("runtime.checkpoint:ResilientLoop.commit_checkpoint", {}).get("calls", 0)
    metrics.set("runtime.checkpoints", commits / n, n)
    unattributed = sum(labels.get(name, {}).get("self_s", 0.0) for name in tracing.UNATTRIBUTED)
    metrics.set("trace.unattributed_s", unattributed / n, n)


def _zero_fill(metrics: Metrics) -> None:
    """Layers a workload never enters did zero work; report that as measured."""
    for name in metrics.missing():
        metrics.set(name, 0.0, 0)


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_program()
    span_path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
    if args.workload == "serve_lambda_path":
        import serve_load

        metrics, attempted, failed, reasons = serve_load.run(
            args.seed, args.seconds, bool(args.trace), import_s=import_s,
            span_path=span_path,
        )
        if args.trace:
            _zero_fill(metrics)
    else:
        metrics, attempted, failed, reasons = run_solve_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            import_s=import_s, span_path=span_path,
        )
    missing = metrics.missing()
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    for reason in reasons[:20]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in metrics.table():
        print(line)
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.as_json(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
