"""In-memory span recorder and the layer wrappers of the traced run.

The program under test carries no tracing of its own, so the benchmark
records spans from the outside: :func:`install` replaces each public entry
point of a layer with a wrapper that opens a span around the original call.
A wrapper is installed wherever the name is looked up, not only where it is
defined, because the solvers bind names directly (``repro.core._dist_common``
holds its own reference to ``sampled_gram``, the serve scheduler its own
``rc_sfista_distributed``).

A span is ``(id, label, start, end, parent id, thread id)``; spans nest per
thread. The label is ``"<metric>:<function>"``; every label that shares a
metric prefix counts toward one per-layer metric. A metric's time is the
*self* time of its spans: each span's duration minus the time its direct
child spans cover. Self times therefore add up, across all labels, to the
time covered by the outermost spans.

Two labels belong to no layer: ``solve`` (the benchmark's call into a
solver, or the serve scheduler's) and ``solve.body`` (the solver's main loop
as handed to ``ResilientLoop.run``). Their self time is the solver code that
no layer span covers, reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

UNATTRIBUTED = ("solve", "solve.body")

# (module, attribute path, metric). An attribute path with a dot names a
# method; classmethods are unwrapped and re-wrapped as classmethods.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.sparse.ops", "sampled_gram", "sparse.gram"),
    ("repro.sparse.ops", "sampled_rhs", "sparse.gram"),
    ("repro.sparse.csr", "CSCMatrix.gather_columns_dense", "sparse.gather"),
    ("repro.sparse.csr", "CSCMatrix.select_columns", "sparse.gather"),
    ("repro.sparse.csr", "CSCMatrix.matvec", "sparse.spmv"),
    ("repro.sparse.csr", "CSCMatrix.rmatvec", "sparse.spmv"),
    ("repro.sparse.csr", "CSRMatrix.matvec", "sparse.spmv"),
    ("repro.sparse.csr", "CSRMatrix.rmatvec", "sparse.spmv"),
    ("repro.core._dist_common", "RankData.model_block_contribution", "core.block"),
    ("repro.core._dist_common", "hessian_reuse_update", "core.update"),
    ("repro.distsim.collectives", "allreduce_values", "distsim.reduce"),
    ("repro.distsim.sparse_collectives", "support_union_size", "distsim.sparse"),
    ("repro.distsim.sparse_collectives", "sparse_allreduce_values", "distsim.sparse"),
    ("repro.distsim.sparse_collectives", "as_sparse_vector", "distsim.sparse"),
    ("repro.distsim.collectives", "allreduce_charge", "distsim.charge"),
    # The public collective entry points of the simulator: once the numerics
    # (distsim.reduce / distsim.sparse children) are subtracted, their self
    # time is buffer checks, clock sync and cost charging.
    *(
        ("repro.distsim.bsp", f"BSPCluster.{name}", "distsim.charge")
        for name in (
            "compute", "charge_allreduce", "charge_sparse_allreduce",
            "charge_allreduce_compressed", "charge_allreduce_comm", "charge_bcast",
            "charge_reduce", "allreduce", "sparse_allreduce", "allreduce_comm",
            "bcast", "reduce", "barrier", "checkpoint", "recover",
        )
    ),
    *(
        ("repro.runtime.driver", f"ResilientLoop.{name}", "runtime.loop")
        for name in (
            "screened", "allreduce", "screen_objective", "start", "emit",
            "finish", "seed_checkpoint", "run",
        )
    ),
    ("repro.runtime.driver", "ResilientLoop.commit_checkpoint", "runtime.checkpoint"),
    ("repro.runtime.resilience", "Checkpoint.capture", "runtime.checkpoint"),
    ("repro.runtime.backend", "build_host_backend", "runtime.backend_start"),
    ("repro.runtime.backend", "SerialBackend.close", "runtime.close"),
    ("repro.runtime.backend", "BSPBackend.close", "runtime.close"),
    ("repro.obs.telemetry", "TelemetryRecorder.on_run_start", "obs.telemetry"),
    ("repro.obs.telemetry", "TelemetryRecorder.on_iteration", "obs.telemetry"),
    ("repro.obs.telemetry", "TelemetryRecorder.on_run_end", "obs.telemetry"),
    ("repro.serve.protocol", "SubmitRequest.from_json", "serve.parse"),
    ("repro.serve.cache", "SolveCache.entry_for", "serve.cache"),
    ("repro.serve.cache", "SolveCache.warm_start", "serve.cache"),
    ("repro.serve.cache", "SolveCache.record", "serve.cache"),
    ("repro.serve.protocol", "result_payload", "serve.serialize"),
)

# The serve scheduler's solver calls are the root span of a served job.
SERVE_ROOTS: tuple[tuple[str, str], ...] = (
    ("repro.serve.scheduler", "fista"),
    ("repro.serve.scheduler", "ista"),
    ("repro.serve.scheduler", "rc_sfista_distributed"),
)

# Counted, not timed: the model flops of every sampled Gram block.
FLOP_COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("repro.sparse.ops", "gram_flops", "sparse.gram.flops"),
)

# Modules whose direct bindings must see the wrappers; importing them before
# installing makes every binding site visible in ``sys.modules``.
_PRELOAD = (
    "repro.core.rc_sfista_dist",
    "repro.core.sfista_dist",
    "repro.core.prox_newton",
    "repro.core.rc_sfista",
    "repro.core.rc_sfista_spmd",
    "repro.serve.scheduler",
    "repro.serve.server",
)


class SpanRecorder:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn: Callable) -> Callable:
        """*fn* with a span named *label* around every call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            parent = stack[-1] if stack else -1
            sid = next(recorder._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (sid, label, start, end, parent, threading.get_ident())
                )

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """*fn* with its numeric return value added to counter *name*."""
        recorder = self

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            value = fn(*args, **kwargs)
            recorder.counters[name] += float(value)
            return value

        return counted

    # -- aggregation ------------------------------------------------------ #
    def label_totals(self) -> dict[str, dict[str, float]]:
        """Per label: summed self seconds and call count."""
        return label_totals(self.spans)

    def dump(self, path: str, host: dict[str, Any]) -> None:
        """Write every span (gzip JSON) — done once, after the run."""
        labels = sorted({s[1] for s in self.spans})
        index = {name: i for i, name in enumerate(labels)}
        payload = {
            "host": host,
            "labels": labels,
            "fields": ["id", "label", "start_s", "end_s", "parent", "thread"],
            "spans": [
                [sid, index[label], start, end, parent, tid]
                for sid, label, start, end, parent, tid in self.spans
            ],
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


def label_totals(spans) -> dict[str, dict[str, float]]:
    covered: defaultdict[int, float] = defaultdict(float)
    for _sid, _label, start, end, parent, _tid in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, label, start, end, _parent, _tid in spans:
        entry = out.setdefault(label, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - covered[sid]
        entry["calls"] += 1
    return out


def metric_totals(totals: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Fold label totals into their ``<metric>`` prefix."""
    out: dict[str, dict[str, float]] = {}
    for label, entry in totals.items():
        metric = label.split(":", 1)[0]
        agg = out.setdefault(metric, {"self_s": 0.0, "calls": 0})
        agg["self_s"] += entry["self_s"]
        agg["calls"] += entry["calls"]
    return out


class Installation:
    """The wrappers in place; :meth:`remove` restores every original."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, module_name: str, attr: str, make: Callable) -> None:
        """Swap a module-level function at its definition and every binding."""
        original = getattr(sys.modules[module_name], attr)
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and module is not None:
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, replacement)

    def _replace_method(self, module_name: str, path: str, make: Callable) -> None:
        cls_name, meth = path.split(".")
        cls = getattr(sys.modules[module_name], cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            self._set(cls, meth, classmethod(make(raw.__func__)))
        else:
            self._set(cls, meth, make(raw))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(recorder: SpanRecorder, *, serve_roots: bool = False) -> Installation:
    """Install every layer wrapper; returns the handle that removes them."""
    for name in _PRELOAD:
        importlib.import_module(name)
    inst = Installation(recorder)
    for module_name, path, metric in SPAN_TARGETS:
        label = f"{metric}:{path}"
        if path == "ResilientLoop.run":
            make = functools.partial(_wrap_loop_run, recorder, label)
        else:
            make = functools.partial(recorder.wrap, label)
        if "." in path:
            inst._replace_method(module_name, path, make)
        else:
            inst._replace_function(module_name, path, make)
    for module_name, attr, counter in FLOP_COUNTERS:
        inst._replace_function(module_name, attr, functools.partial(recorder.count, counter))
    if serve_roots:
        for module_name, attr in SERVE_ROOTS:
            module = sys.modules[module_name]
            inst._set(module, attr, recorder.wrap("solve", module.__dict__[attr]))
    return inst


def _wrap_loop_run(recorder: SpanRecorder, label: str, run: Callable) -> Callable:
    """``ResilientLoop.run`` with the solver body in a ``solve.body`` span.

    Without it the solver's own loop would count as ResilientLoop self time.
    """

    def run_with_body(self, body, *args: Any, **kwargs: Any) -> Any:
        return run(self, recorder.wrap("solve.body", body), *args, **kwargs)

    return recorder.wrap(label, functools.wraps(run)(run_with_body))
