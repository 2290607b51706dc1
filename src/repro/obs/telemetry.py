"""Solver telemetry: per-iteration records and machine-readable run reports.

The distributed solvers (``rc_sfista_distributed``, ``rc_sfista_spmd``,
``proximal_newton_distributed``) accept a
``runtime=RuntimeConfig(telemetry=...)`` callback implementing the
:class:`TelemetryCallback` protocol. The callback is
strictly *out of band*: it observes the run (one :class:`IterationRecord`
per inner iteration, plus run start/end) and never touches the simulated
cost model, so attaching or detaching it leaves iterates, counters and
traces bit-identical — the golden-trace fixtures pin that.

:class:`TelemetryRecorder` is the batteries-included implementation: it
accumulates records, harvests the cluster/engine trace and cost summary at
``on_run_end``, and renders everything into a :class:`RunReport` — the JSON
document the benchmark harness emits (``--json`` mode), ``repro
trace-report`` pretty-prints, and CI's regression gate diffs against the
committed baselines.

Caveat: under the resilient runtime a rollback *replays* iterations, and
replayed iterations re-emit records (they really re-execute and are really
re-charged). Consumers that need exactly-once semantics should key on the
``(outer, inner)`` pair.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from repro.distsim.trace import Trace
from repro.exceptions import FormatError
from repro.obs.analysis import breakdown_by_kind, breakdown_by_label, critical_path

__all__ = [
    "IterationRecord",
    "TelemetryCallback",
    "TelemetryRecorder",
    "RunReport",
    "RUN_REPORT_SCHEMA",
]

RUN_REPORT_SCHEMA = "repro.obs/run_report@1"


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration as seen by the telemetry layer.

    ``outer`` is the epoch (RC-SFISTA) or outer Newton iteration; ``inner``
    the global inner-iteration index (1-based). ``phase`` distinguishes
    inner-iteration records (``"inner"``) from outer-boundary monitor
    records (``"outer"``) on solvers whose objective is only evaluated per
    outer iteration. ``comm_decision`` is the encoding the collective layer
    actually chose for the round that fed this iteration (``"sparse"`` or
    ``"dense"``; ``None`` before the first collective). ``retries`` and
    ``recoveries`` are cumulative at emit time.
    """

    outer: int
    inner: int
    objective: float | None
    step_size: float
    comm_mode: str
    comm_decision: str | None
    retries: int = 0
    recoveries: int = 0
    sim_time: float = 0.0
    phase: str = "inner"


@runtime_checkable
class TelemetryCallback(Protocol):
    """What a solver expects from ``RuntimeConfig(telemetry=...)``."""

    def on_run_start(self, solver: str, params: dict[str, Any]) -> None: ...

    def on_iteration(self, record: IterationRecord) -> None: ...

    def on_run_end(
        self,
        *,
        cost: dict[str, Any] | None = None,
        trace: Trace | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None: ...


class TelemetryRecorder:
    """Accumulating :class:`TelemetryCallback` that renders a run report."""

    def __init__(self) -> None:
        self.solver: str | None = None
        self.params: dict[str, Any] = {}
        self.records: list[IterationRecord] = []
        self.cost: dict[str, Any] | None = None
        self.trace: Trace | None = None
        self.meta: dict[str, Any] = {}

    # -- callback protocol ---------------------------------------------- #
    def on_run_start(self, solver: str, params: dict[str, Any]) -> None:
        self.solver = solver
        self.params = dict(params)

    def on_iteration(self, record: IterationRecord) -> None:
        self.records.append(record)

    def on_run_end(
        self,
        *,
        cost: dict[str, Any] | None = None,
        trace: Trace | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.cost = cost
        self.trace = trace
        if meta:
            self.meta = dict(meta)

    # -- rendering ------------------------------------------------------- #
    def report(self, *, metrics: dict[str, Any] | None = None) -> "RunReport":
        """Fold everything captured so far into a :class:`RunReport`.

        *metrics* is an optional :meth:`MetricsRegistry.snapshot` (or a
        :func:`~repro.obs.metrics.diff_snapshots` delta) to embed.
        """
        trace = self.trace if self.trace is not None else Trace()
        return RunReport(
            solver=self.solver or "unknown",
            params=self.params,
            totals=dict(self.cost or {}),
            phases={
                "by_kind": breakdown_by_kind(trace),
                "by_label": breakdown_by_label(trace),
            },
            fractions=critical_path(trace),
            iterations=[asdict(r) for r in self.records],
            metrics=metrics or {},
            meta=self.meta,
        )


@dataclass
class RunReport:
    """Machine-readable description of one solver run.

    The JSON form (:meth:`to_dict` / :meth:`save`) is the interchange
    format of the observability layer: benchmarks emit it, ``repro
    trace-report`` renders it, and ``benchmarks/check_regression.py``
    compares its ``totals`` against committed baselines.
    """

    solver: str
    params: dict[str, Any] = field(default_factory=dict)
    totals: dict[str, Any] = field(default_factory=dict)
    phases: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    fractions: dict[str, float] = field(default_factory=dict)
    iterations: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    schema: str = RUN_REPORT_SCHEMA

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "solver": self.solver,
            "params": self.params,
            "totals": self.totals,
            "phases": self.phases,
            "fractions": self.fractions,
            "iterations": self.iterations,
            "metrics": self.metrics,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunReport":
        try:
            schema = payload["schema"]
            if schema != RUN_REPORT_SCHEMA:
                raise FormatError(f"unsupported run-report schema {schema!r}")
            return cls(
                solver=payload["solver"],
                params=dict(payload.get("params", {})),
                totals=dict(payload.get("totals", {})),
                phases={k: list(v) for k, v in payload.get("phases", {}).items()},
                fractions=dict(payload.get("fractions", {})),
                iterations=list(payload.get("iterations", [])),
                metrics=dict(payload.get("metrics", {})),
                meta=dict(payload.get("meta", {})),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise FormatError(f"malformed run report: {exc}") from exc

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FormatError(f"{path} does not contain a JSON object")
        return cls.from_dict(payload)
