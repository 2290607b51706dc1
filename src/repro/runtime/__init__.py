"""Unified solver runtime: config, execution backends, resilient driver.

This package is the one place the distributed solvers get their
cross-cutting machinery from:

* :class:`~repro.runtime.config.RuntimeConfig` — the validated bundle of
  machine/comm/fault/checkpoint/telemetry knobs every solver accepts as
  ``runtime=``.
* :class:`~repro.runtime.backend.ExecutionBackend` — the collective
  protocol with :class:`~repro.runtime.backend.SerialBackend`,
  :class:`~repro.runtime.backend.BSPBackend` and
  :class:`~repro.runtime.backend.SPMDBackend` implementations, plus the
  real-parallelism substrates
  :class:`~repro.runtime.mpbackend.MultiprocessingBackend` (shared-memory
  worker processes) and
  :class:`~repro.runtime.mpbackend.ThreadPoolBackend` (parallel per-rank
  Gram stages).
* :class:`~repro.runtime.driver.ResilientLoop` — the single
  checkpoint/rollback/bit-exact-replay driver.
* :mod:`~repro.runtime.resilience` — checkpoints, NaN guards and
  recovery statistics.

See ``docs/RUNTIME.md`` for the architecture walkthrough.
"""

from repro.runtime.backend import (
    BSPBackend,
    ExecutionBackend,
    SerialBackend,
    SPMDBackend,
    build_host_backend,
)
from repro.runtime.config import (
    BACKENDS,
    FAILURE_POLICIES,
    RuntimeConfig,
    parse_backend_spec,
)
from repro.runtime.dedup import ReplicatedCache
from repro.runtime.driver import ResilientLoop
from repro.runtime.mpbackend import MultiprocessingBackend, ThreadPoolBackend
from repro.runtime.supervisor import WorkerStatus, WorkerSupervisor
from repro.runtime.resilience import (
    ON_NAN_POLICIES,
    Checkpoint,
    NumericalGuard,
    RecoveryStats,
    RollbackRequested,
)

__all__ = [
    "BACKENDS",
    "BSPBackend",
    "Checkpoint",
    "ExecutionBackend",
    "FAILURE_POLICIES",
    "MultiprocessingBackend",
    "NumericalGuard",
    "ON_NAN_POLICIES",
    "RecoveryStats",
    "ReplicatedCache",
    "ResilientLoop",
    "RollbackRequested",
    "RuntimeConfig",
    "SPMDBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "WorkerStatus",
    "WorkerSupervisor",
    "build_host_backend",
    "parse_backend_spec",
]
