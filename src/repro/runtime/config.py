"""RuntimeConfig: one validated bundle for the cross-cutting solver knobs.

Every distributed solver used to copy-paste the same ~12 keyword
arguments — machine/cluster selection, collective encoding, fault
injection, retry policy, checkpointing, NaN screening, telemetry and
metrics — and re-validate them by hand. :class:`RuntimeConfig` is the one
frozen dataclass that carries them all, validates them in one place, and
is accepted by every distributed solver as ``runtime=``::

    from repro.runtime import RuntimeConfig

    cfg = RuntimeConfig(machine="comet_paper", comm="auto",
                        checkpoint_every=2, on_nan="rollback")
    rc_sfista_distributed(problem, 16, k=4, runtime=cfg)

``runtime=`` is the only way to set these knobs: the solvers take no
per-knob keyword arguments, so there is exactly one source of truth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.distsim.collectives import COMM_TOPOLOGIES
from repro.distsim.compress import parse_compression_spec
from repro.distsim.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.distsim.machine import HierarchicalMachine, MachineSpec, get_machine
from repro.distsim.sparse_collectives import COMM_MODES
from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryCallback
from repro.runtime.resilience import ON_NAN_POLICIES
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.distsim.bsp import BSPCluster

__all__ = [
    "BACKENDS",
    "FAILURE_POLICIES",
    "RuntimeConfig",
    "parse_backend_spec",
]

# Host-driven execution substrates build_host_backend can produce. The SPMD
# engine is not selected through this knob: rank-program solvers construct
# an SPMDBackend directly (the program structure is part of the algorithm).
# "mp" and "threads" are the real-parallelism substrates of
# repro.runtime.mpbackend: worker processes over shared memory, and a BSP
# cluster whose per-rank compute closures run on a thread pool.
BACKENDS = ("bsp", "serial", "mp", "threads")

# What the mp backend does when a real worker process dies or hangs:
# "fail_fast" tears down and raises ConvergenceError (with .partial),
# "respawn" restarts the dead rank and replays from the last checkpoint
# (bit-identical final iterate), "shrink" drops the dead rank, repartitions
# the columns over the survivors and resumes from the checkpoint at P′ < P.
FAILURE_POLICIES = ("fail_fast", "respawn", "shrink")


@dataclass(frozen=True)
class RuntimeConfig:
    """Cross-cutting execution knobs shared by every distributed solver.

    Simulation shape
    ----------------
    backend:
        ``"bsp"`` (simulated cluster, the default), ``"serial"`` (the
        degenerate single-rank backend: no cluster, zero cost, bit-
        identical iterates to a 1-rank BSP run), ``"mp"`` (persistent
        worker processes over ``multiprocessing.shared_memory``) or
        ``"threads"`` (BSP collectives plus a thread pool for the
        GIL-releasing per-rank Gram stages). The real-parallelism
        backends keep iterates and charged costs bit-identical to BSP;
        only measured wall-clock changes (docs/RUNTIME.md).
    mp_timeout:
        Deadline in seconds for any single worker round-trip on the
        ``"mp"`` backend; a crashed or hung worker is detected within
        this deadline (plus any ``retry`` backoff grace) and handled per
        ``mp_failure_policy``. Ignored by the other backends.
    mp_failure_policy:
        What the ``"mp"`` backend does when a real worker dies or hangs:
        ``"fail_fast"`` (default) tears down and raises
        :class:`~repro.exceptions.ConvergenceError` with ``.partial``
        carrying the last checkpointed state; ``"respawn"`` restarts the
        dead rank, restores the last checkpoint and replays
        (bit-identical final iterate); ``"shrink"`` drops the dead rank,
        deterministically repartitions the columns over the P′ survivors
        and resumes from the checkpoint. See docs/RESILIENCE.md.
    machine / allreduce_algorithm / jitter_seed:
        The α-β-γ machine model, collective algorithm and per-rank compute
        jitter of the simulated cluster.
    loss / penalty:
        The objective overrides of the model layer
        (:mod:`repro.core.model`): a loss name (``"squared"``,
        ``"logistic"``, ``"squared_hinge"``) or :class:`SmoothLoss`
        instance, and a penalty spec (``"l1"``,
        ``"elastic_net[:l2=r]"``, ``"group_l1[:size=n]"``), prebuilt
        :class:`Regularizer` or bare :class:`ProximalOperator`. ``None``
        (default) inherits the problem's own pair — for the classic
        squared+l1 problems the solvers then take their historical
        byte-identical code path. Specs are validated here, at
        config-build time; the penalty strength is always the problem's
        ``lam``.
    comm:
        Collective payload encoding: ``"dense"``, ``"sparse"``
        (index+value, O(nnz_union) words) or ``"auto"`` (per-phase
        stream-and-switch). Iterates are bit-identical across modes.
    comm_topology:
        Collective schedule (docs/COLLECTIVES.md): ``"flat"`` (default,
        the legacy single-level tournament) or ``"hier"`` (two-level
        node-local + inter-node schedule; needs a hierarchical machine
        with a power-of-two ``node_size``, e.g. ``"comet_4ppn"`` or
        ``"fat_tree"``). Without compression the hierarchical combine
        tree is bit-identical to the flat one.
    comm_compress:
        Lossy contribution compression: ``"none"`` (default),
        ``"topk:frac=F"`` (top-k sparsification with error feedback) or
        ``"quant:bits=B"`` (stochastic-rounding quantization).
        Compressed iterates differ from the uncompressed baseline but
        are bit-identical across backends for a fixed setting.
    cluster:
        A prebuilt :class:`~repro.distsim.bsp.BSPCluster` to run on
        (costs accumulate). Mutually exclusive with ``faults``/``retry``/
        ``recv_timeout``/``metrics`` — configure those on the cluster.

    Resilience
    ----------
    faults / retry / recv_timeout:
        Deterministic fault plan (or prebuilt injector), torn-collective
        retry policy, and collective arrival-skew deadline.
    checkpoint_every:
        Checkpoint the solver state every this many communication rounds
        (0 disables periodic checkpoints; a free initial checkpoint always
        exists, so crash recovery restarts from scratch).
    on_nan:
        NaN/Inf screening policy: ``None`` (off), ``"raise"``,
        ``"rollback"`` or ``"recompute"``.
    max_recoveries:
        Rollbacks/recomputes tolerated before the failure propagates.
    adaptive_restart:
        Reset FISTA momentum whenever the monitored objective increases.

    Observability
    -------------
    telemetry:
        A :class:`~repro.obs.telemetry.TelemetryCallback` receiving run
        start/end and one record per inner iteration. Strictly out of
        band: attaching it never changes iterates, costs or traces.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` the substrate
        publishes into (mutually exclusive with a prebuilt ``cluster``).

    Host performance (simulation-invisible)
    ---------------------------------------
    dedup:
        Zero-copy collective fan-out and replicated-work deduplication
        (see docs/PERFORMANCE.md). ``None`` (default) defers to the
        ``REPRO_NO_DEDUP`` environment escape hatch; ``True``/``False``
        force it. Iterates, golden traces and charged α-β-γ costs are
        bit-identical either way — only host wall-clock changes.
        Mutually exclusive with a prebuilt ``cluster`` (configure
        ``dedup=`` on the cluster instead).
    """

    backend: str = "bsp"
    machine: str | MachineSpec = "comet_effective"
    allreduce_algorithm: str = "recursive_doubling"
    loss: object = None
    penalty: object = None
    comm: str = "dense"
    comm_topology: str = "flat"
    comm_compress: str = "none"
    jitter_seed: RandomState = None
    cluster: "BSPCluster | None" = None
    mp_timeout: float = 120.0
    mp_failure_policy: str = "fail_fast"
    faults: FaultPlan | FaultInjector | None = None
    retry: RetryPolicy | None = None
    recv_timeout: float | None = None
    checkpoint_every: int = 0
    on_nan: str | None = None
    max_recoveries: int = 3
    adaptive_restart: bool = False
    telemetry: TelemetryCallback | None = None
    metrics: MetricsRegistry | None = None
    dedup: bool | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValidationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.comm not in COMM_MODES:
            raise ValidationError(
                f"comm must be one of {COMM_MODES}, got {self.comm!r}"
            )
        if self.comm_topology not in COMM_TOPOLOGIES:
            raise ValidationError(
                f"comm_topology must be one of {COMM_TOPOLOGIES}, "
                f"got {self.comm_topology!r}"
            )
        # Rejects malformed specs ("topk:frac=2", "gzip", ...) at
        # config-build time; the concrete CompressorBank is built by the
        # backend/cluster that owns the collective state.
        parse_compression_spec(self.comm_compress)
        if self.comm_topology == "hier":
            machine = get_machine(self.machine)
            node_size = getattr(machine, "node_size", 1)
            if not isinstance(machine, HierarchicalMachine) or node_size <= 1:
                raise ValidationError(
                    "comm_topology='hier' needs a hierarchical machine with "
                    "node_size > 1 (e.g. machine='comet_4ppn' or "
                    f"machine='fat_tree'), got {machine.name!r}"
                )
            if node_size & (node_size - 1):
                raise ValidationError(
                    "comm_topology='hier' requires a power-of-two node_size "
                    "so the node-local tournaments tile the flat combine "
                    f"tree exactly, got node_size={node_size}"
                )
        if self.loss is not None or self.penalty is not None:
            # Imported lazily: repro.core.model must not load while
            # repro.runtime is still mid-import (the solvers in
            # repro.core.__init__ import repro.runtime back).
            from repro.core.model import (
                Regularizer,
                SmoothLoss,
                make_loss,
                parse_penalty_spec,
            )
            from repro.core.proximal import ProximalOperator

            if self.loss is not None and not isinstance(self.loss, SmoothLoss):
                make_loss(self.loss)  # rejects unknown names at config-build time
            if self.penalty is not None and not isinstance(
                self.penalty, (Regularizer, ProximalOperator)
            ):
                parse_penalty_spec(self.penalty)
        if self.on_nan is not None and self.on_nan not in ON_NAN_POLICIES:
            raise ValidationError(
                f"on_nan must be one of {ON_NAN_POLICIES} or None, got {self.on_nan!r}"
            )
        if self.checkpoint_every < 0:
            raise ValidationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.max_recoveries < 0:
            raise ValidationError(
                f"max_recoveries must be >= 0, got {self.max_recoveries}"
            )
        if not (self.mp_timeout > 0 and self.mp_timeout != float("inf")):
            raise ValidationError(
                f"mp_timeout must be finite and > 0, got {self.mp_timeout}"
            )
        if self.mp_failure_policy not in FAILURE_POLICIES:
            raise ValidationError(
                f"mp_failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.mp_failure_policy!r}"
            )
        if self.backend == "mp":
            if self.cluster is not None:
                raise ValidationError(
                    "the mp backend builds its own workers; a prebuilt BSP "
                    "cluster cannot be supplied"
                )
            if self.recv_timeout is not None:
                raise ValidationError(
                    "recv_timeout is a simulated-clock deadline; the mp "
                    "backend guards real round-trips with mp_timeout instead"
                )
            if isinstance(self.faults, FaultPlan) and (
                self.faults.drop_rate
                or self.faults.delay_rate
                or self.faults.collective_drop_rate
                or self.faults.drops
                or self.faults.delays
            ):
                raise ValidationError(
                    "p2p message drops/delays and torn collectives are "
                    "simulation-engine faults; the mp backend runs collectives "
                    "on real processes and supports crashes, stalls and "
                    "payload corruption only"
                )
        if self.cluster is not None:
            if (
                self.faults is not None
                or self.retry is not None
                or self.recv_timeout is not None
            ):
                raise ValidationError(
                    "configure faults/retry/recv_timeout on the supplied cluster, "
                    "not through the solver"
                )
            if self.metrics is not None:
                raise ValidationError(
                    "attach the metrics registry to the supplied cluster, "
                    "not through the solver"
                )
            if self.dedup is not None:
                raise ValidationError(
                    "configure dedup= on the supplied cluster, not through the solver"
                )
            if self.comm_topology != "flat" or self.comm_compress != "none":
                raise ValidationError(
                    "configure comm_topology/comm_compress on the supplied "
                    "cluster, not through the solver"
                )

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy with *changes* applied (re-runs the validation)."""
        return dataclasses.replace(self, **changes)


def parse_backend_spec(spec: str) -> tuple[str, int | None]:
    """Split a CLI backend spec ``"name"`` or ``"name:P"`` into its parts.

    ``"mp:4"`` → ``("mp", 4)``; ``"bsp"`` → ``("bsp", None)``. The rank
    suffix overrides ``--nranks`` at the call site; the bare name leaves
    the rank count alone. Unknown names and malformed suffixes are
    rejected here so the CLI error points at the flag, not the solver.
    """
    name, sep, suffix = spec.partition(":")
    if name not in BACKENDS:
        raise ValidationError(
            f"unknown backend {name!r}; choose from {BACKENDS} "
            "(optionally suffixed ':<nranks>', e.g. 'mp:4')"
        )
    if not sep:
        return name, None
    try:
        nranks = int(suffix)
    except ValueError:
        nranks = 0
    if nranks < 1:
        raise ValidationError(
            f"backend spec {spec!r}: the rank suffix must be a positive "
            "integer, e.g. 'mp:4'"
        )
    return name, nranks

