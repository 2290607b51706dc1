"""Lock-step bulk-synchronous cluster — the solvers' execution substrate.

The algorithms in this paper are bulk-synchronous: every iteration is a
local compute phase followed by a collective (Fig. 1, stages A–D). The
:class:`BSPCluster` models exactly that: per-rank clocks advance through
compute phases (optionally with straggler jitter), and collectives
synchronize all clocks to ``max(clocks) + T_collective`` while charging each
rank its message/word counts. All collective *results* are computed for
real, so a solver run on the cluster produces numerically the same iterates
as a genuine MPI run with the same data placement.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import (
    CommTimeoutError,
    CommunicatorError,
    RankFailureError,
    ValidationError,
)
from repro.distsim import collectives as coll
from repro.distsim import sparse_collectives as sc
from repro.distsim.compress import CompressionSpec, CompressorBank, parse_compression_spec
from repro.distsim.cost import ClusterCost, CostCounter, PhaseKind
from repro.distsim.faults import FaultInjector, FaultPlan, RetryPolicy, as_injector
from repro.distsim.machine import HierarchicalMachine, MachineSpec, get_machine
from repro.distsim.trace import Trace, TraceEvent
from repro.distsim.zerocopy import dedup_enabled, freeze
from repro.utils.rng import RandomState, as_generator

__all__ = ["BSPCluster"]


def _words_of(value: np.ndarray | float) -> float:
    """Message size in 8-byte words of a numeric payload."""
    arr = np.asarray(value)
    return float(arr.size)


class BSPCluster:
    """``P`` virtual ranks executing lock-step supersteps.

    Parameters
    ----------
    nranks:
        Number of virtual processors ``P``.
    machine:
        Machine preset name or :class:`MachineSpec`.
    allreduce_algorithm:
        One of ``"recursive_doubling"`` (default, matches the paper's
        Table 1 accounting), ``"binomial_tree"``, ``"ring"``.
    jitter_seed:
        Seed for the straggler model; only used when the machine spec has
        ``straggler_sigma > 0``.
    trace:
        Optional :class:`Trace` to record phases into (a fresh enabled
        trace is created when omitted).
    injector:
        Optional :class:`~repro.distsim.faults.FaultInjector` (or a
        :class:`~repro.distsim.faults.FaultPlan`, converted for you). The
        cluster consults it once per collective — op index is the *global
        collective index* — for stalls, per-rank contribution corruption,
        torn-collective losses and crash latching. An injector built from
        an empty plan leaves every charge and result bit-identical to no
        injector at all.
    retry:
        :class:`~repro.distsim.faults.RetryPolicy` for torn collectives:
        each lost attempt re-charges the collective (tagged as retry
        traffic) plus an exponential backoff. Without a policy, a torn
        collective raises :class:`~repro.exceptions.CommTimeoutError`.
    collective_deadline:
        Optional deadline (simulated seconds) on rank arrival skew at a
        collective: if the earliest and latest arriving ranks differ by
        more than this, :class:`~repro.exceptions.CommTimeoutError` is
        raised instead of silently absorbing the straggler.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` the cluster
        publishes into (``distsim_*`` instruments: phase counts, word and
        message totals, fault/retry counters, the simulated-clock gauge).
        Publishing is strictly observational — costs, clocks, traces and
        collective results are bit-identical with or without it.
    """

    def __init__(
        self,
        nranks: int,
        machine: str | MachineSpec = "comet_effective",
        *,
        allreduce_algorithm: str = "recursive_doubling",
        jitter_seed: RandomState = None,
        trace: Trace | None = None,
        injector: FaultInjector | FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        collective_deadline: float | None = None,
        metrics=None,
        dedup: bool | None = None,
        comm_topology: str = "flat",
        comm_compress: "str | CompressionSpec" = "none",
        compress_seed: int = 0,
    ) -> None:
        if nranks < 1:
            raise ValidationError(f"nranks must be >= 1, got {nranks}")
        if allreduce_algorithm not in coll.ALLREDUCE_ALGORITHMS:
            raise ValidationError(
                f"unknown allreduce algorithm {allreduce_algorithm!r}; "
                f"choose from {coll.ALLREDUCE_ALGORITHMS}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ValidationError(f"retry must be a RetryPolicy or None, got {type(retry).__name__}")
        if collective_deadline is not None and not (
            np.isfinite(collective_deadline) and collective_deadline > 0
        ):
            raise ValidationError(
                f"collective_deadline must be finite and > 0, got {collective_deadline}"
            )
        self.nranks = int(nranks)
        self.machine = get_machine(machine)
        self.allreduce_algorithm = allreduce_algorithm
        # Collectives v2 knobs (docs/COLLECTIVES.md). The defaults leave
        # every charge, trace and result byte-identical to pre-v2 clusters.
        if comm_topology not in coll.COMM_TOPOLOGIES:
            raise ValidationError(
                f"unknown comm topology {comm_topology!r}; "
                f"choose from {coll.COMM_TOPOLOGIES}"
            )
        self.comm_topology = comm_topology
        self.compress = parse_compression_spec(comm_compress)
        if comm_topology == "hier":
            if not (
                isinstance(self.machine, HierarchicalMachine) and self.machine.node_size > 1
            ):
                raise ValidationError(
                    f"comm_topology='hier' needs a hierarchical machine "
                    f"(node_size > 1); {self.machine.name!r} is single-level — "
                    f"pick e.g. 'comet_4ppn' or 'fat_tree'"
                )
            s = self.machine.node_size
            if s & (s - 1):
                raise ValidationError(
                    f"comm_topology='hier' needs a power-of-two node_size for "
                    f"bit-identity with the flat tournament; "
                    f"{self.machine.name!r} has node_size={s}"
                )
        self._compressor = (
            CompressorBank(self.compress, seed=compress_seed) if self.compress.enabled else None
        )
        self._v2_active = self.compress.enabled or comm_topology == "hier"
        self.counters = [CostCounter(rank=r) for r in range(self.nranks)]
        self.trace = trace if trace is not None else Trace()
        self._jitter_rng = as_generator(jitter_seed) if self.machine.straggler_sigma else None
        self._injector = as_injector(injector)
        self._retry = retry
        self._deadline = None if collective_deadline is None else float(collective_deadline)
        # Global collective index: monotone for the lifetime of the cluster
        # (survives reset()) so one-shot scheduled faults never refire when
        # a resilient solver rolls back and replays.
        self._coll_index = 0
        # Zero-copy fan-out: with dedup on, replicated collective outputs
        # (allgather/bcast/gather/scatter) are read-only views instead of
        # per-rank deep copies. Charged costs are unchanged either way.
        self.dedup = dedup_enabled(dedup)
        self._pending_fault = None
        # Encoding the most recent allreduce-family collective actually used
        # ("dense"/"sparse"); solver telemetry reads it per stage-C round.
        self.last_comm_decision: str | None = None
        self._metrics = metrics
        if metrics is not None:
            self._m_phases = metrics.counter(
                "distsim_phases_total", help="simulated phases by kind and label"
            )
            self._m_flops = metrics.counter(
                "distsim_flops_total", help="flops charged across all ranks"
            )
            self._m_words = metrics.counter(
                "distsim_words_total", help="words moved across all ranks"
            )
            self._m_messages = metrics.counter(
                "distsim_messages_total", help="messages sent across all ranks"
            )
            self._m_sparse_words = metrics.counter(
                "distsim_sparse_words_total", help="words moved in index+value encoding"
            )
            self._m_saved_words = metrics.counter(
                "distsim_saved_words_total", help="dense-equivalent words avoided"
            )
            self._m_retry_words = metrics.counter(
                "distsim_retry_words_total", help="fault-tolerance words (retries, recovery)"
            )
            self._m_retry_messages = metrics.counter(
                "distsim_retry_messages_total", help="fault-tolerance messages"
            )
            self._m_checkpoint_words = metrics.counter(
                "distsim_checkpoint_words_total", help="words spent on checkpoints"
            )
            self._m_faults = metrics.counter(
                "distsim_faults_total", help="injected fault effects by type"
            )
            self._m_decisions = metrics.counter(
                "distsim_comm_decisions_total",
                help="allreduce encoding decisions (dense vs sparse)",
            )
            self._m_clock = metrics.gauge(
                "distsim_sim_time_seconds", help="current simulated wall-clock"
            )
            self._m_phase_seconds = metrics.histogram(
                "distsim_phase_seconds", help="simulated phase durations"
            )
        # Collectives-v2 instruments exist only when the v2 knobs are active,
        # so default-config metric snapshots stay byte-identical.
        if metrics is not None and self._v2_active:
            self._m_rounds_local = metrics.counter(
                "distsim_comm_rounds_local_total",
                help="node-local rounds of the two-level allreduce schedule",
            )
            self._m_rounds_remote = metrics.counter(
                "distsim_comm_rounds_remote_total",
                help="inter-node rounds of the allreduce schedule",
            )
            self._m_compress_saved = metrics.counter(
                "distsim_comm_words_saved_compress_total",
                help="dense-equivalent words avoided by lossy compression",
            )
            self._m_ef_residual = metrics.gauge(
                "distsim_comm_error_feedback_residual",
                help="l2 norm of the top-k error-feedback residuals",
            )

    def _publish_v2(self, charge: "coll.AllreduceCharge") -> None:
        """Publish the v2 round/compression instruments for one allreduce."""
        if self._metrics is None or not self._v2_active:
            return
        if charge.rounds_local:
            self._m_rounds_local.inc(float(charge.rounds_local))
        if charge.rounds_remote:
            self._m_rounds_remote.inc(float(charge.rounds_remote))
        if self.compress.enabled and charge.saved_words > 0:
            self._m_compress_saved.inc(charge.saved_words * self.nranks)
        if self._compressor is not None and self.compress.kind == "topk":
            self._m_ef_residual.set(self._compressor.residual_norm())

    # -- compression / rollback state ----------------------------------- #
    def comm_state_snapshot(self):
        """Compressor state (error-feedback residuals, RNG call counts).

        ``None`` when compression is off; deep-copied so checkpoints can
        restore it for bit-exact rollback replay.
        """
        return None if self._compressor is None else self._compressor.snapshot()

    def comm_state_restore(self, snap) -> None:
        if self._compressor is not None and snap is not None:
            self._compressor.restore(snap)

    def _note_decision(self, decision: str) -> None:
        self.last_comm_decision = decision
        if self._metrics is not None:
            self._m_decisions.inc(decision=decision)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def cost(self) -> ClusterCost:
        """Aggregate cost view (live — reflects counters as they stand)."""
        return ClusterCost(self.counters)

    @property
    def injector(self) -> FaultInjector | None:
        """The attached fault injector (None on a fault-free cluster)."""
        return self._injector

    @property
    def elapsed(self) -> float:
        """Current simulated wall-clock time."""
        return max(c.clock for c in self.counters)

    def reset(self) -> None:
        """Zero all counters, clocks and the trace.

        The global collective index is *not* reset: scheduled one-shot
        faults fire on monotone indices so a rollback-and-replay does not
        re-trigger them.
        """
        self.counters = [CostCounter(rank=r) for r in range(self.nranks)]
        self.trace.events.clear()

    def _rank_clock_lines(self, dead: Sequence[int] = ()) -> list[str]:
        """Per-rank diagnostic lines for fault/timeout errors."""
        dead_set = set(dead)
        return [
            f"rank {c.rank}: clock={c.clock:.6g}s" + (" (crashed)" if c.rank in dead_set else "")
            for c in self.counters
        ]

    def _sync_start(self, label: str = "collective") -> float:
        """Synchronize all ranks at the start of a collective.

        With an injector attached this is also the fault boundary: the
        verdict for this collective is drawn here (stalls applied to the
        affected ranks' clocks, corruption/torn-attempt verdicts stashed
        for the collective body and :meth:`_finish_collective`), crashed
        ranks are detected, and the optional arrival-skew deadline is
        enforced.
        """
        self._pending_fault = None
        if self._injector is not None:
            fault = self._injector.collective_fault(self.nranks, self._coll_index)
            if fault.any:
                self._pending_fault = fault
            for r in sorted(fault.stalls):
                t0 = self.counters[r].clock
                self.counters[r].wait_until(t0 + fault.stalls[r])
                self.trace.record(
                    TraceEvent(
                        kind=PhaseKind.FAULT,
                        label=f"stall:{label}",
                        start=t0,
                        end=self.counters[r].clock,
                        detail=f"rank {r} stalled {fault.stalls[r]:.3g}s",
                    )
                )
                if self._metrics is not None:
                    self._m_faults.inc(type="stall")
            dead = [
                r
                for r in range(self.nranks)
                if self._injector.crash_due(
                    r, time=self.counters[r].clock, op_index=self._coll_index
                )
            ]
            if dead:
                if self._metrics is not None:
                    self._m_faults.inc(len(dead), type="crash")
                t = self.elapsed
                self.trace.record(
                    TraceEvent(
                        kind=PhaseKind.FAULT,
                        label=f"crash:{label}",
                        start=t,
                        end=t,
                        detail=f"rank(s) {dead} dead at collective #{self._coll_index}",
                    )
                )
                raise RankFailureError(
                    f"rank(s) {dead} crashed (injected fault) entering collective "
                    f"{label!r} (#{self._coll_index}):\n  "
                    + "\n  ".join(self._rank_clock_lines(dead))
                )
        if self._deadline is not None:
            clocks = [c.clock for c in self.counters]
            skew = max(clocks) - min(clocks)
            if skew > self._deadline:
                raise CommTimeoutError(
                    f"collective {label!r} (#{self._coll_index}) missed its deadline: "
                    f"rank arrival skew {skew:.6g}s exceeds "
                    f"collective_deadline={self._deadline:.6g}s:\n  "
                    + "\n  ".join(self._rank_clock_lines())
                )
        t = self.elapsed
        for c in self.counters:
            c.wait_until(t)
        return t

    def _corruption_pending(self) -> bool:
        fault = self._pending_fault
        return self._injector is not None and fault is not None and bool(fault.corruptions)

    def _apply_corruption(
        self, values: list, label: str
    ) -> list:
        """Corrupt per-rank contributions per the pending collective fault."""
        if not self._corruption_pending():
            return values
        fault = self._pending_fault
        out = list(values)
        t = self.elapsed
        for r in sorted(fault.corruptions):
            if not (0 <= r < len(out)):
                continue
            mode = fault.corruptions[r]
            v = out[r]
            if isinstance(v, sc.SparseVector):
                if v.values.size == 0:
                    continue
                bad = self._injector.corrupt(
                    v.values, mode, rank=r, op_index=self._coll_index
                )
                out[r] = sc.SparseVector(v.n, v.indices, bad)
            else:
                out[r] = self._injector.corrupt(
                    np.asarray(v, dtype=np.float64), mode, rank=r, op_index=self._coll_index
                )
            self.trace.record(
                TraceEvent(
                    kind=PhaseKind.FAULT,
                    label=f"corrupt:{label}",
                    start=t,
                    end=t,
                    detail=f"rank {r} contribution corrupted ({mode})",
                )
            )
            if self._metrics is not None:
                self._m_faults.inc(type="corrupt")
        return out

    def _per_rank(self, value: float | Sequence[float] | np.ndarray) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            return np.full(self.nranks, float(arr))
        if arr.shape != (self.nranks,):
            raise ValidationError(
                f"per-rank value must be scalar or length-{self.nranks}, got shape {arr.shape}"
            )
        return arr

    # ------------------------------------------------------------------ #
    # compute phase
    # ------------------------------------------------------------------ #
    def compute(self, flops: float | Sequence[float] | np.ndarray, label: str = "compute") -> None:
        """Advance every rank through a local compute phase.

        *flops* is a scalar (same work everywhere) or a per-rank vector.
        Straggler jitter, when enabled on the machine, multiplies each
        rank's phase time independently.
        """
        per_rank = self._per_rank(flops)
        if np.any(per_rank < 0):
            raise ValidationError("flops must be non-negative")
        start = self.elapsed
        factors = self.machine.jitter_factors(self.nranks, self._jitter_rng)
        for c, f, j in zip(self.counters, per_rank, factors):
            c.charge_compute(float(f), self.machine.compute_time(float(f)) * float(j))
        self.trace.record(
            TraceEvent(
                kind=PhaseKind.COMPUTE,
                label=label,
                start=start,
                end=self.elapsed,
                flops=float(per_rank.sum()),
            )
        )
        if self._metrics is not None:
            self._m_phases.inc(kind=PhaseKind.COMPUTE.value, label=label)
            self._m_flops.inc(float(per_rank.sum()))
            self._m_phase_seconds.observe(self.elapsed - start, kind="compute")
            self._m_clock.set(self.elapsed)

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def _finish_collective(
        self,
        label: str,
        start: float,
        cost: coll.CollectiveCost,
        kind: PhaseKind,
        *,
        sparse_words: float = 0.0,
        saved_words: float = 0.0,
        detail: str = "",
        retry_messages: float = 0.0,
        retry_words: float = 0.0,
        checkpoint_words: float = 0.0,
    ) -> None:
        fault = self._pending_fault
        self._pending_fault = None
        index = self._coll_index
        self._coll_index += 1
        if fault is not None and fault.failed_attempts:
            failures = fault.failed_attempts
            if self._retry is None or failures > self._retry.max_retries:
                budget = (
                    "no retry policy attached"
                    if self._retry is None
                    else f"retry budget ({self._retry.max_retries}) exhausted"
                )
                raise CommTimeoutError(
                    f"collective {label!r} (#{index}) torn by injected message loss "
                    f"{failures} time(s) — {budget} at simulated clock "
                    f"{self.elapsed:.6g}s:\n  " + "\n  ".join(self._rank_clock_lines())
                )
            t0 = self.elapsed
            for attempt in range(1, failures + 1):
                extra = cost.time + self._retry.backoff(attempt)
                for c in self.counters:
                    c.charge_comm(
                        cost.messages,
                        cost.words,
                        extra,
                        retry_messages=cost.messages,
                        retry_words=cost.words,
                    )
            self.trace.record(
                TraceEvent(
                    kind=PhaseKind.FAULT,
                    label=f"collective_retry:{label}",
                    start=t0,
                    end=self.elapsed,
                    words=cost.words * self.nranks * failures,
                    messages=cost.messages * self.nranks * failures,
                    detail=f"{failures} torn attempt(s) re-charged",
                )
            )
            if self._metrics is not None:
                self._m_faults.inc(failures, type="torn_collective")
                self._m_words.inc(cost.words * self.nranks * failures)
                self._m_messages.inc(cost.messages * self.nranks * failures)
                self._m_retry_words.inc(cost.words * self.nranks * failures)
                self._m_retry_messages.inc(cost.messages * self.nranks * failures)
            start = self.elapsed  # the successful attempt begins after the retries
        for c in self.counters:
            c.charge_comm(
                cost.messages,
                cost.words,
                cost.time,
                sparse_words=sparse_words,
                saved_words=saved_words,
                retry_messages=retry_messages,
                retry_words=retry_words,
                checkpoint_words=checkpoint_words,
            )
        self.trace.record(
            TraceEvent(
                kind=kind,
                label=label,
                start=start,
                end=self.elapsed,
                words=cost.words * self.nranks,
                messages=cost.messages * self.nranks,
                detail=detail,
            )
        )
        if self._metrics is not None:
            self._m_phases.inc(kind=kind.value, label=label)
            self._m_words.inc(cost.words * self.nranks)
            self._m_messages.inc(cost.messages * self.nranks)
            if sparse_words:
                self._m_sparse_words.inc(sparse_words * self.nranks)
            if saved_words:
                self._m_saved_words.inc(saved_words * self.nranks)
            if retry_words or retry_messages:
                self._m_retry_words.inc(retry_words * self.nranks)
                self._m_retry_messages.inc(retry_messages * self.nranks)
            if checkpoint_words:
                self._m_checkpoint_words.inc(checkpoint_words * self.nranks)
            self._m_phase_seconds.observe(self.elapsed - start, kind=kind.value)
            self._m_clock.set(self.elapsed)

    def _check_buffers(self, values: Sequence[np.ndarray], what: str) -> list[np.ndarray]:
        if len(values) != self.nranks:
            raise CommunicatorError(
                f"{what} needs one buffer per rank ({self.nranks}), got {len(values)}"
            )
        return [np.asarray(v, dtype=np.float64) for v in values]

    def _fanout(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Return the per-rank result list for a replicating collective.

        With dedup on this is a list of read-only views (no host copies);
        otherwise the historical per-rank deep copies.
        """
        if self.dedup:
            return [freeze(a) for a in arrays]
        return [a.copy() for a in arrays]

    def allreduce(
        self,
        values: Sequence[np.ndarray],
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
        label: str = "allreduce",
    ) -> np.ndarray:
        """Reduce per-rank arrays; the (replicated) result is returned once.

        This is the simulator's ``MPI_Allreduce`` — the single collective
        the RC-SFISTA implementation uses (Fig. 1, stage C).
        """
        arrays = self._check_buffers(values, "allreduce")
        self._note_decision("dense")
        start = self._sync_start(label)
        arrays = self._apply_corruption(arrays, label)
        result = coll.allreduce_values(arrays, op)
        cost = coll.allreduce_cost(
            self.machine, self.nranks, _words_of(arrays[0]), self.allreduce_algorithm
        )
        self._finish_collective(label, start, cost, PhaseKind.COLLECTIVE)
        return result

    def charge_allreduce(self, words: float, label: str = "allreduce") -> None:
        """Charge an allreduce of *words* words without moving data.

        Used by the dry-run cost replays (:mod:`repro.experiments.runner`):
        identical clock/counter effects to :meth:`allreduce`, zero
        allocation. Callers that need the *result* must use
        :meth:`allreduce`.
        """
        if words < 0:
            raise ValidationError(f"words must be >= 0, got {words}")
        self._note_decision("dense")
        start = self._sync_start(label)
        cost = coll.allreduce_cost(self.machine, self.nranks, float(words), self.allreduce_algorithm)
        self._finish_collective(label, start, cost, PhaseKind.COLLECTIVE)

    # -------------------------- sparse collectives -------------------- #
    def _check_comm_buffers(
        self, values: Sequence[sc.SparseVector | np.ndarray], what: str
    ) -> tuple[list[sc.SparseVector | np.ndarray], int]:
        if len(values) != self.nranks:
            raise CommunicatorError(
                f"{what} needs one buffer per rank ({self.nranks}), got {len(values)}"
            )
        return sc.check_contributions(values, what)

    def sparse_allreduce(
        self,
        values: Sequence[sc.SparseVector | np.ndarray],
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
        label: str = "sparse_allreduce",
        *,
        union: np.ndarray | None = None,
    ) -> np.ndarray:
        """Allreduce of per-rank sparse (index+value) buffers.

        Numerically bit-identical to :meth:`allreduce` on the densified
        inputs; charges :func:`~repro.distsim.collectives.sparse_allreduce_cost`
        — O(nnz_union) words with stream-and-switch densification — and
        logs the measured union density into the trace. *union* is the
        sorted support union when the caller has already measured it
        (:meth:`allreduce_comm` does).

        Dense contributions are never encoded, except when a corruption is
        pending: the fault then hits a stored value of the rank's
        index+value buffer, as it would on the wire.
        """
        items, n = self._check_comm_buffers(values, "sparse_allreduce")
        self._note_decision("sparse")
        start = self._sync_start(label)
        if self._corruption_pending():
            items = self._apply_corruption([sc.as_sparse_vector(v) for v in items], label)
        reduced = sc.sparse_allreduce_values(items, op, union=union)
        nnz = reduced.nnz
        cost = coll.sparse_allreduce_cost(
            self.machine, self.nranks, n, nnz, self.allreduce_algorithm
        )
        dense = coll.allreduce_cost(self.machine, self.nranks, float(n), self.allreduce_algorithm)
        self._finish_collective(
            label,
            start,
            cost,
            PhaseKind.COLLECTIVE,
            sparse_words=cost.words,
            saved_words=dense.words - cost.words,
            detail=f"sparse nnz={nnz}/{n}",
        )
        return reduced.to_dense()

    def charge_sparse_allreduce(
        self, n: float, nnz_union: float, label: str = "sparse_allreduce"
    ) -> None:
        """Charge a sparse allreduce without moving data (dry-run replays)."""
        self._note_decision("sparse")
        start = self._sync_start(label)
        cost = coll.sparse_allreduce_cost(
            self.machine, self.nranks, float(n), float(nnz_union), self.allreduce_algorithm
        )
        dense = coll.allreduce_cost(self.machine, self.nranks, float(n), self.allreduce_algorithm)
        self._finish_collective(
            label,
            start,
            cost,
            PhaseKind.COLLECTIVE,
            sparse_words=cost.words,
            saved_words=dense.words - cost.words,
            detail=f"sparse nnz={nnz_union:g}/{n:g}",
        )

    def allreduce_comm(
        self,
        values: Sequence[np.ndarray | sc.SparseVector],
        *,
        mode: str = "dense",
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
        label: str = "allreduce",
    ) -> np.ndarray:
        """Allreduce dispatching on the ``comm`` knob.

        ``"dense"`` and ``"sparse"`` force the respective path; ``"auto"``
        measures the union density of the contributions and picks the
        cheaper encoding per phase (the decision is recorded in the trace
        event's ``detail``). Results are bit-identical across modes.
        """
        if mode not in sc.COMM_MODES:
            raise ValidationError(f"unknown comm mode {mode!r}; choose from {sc.COMM_MODES}")
        if self.compress.enabled:
            return self._allreduce_compressed(values, op=op, label=label)
        if mode == "dense":
            result = self.allreduce(
                [v.to_dense() if isinstance(v, sc.SparseVector) else v for v in values],
                op,
                label=label,
            )
            self._publish_hier_rounds()
            return result
        items, n = self._check_comm_buffers(values, "allreduce_comm")
        nnz, union = sc.support_union_size(items, return_union=True)
        density = nnz / n if n else 0.0
        resolved = sc.resolve_comm_mode(mode, union_density=density)
        if resolved == "sparse":
            result = self.sparse_allreduce(items, op, label=label, union=union)
            self._publish_hier_rounds()
            return result
        # auto decided to densify: dense cost, decision still logged.
        arrays = [sc.densify(v) for v in items]
        self._note_decision("dense")
        start = self._sync_start(label)
        arrays = self._apply_corruption(arrays, label)
        result = coll.allreduce_values(arrays, op)
        cost = coll.allreduce_cost(self.machine, self.nranks, float(n), self.allreduce_algorithm)
        self._finish_collective(
            label,
            start,
            cost,
            PhaseKind.COLLECTIVE,
            detail=f"auto->dense nnz={nnz}/{n}",
        )
        self._publish_hier_rounds()
        return result

    def _publish_hier_rounds(self) -> None:
        """Round counters for ``comm_topology='hier'`` without compression.

        The uncompressed hierarchical schedule charges exactly the legacy
        two-level cost a hierarchical machine already pays (and its combine
        tree is bit-identical to the flat tournament for power-of-two node
        sizes), so only the new round counters need publishing here.
        """
        if not self._v2_active or self.compress.enabled or self._metrics is None:
            return
        local, remote = coll._round_counts(self.machine, self.nranks, self.allreduce_algorithm)
        if local:
            self._m_rounds_local.inc(float(local))
        if remote:
            self._m_rounds_remote.inc(float(remote))

    def _reduce_compressed(self, arrays: list[np.ndarray], label: str) -> tuple[np.ndarray, float]:
        """Compress contributions, reduce dense, measure the wire support.

        Flat topology: every rank's contribution is compressed
        (stream = rank) and the tournament runs over the compressed
        buffers. Hierarchical: node blocks reduce dense first, the
        node-leader partials are compressed (stream = node index), and the
        inter-node tournament runs over those. Returns the reduced result
        and — for top-k — the union nnz of the compressed payloads (the
        support every inter-rank round ships).
        """
        bank = self._compressor
        assert bank is not None
        if self.comm_topology == "hier":
            node_size = self.machine.node_size
            payload = [
                bank.compress(
                    coll.allreduce_values(arrays[i : i + node_size], "sum"),
                    label=label,
                    stream=node,
                )
                for node, i in enumerate(range(0, len(arrays), node_size))
            ]
        else:
            payload = [
                bank.compress(a, label=label, stream=r) for r, a in enumerate(arrays)
            ]
        result = coll.allreduce_values(payload, "sum")
        wire_nnz = 0.0
        if self.compress.kind == "topk":
            mask = np.zeros(arrays[0].shape, dtype=bool)
            for c in payload:
                mask |= c != 0.0
            wire_nnz = float(np.count_nonzero(mask))
        return result, wire_nnz

    def _allreduce_compressed(
        self,
        values: Sequence[np.ndarray | sc.SparseVector],
        *,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
        label: str = "allreduce",
    ) -> np.ndarray:
        """Lossy-compressed allreduce (collectives v2)."""
        if op != "sum":
            raise ValidationError(
                f"comm_compress={self.compress.spec!r} supports op='sum' only, got {op!r}"
            )
        arrays = self._check_buffers(
            [v.to_dense() if isinstance(v, sc.SparseVector) else v for v in values],
            "allreduce",
        )
        n = int(arrays[0].size)
        self._note_decision(self.compress.kind)
        start = self._sync_start(label)
        arrays = self._apply_corruption(arrays, label)
        result, wire_nnz = self._reduce_compressed(arrays, label)
        charge = coll.allreduce_charge(
            self.machine,
            self.nranks,
            float(n),
            algorithm=self.allreduce_algorithm,
            topology=self.comm_topology,
            compress=self.compress,
            compressed_nnz=wire_nnz,
        )
        detail = (
            f"topk nnz={int(wire_nnz)}/{n}"
            if self.compress.kind == "topk"
            else f"quant bits={self.compress.bits}"
        )
        self._finish_collective(
            label,
            start,
            charge.cost,
            PhaseKind.COLLECTIVE,
            sparse_words=charge.sparse_words,
            saved_words=charge.saved_words,
            detail=detail,
        )
        self._publish_v2(charge)
        return result

    def charge_allreduce_compressed(
        self, n: float, compressed_nnz: float, label: str = "allreduce"
    ) -> None:
        """Charge a compressed allreduce without moving data.

        Counterpart of :meth:`_allreduce_compressed` for backends that
        reduce the (compressed) payload elsewhere — *compressed_nnz* is the
        union nnz of the compressed contributions they measured.
        """
        self._note_decision(self.compress.kind)
        start = self._sync_start(label)
        charge = coll.allreduce_charge(
            self.machine,
            self.nranks,
            float(n),
            algorithm=self.allreduce_algorithm,
            topology=self.comm_topology,
            compress=self.compress,
            compressed_nnz=compressed_nnz,
        )
        detail = (
            f"topk nnz={int(compressed_nnz)}/{int(n)}"
            if self.compress.kind == "topk"
            else f"quant bits={self.compress.bits}"
        )
        self._finish_collective(
            label,
            start,
            charge.cost,
            PhaseKind.COLLECTIVE,
            sparse_words=charge.sparse_words,
            saved_words=charge.saved_words,
            detail=detail,
        )
        self._publish_v2(charge)

    def charge_allreduce_comm(
        self,
        n: float,
        nnz_union: float,
        *,
        mode: str = "dense",
        label: str = "allreduce",
    ) -> None:
        """Charge :meth:`allreduce_comm` without moving data.

        Same decision procedure, clock effects, trace details and counters
        as the data-moving dispatch for contributions of length *n* whose
        support union has *nnz_union* nonzeros. Used by backends that
        reduce the payload elsewhere (real processes, dry-run replays) but
        must charge exactly what a BSP run of the schedule charges.
        """
        if mode not in sc.COMM_MODES:
            raise ValidationError(f"unknown comm mode {mode!r}; choose from {sc.COMM_MODES}")
        if mode == "dense":
            self.charge_allreduce(float(n), label=label)
            self._publish_hier_rounds()
            return
        density = nnz_union / n if n else 0.0
        resolved = sc.resolve_comm_mode(mode, union_density=density)
        if resolved == "sparse":
            self.charge_sparse_allreduce(n, nnz_union, label=label)
            self._publish_hier_rounds()
            return
        self._note_decision("dense")
        start = self._sync_start(label)
        cost = coll.allreduce_cost(self.machine, self.nranks, float(n), self.allreduce_algorithm)
        self._finish_collective(
            label,
            start,
            cost,
            PhaseKind.COLLECTIVE,
            detail=f"auto->dense nnz={int(nnz_union)}/{int(n)}",
        )
        self._publish_hier_rounds()

    def allgather(
        self, values: Sequence[np.ndarray], label: str = "allgather"
    ) -> list[np.ndarray]:
        """Gather every rank's buffer onto all ranks."""
        arrays = self._check_buffers(values, "allgather")
        start = self._sync_start(label)
        words_local = max(_words_of(a) for a in arrays)
        cost = coll.allgather_cost(self.machine, self.nranks, words_local)
        self._finish_collective(label, start, cost, PhaseKind.COLLECTIVE)
        return self._fanout(arrays)

    def sparse_allgather(
        self,
        values: Sequence[sc.SparseVector | np.ndarray],
        label: str = "sparse_allgather",
    ) -> list[np.ndarray]:
        """Allgather of per-rank sparse buffers (recursive doubling).

        Numerically identical to :meth:`allgather` on the densified inputs;
        charges :func:`~repro.distsim.collectives.sparse_allgather_cost`
        with the largest per-rank payload (the uniform-block formula's
        critical path), tagging the saving against the dense allgather.
        """
        items, n = self._check_comm_buffers(values, "sparse_allgather")
        start = self._sync_start(label)
        gathered = sc.sparse_allgather_values(items)
        nnz_max = max(v.nnz for v in gathered)
        cost = coll.sparse_allgather_cost(self.machine, self.nranks, float(n), float(nnz_max))
        dense = coll.allgather_cost(self.machine, self.nranks, float(n))
        self._finish_collective(
            label,
            start,
            cost,
            PhaseKind.COLLECTIVE,
            sparse_words=cost.words,
            saved_words=dense.words - cost.words,
            detail=f"sparse nnz={nnz_max}/{n}",
        )
        return self._fanout([v.to_dense() for v in gathered])

    def bcast(self, value: np.ndarray, root: int = 0, label: str = "bcast") -> np.ndarray:
        """Broadcast *value* from *root* to all ranks."""
        self._check_root(root)
        arr = np.asarray(value, dtype=np.float64)
        start = self._sync_start(label)
        cost = coll.bcast_cost(self.machine, self.nranks, _words_of(arr))
        self._finish_collective(label, start, cost, PhaseKind.COLLECTIVE)
        return freeze(arr) if self.dedup else arr.copy()

    def charge_bcast(self, words: float, label: str = "bcast") -> None:
        """Charge a broadcast of *words* words without moving data."""
        if words < 0:
            raise ValidationError(f"words must be >= 0, got {words}")
        start = self._sync_start(label)
        cost = coll.bcast_cost(self.machine, self.nranks, float(words))
        self._finish_collective(label, start, cost, PhaseKind.COLLECTIVE)

    def reduce(
        self,
        values: Sequence[np.ndarray],
        root: int = 0,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
        label: str = "reduce",
    ) -> np.ndarray:
        """Reduce per-rank arrays onto *root* (returned to the caller)."""
        self._check_root(root)
        arrays = self._check_buffers(values, "reduce")
        start = self._sync_start(label)
        arrays = self._apply_corruption(arrays, label)
        result = coll.allreduce_values(arrays, op)
        cost = coll.reduce_cost(self.machine, self.nranks, _words_of(arrays[0]))
        self._finish_collective(label, start, cost, PhaseKind.COLLECTIVE)
        return result

    def charge_reduce(self, words: float, label: str = "reduce") -> None:
        """Charge a rooted reduction of *words* words without moving data."""
        if words < 0:
            raise ValidationError(f"words must be >= 0, got {words}")
        start = self._sync_start(label)
        cost = coll.reduce_cost(self.machine, self.nranks, float(words))
        self._finish_collective(label, start, cost, PhaseKind.COLLECTIVE)

    def gather(self, values: Sequence[np.ndarray], root: int = 0, label: str = "gather") -> list[np.ndarray]:
        """Gather per-rank buffers to *root*."""
        self._check_root(root)
        arrays = self._check_buffers(values, "gather")
        start = self._sync_start(label)
        words_local = max(_words_of(a) for a in arrays)
        cost = coll.gather_cost(self.machine, self.nranks, words_local)
        self._finish_collective(label, start, cost, PhaseKind.COLLECTIVE)
        return self._fanout(arrays)

    def scatter(self, chunks: Sequence[np.ndarray], root: int = 0, label: str = "scatter") -> list[np.ndarray]:
        """Scatter *chunks* (one per rank) from *root*; returns the rank views."""
        self._check_root(root)
        arrays = self._check_buffers(chunks, "scatter")
        start = self._sync_start(label)
        words_local = max(_words_of(a) for a in arrays)
        cost = coll.scatter_cost(self.machine, self.nranks, words_local)
        self._finish_collective(label, start, cost, PhaseKind.COLLECTIVE)
        return self._fanout(arrays)

    def barrier(self, label: str = "barrier") -> None:
        """Synchronize all ranks."""
        start = self._sync_start(label)
        cost = coll.barrier_cost(self.machine, self.nranks)
        self._finish_collective(label, start, cost, PhaseKind.BARRIER)

    # ------------------------------------------------------------------ #
    # resilience traffic
    # ------------------------------------------------------------------ #
    def checkpoint(self, words: float, label: str = "checkpoint") -> None:
        """Charge a checkpoint of *words* state words to stable storage.

        Modeled as a gather of the solver state to a stable root; the word
        traffic is tagged ``checkpoint_words`` so ablation reports can
        separate resilience overhead from algorithmic communication.
        """
        if words < 0:
            raise ValidationError(f"words must be >= 0, got {words}")
        start = self._sync_start(label)
        cost = coll.gather_cost(self.machine, self.nranks, float(words))
        self._finish_collective(
            label, start, cost, PhaseKind.COLLECTIVE, checkpoint_words=cost.words
        )

    def recover(self, words: float, label: str = "recovery") -> None:
        """Charge a rollback/respawn: re-broadcast *words* state words.

        The traffic is tagged ``retry_words``/``retry_messages`` (recovery
        state transfer is fault-tolerance traffic, not algorithm traffic).
        """
        if words < 0:
            raise ValidationError(f"words must be >= 0, got {words}")
        start = self._sync_start(label)
        cost = coll.bcast_cost(self.machine, self.nranks, float(words))
        self._finish_collective(
            label,
            start,
            cost,
            PhaseKind.FAULT,
            retry_messages=cost.messages,
            retry_words=cost.words,
        )

    def _check_root(self, root: int) -> None:
        if not (0 <= root < self.nranks):
            raise CommunicatorError(f"root {root} out of range [0, {self.nranks})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BSPCluster(nranks={self.nranks}, machine={self.machine.name!r}, "
            f"allreduce={self.allreduce_algorithm!r}, elapsed={self.elapsed:.3e}s)"
        )
