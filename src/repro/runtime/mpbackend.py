"""Real-parallelism execution backends: worker processes and BLAS threads.

Every backend in :mod:`repro.runtime.backend` *simulates* its ranks inside
one process — the α-β-γ charges are exact, but the host wall-clock only
benefits from the fast path of docs/PERFORMANCE.md, never from actual
hardware parallelism. This module adds the two backends that run ranks for
real while keeping the simulated cost model as the source of truth:

* :class:`MultiprocessingBackend` (``backend="mp"``) — one persistent
  worker **process** per rank, owned by a
  :class:`~repro.runtime.supervisor.WorkerSupervisor`. Collective
  payloads move through ``multiprocessing.shared_memory`` segments (one
  per rank, zero-copy between processes) and are reduced by the workers
  themselves in the exact pairwise-tournament order of
  :func:`repro.distsim.collectives.allreduce_values`, so results are
  **bit-identical** to every simulated backend. Charged costs come from an
  internal ledger :class:`~repro.distsim.bsp.BSPCluster` driven through
  its charge-only methods — byte-identical cost summaries to a BSP run of
  the same schedule.
* :class:`ThreadPoolBackend` (``backend="threads"``) — a
  :class:`~repro.runtime.backend.BSPBackend` whose :meth:`map_ranks` runs
  the per-rank compute closures on a thread pool. The Gram-dominated
  stages (A+B of Fig. 1) spend their time inside BLAS ``dgemm``/``dsyrk``
  which release the GIL, so on a multi-core host the dominant compute
  phase genuinely runs ``P``-way parallel. Collectives stay on the
  cluster: same numerics, same charges, same fault injection as BSP.

Division of labour (why two backends): Python closures cannot cross a
process boundary, so the mp backend parallelizes the *collectives* (its
``map_ranks`` is the serial fallback), while the threads backend
parallelizes the *per-rank compute* — together they cover both halves of
the paper's compute/communicate loop with real hardware.

Determinism contract
--------------------
``MultiprocessingBackend.allreduce`` reduces with the tournament pairing
``(i, i + s)`` for ``i ≡ 0 (mod 2s)``, ``s = 1, 2, 4, …`` — provably the
same pairing (hence the same floating-point sums) as
``allreduce_values``; the cross-backend conformance matrix in
``tests/test_runtime/test_cross_backend.py`` pins this bit-for-bit.

Robustness contract
-------------------
Every worker round-trip is guarded by a deadline
(:attr:`RuntimeConfig.mp_timeout`, plus :class:`RetryPolicy` backoff
grace when configured). A worker that crashed or hangs mid-collective is
detected within that deadline and handled per
:attr:`RuntimeConfig.mp_failure_policy`:

* ``"fail_fast"`` — tear down and raise
  :class:`~repro.exceptions.ConvergenceError`; the
  :class:`~repro.runtime.driver.ResilientLoop` attaches the last
  checkpointed state as ``.partial`` so callers can salvage work.
* ``"respawn"`` — SIGKILL the hung/dead ranks, spawn replacements
  through the same bootstrap (BLAS pinning, atexit hygiene), re-attach
  the segments and raise
  :class:`~repro.exceptions.WorkerFailureError` so the loop rewinds to
  the last checkpoint and replays — the final iterate is **bit-identical**
  to an unfaulted run (checkpoints capture the RNG stream).
* ``"shrink"`` — drop the failed ranks, renumber the survivors to a
  contiguous P′-rank pool, carry their cost counters into a fresh
  P′-rank ledger (dead ranks' past costs stay in the totals), and raise
  :class:`WorkerFailureError` with ``new_nranks`` so the solver
  deterministically repartitions its columns and resumes from the
  checkpoint on the survivors.

A seeded :class:`~repro.distsim.faults.FaultPlan` drives deterministic
*real-process* chaos: scheduled/random crashes SIGKILL workers, stalls
make workers really sleep, and payload corruption flips shared-memory
contributions before the reduction (docs/RESILIENCE.md). The backend
tears down its processes and **unlinks every shared-memory segment** on
every path — success, fail-fast, respawn, shrink (the lifecycle and chaos
tests assert ``/dev/shm`` stays clean and no zombies remain).
"""

from __future__ import annotations

import atexit
import os
import secrets
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import resource_tracker as _resource_tracker
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.distsim import sparse_collectives as sc
from repro.distsim.bsp import BSPCluster
from repro.distsim.machine import HierarchicalMachine
from repro.distsim.faults import FaultInjector, RetryPolicy, as_injector
from repro.distsim.trace import Trace
from repro.exceptions import (
    CommunicatorError,
    ConvergenceError,
    ValidationError,
    WorkerFailureError,
)
from repro.runtime.backend import BSPBackend
from repro.runtime.config import FAILURE_POLICIES, RuntimeConfig
from repro.runtime.dedup import ReplicatedCache
from repro.runtime.supervisor import WorkerSupervisor

__all__ = [
    "MultiprocessingBackend",
    "ThreadPoolBackend",
    "tournament_levels",
    "live_segment_names",
]

_SEGMENT_PREFIX = "repro_mp"

# Names of every shared-memory segment this process has created and not yet
# unlinked — the leak-test surface and the atexit safety net.
_LIVE_SEGMENTS: set[str] = set()

# Counter fields carried across a pool shrink: the survivors' accumulated
# costs seed the P′-rank ledger, the dead ranks' accumulate into the
# retired totals so Table-1 numbers still reflect everything that happened.
_COUNTER_FIELDS = (
    "flops",
    "words",
    "messages",
    "sparse_words",
    "saved_words",
    "retry_messages",
    "retry_words",
    "checkpoint_words",
    "compute_time",
    "comm_time",
    "idle_time",
    "clock",
)

_TOTAL_KEYS = {
    "flops_total": "flops",
    "words_total": "words",
    "messages_total": "messages",
    "sparse_words_total": "sparse_words",
    "saved_words_total": "saved_words",
    "retry_messages_total": "retry_messages",
    "retry_words_total": "retry_words",
    "checkpoint_words_total": "checkpoint_words",
}

_MAX_KEYS = {
    "flops_per_rank_max": "flops",
    "messages_per_rank_max": "messages",
    "words_per_rank_max": "words",
}


def live_segment_names() -> frozenset[str]:
    """Shared-memory segments currently owned (and not yet unlinked)."""
    return frozenset(_LIVE_SEGMENTS)


def _cleanup_leaked_segments() -> None:  # pragma: no cover - exit hook
    for name in list(_LIVE_SEGMENTS):
        try:
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()
        except FileNotFoundError:
            pass
        _LIVE_SEGMENTS.discard(name)


atexit.register(_cleanup_leaked_segments)


def tournament_levels(nranks: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The deterministic pairwise-reduction schedule for *nranks* buffers.

    Returns ``[(stride, [(dst, src), ...]), ...]``: at each level the rank
    ``dst`` accumulates ``src = dst + stride`` in place, for every ``dst``
    divisible by ``2·stride``. Survivors of level ``s`` are exactly the
    multiples of ``2s``, which is the compacted adjacent pairing of
    :func:`~repro.distsim.collectives.allreduce_values` — same pairs, same
    left/right operand order, hence bit-identical floating-point sums.
    The champion lands at rank 0.
    """
    if nranks < 1:
        raise ValidationError(f"nranks must be >= 1, got {nranks}")
    levels = []
    stride = 1
    while stride < nranks:
        pairs = [
            (dst, dst + stride)
            for dst in range(0, nranks, 2 * stride)
            if dst + stride < nranks
        ]
        levels.append((stride, pairs))
        stride *= 2
    return levels


def _attach(name: str, unregister: bool) -> shared_memory.SharedMemory:
    """Attach to an existing segment without double-registering it.

    On POSIX Pythons < 3.13 attaching also registers the segment with the
    attaching process's resource tracker. Under ``spawn`` each worker has
    its *own* tracker, which would unlink the segment out from under the
    owner when the worker exits (bpo-39959) — those workers unregister
    immediately. Under ``fork`` the tracker process is shared with the
    host; the duplicate registration is an idempotent set-add there, and
    unregistering would strip the *host's* registration instead.
    """
    seg = shared_memory.SharedMemory(name=name)
    if unregister:
        try:
            _resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - tracker internals moved
            pass
    return seg


def _worker_main(rank: int, nranks: int, conn, unregister_shm: bool, generation: int = 0) -> None:
    """Persistent worker loop: attach segments, execute collective steps.

    Data never travels over the pipe — commands and acks only, in the
    supervisor's sequence-numbered envelope (``(seq, op, *args)`` in,
    ``(seq, status, payload)`` out) so the host can discard stale acks
    after a recovery. Buffers are float64 views over the shared segments;
    a ``reduce_level`` command makes this worker accumulate its pair
    partner in place. Each data-plane ack carries the number of elements
    the worker touched so the host can merge per-rank metrics.

    ``attach`` also (re)binds the worker's rank identity — a pool shrink
    renumbers survivors by attaching them under their new rank/nranks.
    """
    segments: list[shared_memory.SharedMemory] = []
    views: list[np.ndarray] = []
    try:
        while True:
            msg = conn.recv()
            seq, op, args = msg[0], msg[1], msg[2:]
            try:
                if op == "attach":
                    names, rank, nranks = args
                    views = []  # views must die before their segments close
                    for seg in segments:
                        seg.close()
                    segments = [_attach(n, unregister_shm) for n in names]
                    views = [
                        np.frombuffer(seg.buf, dtype=np.float64) for seg in segments
                    ]
                    conn.send((seq, "ok", 0))
                elif op == "reduce_level":
                    stride, count = args
                    touched = 0
                    if rank % (2 * stride) == 0 and rank + stride < nranks:
                        # No named slice views: a surviving local would keep
                        # the buffer exported and block segment close.
                        np.add(
                            views[rank][:count],
                            views[rank + stride][:count],
                            out=views[rank][:count],
                        )
                        touched = count
                    conn.send((seq, "ok", touched))
                elif op == "bcast":
                    root, count = args
                    touched = 0
                    if rank != root:
                        np.copyto(views[rank][:count], views[root][:count])
                        touched = count
                    conn.send((seq, "ok", touched))
                elif op == "barrier":
                    conn.send((seq, "ok", 0))
                elif op == "ping":  # supervisor heartbeat / tests
                    conn.send(
                        (
                            seq,
                            "ok",
                            {
                                "pid": os.getpid(),
                                "generation": generation,
                                "blas_pinned": os.environ.get("OMP_NUM_THREADS"),
                            },
                        )
                    )
                elif op == "sleep":  # injected stall / test hook: a hung worker
                    time.sleep(args[0])
                    conn.send((seq, "ok", 0))
                elif op == "crash":  # test hook: a dying worker
                    os._exit(13)
                elif op == "exit":
                    conn.send((seq, "ok", 0))
                    return
                else:
                    conn.send((seq, "err", f"unknown command {op!r}"))
            except Exception as exc:  # surface, don't die silently
                conn.send((seq, "err", f"{type(exc).__name__}: {exc}"))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass
    finally:
        views = []  # release the exported buffers before closing
        for seg in segments:
            try:
                seg.close()
            except Exception:
                pass


class MultiprocessingBackend:
    """``ExecutionBackend`` over supervised shared-memory worker processes.

    Numerics are computed by the workers (real parallel data movement and
    reduction through ``multiprocessing.shared_memory``); the α-β-γ costs,
    clocks, trace and comm decisions are charged to an internal ledger
    :class:`BSPCluster` through its charge-only methods, so
    ``cost_summary()`` is byte-identical to a BSP run of the same
    schedule. Failures are *real*: a seeded fault plan SIGKILLs, stalls
    or corrupts actual worker processes, and ``failure_policy`` selects
    fail-fast, supervised respawn, or pool shrink with rank
    redistribution (see the module docstring's robustness contract).
    """

    parallel_ranks = False  # map_ranks is serial: closures don't cross exec

    def __init__(
        self,
        nranks: int,
        *,
        machine: str = "comet_effective",
        allreduce_algorithm: str = "recursive_doubling",
        comm: str = "dense",
        jitter_seed=None,
        metrics=None,
        timeout: float = 120.0,
        min_segment_bytes: int = 1 << 13,
        failure_policy: str = "fail_fast",
        faults=None,
        retry: RetryPolicy | None = None,
        comm_topology: str = "flat",
        comm_compress: str = "none",
        compress_seed: int = 0,
    ) -> None:
        if comm not in sc.COMM_MODES:
            raise ValidationError(f"comm must be one of {sc.COMM_MODES}, got {comm!r}")
        if not (np.isfinite(timeout) and timeout > 0):
            raise ValidationError(f"mp timeout must be finite and > 0, got {timeout}")
        if failure_policy not in FAILURE_POLICIES:
            raise ValidationError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ValidationError(
                f"retry must be a RetryPolicy or None, got {type(retry).__name__}"
            )
        self.comm = comm
        self.nranks = int(nranks)
        self.timeout = float(timeout)
        self.failure_policy = failure_policy
        self.replicated = ReplicatedCache(enabled=False)
        self._injector = as_injector(faults)
        self._retry = retry
        self._machine = machine
        self._allreduce_algorithm = allreduce_algorithm
        self._jitter_seed = jitter_seed
        # The cost ledger: a fault-free BSP cluster driven only through its
        # charge-only methods — never sees payloads, charges exactly what a
        # BSPBackend run of the same schedule charges.
        self._ledger = BSPCluster(
            nranks,
            machine,
            allreduce_algorithm=allreduce_algorithm,
            jitter_seed=jitter_seed,
            metrics=metrics,
            comm_topology=comm_topology,
            comm_compress=comm_compress,
            compress_seed=compress_seed,
        )
        # The ledger validated the v2 knobs. Compression numerics happen
        # here on the host (workers only ever reduce dense buffers), but
        # the bank is the *ledger's*: its charge-only methods never call
        # compress, so sharing keeps one source of error-feedback state —
        # the residual gauge and comm_state_snapshot both read it.
        self.comm_topology = comm_topology
        self.compress = self._ledger.compress
        self._compressor = self._ledger._compressor
        self._metrics = metrics
        self.worker_stats = [
            {"commands": 0, "elements": 0} for _ in range(self.nranks)
        ]
        # Data-plane stats of ranks retired by a shrink (published at
        # teardown after the surviving ranks, in retirement order).
        self._retired_stats: list[dict] = []
        # Dead ranks' accumulated cost-counter fields, folded into
        # cost_summary() — a retired rank's past work still happened.
        self._retired_costs: dict[str, float] = {}
        # (action, ranks) recovery log, surfaced in tests and benchmarks.
        self.recovery_events: list[tuple[str, tuple[int, ...]]] = []
        self.retry_waits = 0
        self._closed = False
        self._broken: str | None = None
        self._capacity = 0
        self._coll_index = 0
        self._segments: list[shared_memory.SharedMemory] = []
        self._views: list[np.ndarray] = []
        methods = get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
        ctx = get_context(start_method)
        if start_method == "fork":
            # Start the host's resource tracker *before* forking so every
            # worker inherits it: one tracker, idempotent duplicate
            # registrations, no per-child tracker warning about segments
            # the host already unlinked.
            _resource_tracker.ensure_running()
        # Failures during construction cannot be recovered by replay (no
        # checkpoint exists outside a ResilientLoop body yet) — the
        # _recovering latch forces the fail-fast path until setup is done.
        self._recovering = True
        self._sup = WorkerSupervisor(
            _worker_main,
            self.nranks,
            ctx=ctx,
            unregister_shm=start_method != "fork",
        )
        self._levels = tournament_levels(self.nranks)
        self._ensure_capacity(max(1, min_segment_bytes // 8))
        self._recovering = False

    @classmethod
    def from_config(cls, config: RuntimeConfig, nranks: int) -> "MultiprocessingBackend":
        """Build the backend a config describes (chaos plan and all)."""
        if config.cluster is not None:
            raise ValidationError(
                "the mp backend builds its own workers; a prebuilt BSP cluster "
                "cannot be supplied"
            )
        return cls(
            nranks,
            machine=config.machine,
            allreduce_algorithm=config.allreduce_algorithm,
            comm=config.comm,
            jitter_seed=config.jitter_seed,
            metrics=config.metrics,
            timeout=config.mp_timeout,
            failure_policy=config.mp_failure_policy,
            faults=config.faults,
            retry=config.retry,
            comm_topology=config.comm_topology,
            comm_compress=config.comm_compress,
        )

    # ------------------------------------------------------------------ #
    # worker coordination
    # ------------------------------------------------------------------ #
    @property
    def supervisor(self) -> WorkerSupervisor:
        return self._sup

    def _check_open(self) -> None:
        if self._broken:
            raise ConvergenceError(
                f"mp backend is unusable after a worker failure ({self._broken})",
                partial=None,
            )
        if self._closed:
            raise CommunicatorError("mp backend has been closed")

    def _fail(self, why: str) -> ConvergenceError:
        """Tear down after an unrecoverable worker fault; nothing may leak."""
        self._broken = why
        self._teardown(graceful=False)
        return ConvergenceError(
            f"mp backend worker failure: {why} — worker processes terminated, "
            "shared memory unlinked; the last checkpointed state (if any) is "
            "attached as .partial, and mp_failure_policy='respawn'/'shrink' "
            "recovers instead of failing",
            partial=None,
        )

    def _await(self, rank: int, seq: int, label: str) -> Any:
        """Await *rank*'s ack for envelope *seq*, granting retry backoff grace.

        Returns the ack payload, or None when the rank failed (deadline
        and every backoff extension exhausted, or its pipe died). Each
        grace extension is fault-tolerance traffic: it bumps the
        ``retry_*`` ledger counters (one ack-word recovery round) and the
        ``recovery_retry_waits_total`` metric.
        """
        deadline = time.monotonic() + self.timeout
        attempt = 0
        while True:
            ack = self._sup.recv_ack(rank, seq, deadline)
            if ack is not None:
                status, payload = ack
                if status != "ok":
                    raise self._fail(f"worker {rank} errored in {label!r}: {payload}")
                return payload
            if (
                self._retry is not None
                and attempt < self._retry.max_retries
                and self._sup.is_alive(rank)
            ):
                attempt += 1
                grace = max(self._retry.backoff(attempt), 1e-3)
                self.retry_waits += 1
                self._ledger.recover(self._retry.ack_words, label="mp_retry_wait")
                if self._metrics is not None:
                    from repro.obs.metrics import record_recovery

                    record_recovery(self._metrics, retry_waits=1)
                deadline = time.monotonic() + grace
                continue
            return None

    def _roundtrip(
        self,
        targets: Sequence[int],
        cmd_for: Callable[[int], tuple],
        label: str,
    ) -> None:
        """Send ``cmd_for(rank)`` to every target and await every ack.

        A broken pipe, a worker error, or a deadline miss (after backoff
        grace) routes to :meth:`_handle_failure` — which recovers per the
        failure policy or raises the fail-fast ConvergenceError.
        """
        pending: list[tuple[int, int]] = []
        failed: list[int] = []
        for r in targets:
            seq = self._sup.next_seq()
            if self._sup.send(r, seq, *cmd_for(r)):
                pending.append((r, seq))
            else:
                failed.append(r)
        for r, seq in pending:
            if failed:
                # Already recovering this round: don't await the rest, a
                # torn collective will be replayed from the checkpoint.
                break
            payload = self._await(r, seq, label)
            if payload is None:
                failed.append(r)
            else:
                self.worker_stats[r]["commands"] += 1
                self.worker_stats[r]["elements"] += int(payload)
        if failed:
            self._handle_failure(label, failed)

    def _handle_failure(self, label: str, suspects: Sequence[int]) -> None:
        """Classify the pool and recover per the failure policy (raises).

        Every rank is heartbeat-probed so simultaneous failures are
        handled in one recovery; a live-but-unresponsive rank is *hung*
        and treated exactly like a dead one (SIGKILLed, then respawned or
        dropped) — a rank slower than the deadline plus backoff grace has
        failed, which is the straggler-escalation semantic.
        """
        if self.failure_policy == "fail_fast" or self._recovering:
            raise self._fail(self._describe(label, sorted(set(suspects))))
        self._recovering = True
        try:
            statuses = self._sup.heartbeat(min(self.timeout, 2.0))
            failed = sorted(
                set(suspects) | {s.rank for s in statuses if not s.healthy}
            )
            if len(failed) >= self.nranks:
                raise self._fail(
                    f"every rank failed during {label!r}; nothing to recover on"
                )
            for r in failed:
                self._sup.kill(r)  # reap dead ones, SIGKILL hung ones
                self._sup.drain(r)
            if self._injector is not None:
                # Triggered scheduled crashes must not refire on replay.
                self._injector.heal_all()
            from repro.obs.metrics import record_recovery

            if self.failure_policy == "respawn":
                self._sup.respawn(failed)
                self._attach_all()
                self.recovery_events.append(("respawn", tuple(failed)))
                record_recovery(self._metrics, respawns=len(failed), ranks_lost=len(failed))
                raise WorkerFailureError(
                    self._describe(label, failed)
                    + f" — respawned rank(s) {failed}, replaying from checkpoint",
                    ranks=tuple(failed),
                    action="respawn",
                )
            # shrink: renumber the survivors to a contiguous P′-rank pool
            survivors = [r for r in range(self.nranks) if r not in failed]
            self._shrink_to(survivors, failed)
            self.recovery_events.append(("shrink", tuple(failed)))
            record_recovery(self._metrics, shrinks=1, ranks_lost=len(failed))
            raise WorkerFailureError(
                self._describe(label, failed)
                + f" — pool shrunk {len(survivors) + len(failed)}→{len(survivors)}, "
                "repartitioning and resuming from checkpoint",
                ranks=tuple(failed),
                action="shrink",
                new_nranks=len(survivors),
            )
        finally:
            self._recovering = False

    def _describe(self, label: str, ranks: Sequence[int]) -> str:
        states = []
        for r in ranks:
            alive = self._sup.is_alive(r)
            states.append(f"worker {r} {'hung' if alive else 'died'}")
        return (
            f"{', '.join(states)} in {label!r} (deadline {self.timeout:g}s"
            + (
                f" + {self._retry.max_retries} backoff retries"
                if self._retry is not None
                else ""
            )
            + ")"
        )

    def _attach_all(self) -> None:
        """(Re)bind every worker to the current segments under its rank."""
        names = [seg.name for seg in self._segments]
        self._roundtrip(
            range(self.nranks),
            lambda r: ("attach", names, r, self.nranks),
            "attach",
        )

    def _shrink_to(self, survivors: list[int], failed: list[int]) -> None:
        """Drop *failed*, renumber *survivors*, carry ledger and segments.

        The survivors keep their own segments (reordered to the new rank
        ids); the dead ranks' segments are unlinked. Their cost counters
        move into the retired totals so ``cost_summary()`` still accounts
        for work done before the failure, while the new P′-rank ledger is
        seeded with the survivors' accumulated counters and clocks — the
        cost timeline continues, it does not restart.
        """
        old = self._ledger
        for r in failed:
            for key, fld in _TOTAL_KEYS.items():
                self._retired_costs[key] = self._retired_costs.get(key, 0.0) + getattr(
                    old.counters[r], fld
                )
            for key, fld in _MAX_KEYS.items():
                self._retired_costs[key] = max(
                    self._retired_costs.get(key, 0.0), getattr(old.counters[r], fld)
                )
            self._retired_costs["elapsed"] = max(
                self._retired_costs.get("elapsed", 0.0), old.counters[r].clock
            )
            self._retired_stats.append(self.worker_stats[r])
        new = BSPCluster(
            len(survivors),
            self._machine,
            allreduce_algorithm=self._allreduce_algorithm,
            jitter_seed=self._jitter_seed,
            trace=old.trace,
            metrics=self._metrics,
            comm_topology=self.comm_topology,
            comm_compress=self.compress,
        )
        # Carry the error-feedback/RNG state: the replay must restore the
        # checkpointed compressor snapshot against the same bank object.
        if self._compressor is not None:
            new._compressor = self._compressor
        for new_r, old_r in enumerate(survivors):
            src, dst = old.counters[old_r], new.counters[new_r]
            for fld in _COUNTER_FIELDS:
                setattr(dst, fld, getattr(src, fld))
        self._ledger = new
        self.worker_stats = [self.worker_stats[r] for r in survivors]
        self._sup.renumber(survivors)
        keep = [self._segments[r] for r in survivors]
        drop = [self._segments[r] for r in failed]
        self._views = [self._views[r] for r in survivors]
        self._segments = keep
        for seg in drop:
            self._unlink(seg)
        self.nranks = len(survivors)
        self._levels = tournament_levels(self.nranks)
        self._attach_all()

    def _ensure_capacity(self, n_elements: int) -> None:
        """Grow the per-rank segments to hold *n_elements* float64 each."""
        if n_elements <= self._capacity and self._segments:
            return
        nbytes = max(int(n_elements), 1) * 8
        old = self._segments
        self._segments = []
        self._views = []
        for rank in range(self.nranks):
            name = f"{_SEGMENT_PREFIX}_{os.getpid()}_{rank}_{secrets.token_hex(4)}"
            seg = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
            _LIVE_SEGMENTS.add(seg.name)
            self._segments.append(seg)
            self._views.append(np.frombuffer(seg.buf, dtype=np.float64))
        self._attach_all()
        for seg in old:
            self._unlink(seg)
        self._capacity = nbytes // 8

    @staticmethod
    def _unlink(seg: shared_memory.SharedMemory) -> None:
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _LIVE_SEGMENTS.discard(seg.name)

    def _teardown(self, graceful: bool) -> None:
        self._sup.shutdown(graceful=graceful)
        # Views must die before the segments: SharedMemory.close refuses
        # to tear down a buffer that still has exported numpy views.
        self._views = []
        segments, self._segments = self._segments, []
        for seg in segments:
            self._unlink(seg)
        self._capacity = 0
        self._publish_worker_metrics()

    def _publish_worker_metrics(self) -> None:
        if self._metrics is None:
            return
        from repro.obs.metrics import merge_rank_counts

        # Retired (shrunk-away) ranks publish after the survivors; their
        # label is positional, which keeps the pass deterministic and the
        # totals exact even though their original rank id is gone.
        stats = self.worker_stats + self._retired_stats
        merge_rank_counts(
            self._metrics,
            "mpbackend_commands",
            [s["commands"] for s in stats],
            help="collective commands executed per mp worker",
        )
        merge_rank_counts(
            self._metrics,
            "mpbackend_elements",
            [s["elements"] for s in stats],
            help="float64 elements reduced/copied per mp worker",
        )

    def close(self) -> None:
        """Shut workers down and unlink every segment (idempotent).

        The cost ledger survives: ``cost_summary()``, ``elapsed`` and the
        trace remain readable after close — solvers close the backend in a
        ``finally`` and assemble their ``SolveResult`` afterwards.
        """
        if self._closed or self._broken:
            return
        self._closed = True
        self._teardown(graceful=True)

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # chaos injection
    # ------------------------------------------------------------------ #
    def _precollective(self, label: str) -> tuple[int, Any]:
        """Health-check the pool and apply the chaos plan for one collective.

        Returns ``(collective_index, fault_verdict)``. The index is
        monotone for the backend's lifetime — it keeps increasing through
        replays, exactly like the BSP cluster's, so one-shot scheduled
        faults never refire after a recovery. Any rank found dead here
        (externally killed, or SIGKILLed by a due scheduled crash) routes
        to :meth:`_handle_failure` before the collective starts.
        """
        self._check_open()
        index = self._coll_index
        self._coll_index += 1
        suspects = set(self._sup.reap())
        fault = None
        if self._injector is not None:
            for r in self._injector.due_crashes(
                self.nranks, time=self._ledger.elapsed, op_index=index
            ):
                if self._sup.is_alive(r):
                    self._sup.kill(r)  # the real SIGKILL the plan schedules
                suspects.add(r)
            fault = self._injector.collective_fault(self.nranks, index)
        if suspects:
            self._handle_failure(label, sorted(suspects))
        return index, fault

    def _apply_chaos(self, index: int, fault, n: int, payload_ranks: Sequence[int]) -> None:
        """Inject stalls and shm payload corruption for one collective.

        Corruption flips the rank's shared-memory contribution *before*
        the reduction (deterministic victim element, keyed by the plan
        seed and the collective index); a NaN/Inf then propagates through
        the tournament into the result, where the solver's NumericalGuard
        sees it — the same integration point the simulated engines use.
        Stalls make the worker really sleep; the stall acks are awaited
        under the usual deadline + backoff grace, so a short stall is a
        slow rank and a long one escalates to hung-rank recovery.
        """
        if fault is None or not fault.any:
            return
        for r in payload_ranks:
            mode = fault.corruptions.get(r)
            if mode is not None and n > 0:
                corrupted = self._injector.corrupt(
                    np.array(self._views[r][:n], copy=True),
                    mode,
                    rank=r,
                    op_index=index,
                )
                np.copyto(self._views[r][:n], corrupted)
        pending: list[tuple[int, int]] = []
        failed: list[int] = []
        for r, duration in sorted(fault.stalls.items()):
            if r >= self.nranks or not self._sup.is_alive(r):
                continue
            seq = self._sup.next_seq()
            if self._sup.send(r, seq, "sleep", float(duration)):
                pending.append((r, seq))
            else:
                failed.append(r)
        for r, seq in pending:
            if not failed and self._await(r, seq, "injected stall") is None:
                failed.append(r)
        if failed:
            self._handle_failure("injected stall", failed)

    # ------------------------------------------------------------------ #
    # shared-memory numerics
    # ------------------------------------------------------------------ #
    def _load(self, contribs: Sequence[np.ndarray], what: str) -> tuple[int, tuple]:
        """Validate and scatter host contributions into the rank segments."""
        self._check_open()
        if len(contribs) != self.nranks:
            raise CommunicatorError(
                f"{what} needs one buffer per rank ({self.nranks}), got {len(contribs)}"
            )
        arrays = [np.asarray(v, dtype=np.float64) for v in contribs]
        shape = arrays[0].shape
        for i, a in enumerate(arrays):
            if a.shape != shape:
                raise CommunicatorError(
                    f"{what} buffer shape mismatch: rank 0 has {shape}, "
                    f"rank {i} has {a.shape}"
                )
        n = int(arrays[0].size)
        self._ensure_capacity(n)
        for rank, a in enumerate(arrays):
            np.copyto(self._views[rank][:n], a.reshape(-1))
        return n, shape

    def _run_tournament(self, n: int) -> None:
        """Execute the pairwise reduction levels on the workers."""
        for stride, pairs in self._levels:
            self._roundtrip(
                [dst for dst, _src in pairs],
                lambda r: ("reduce_level", stride, n),
                "allreduce",
            )

    def _result(self, n: int, shape: tuple, root: int = 0) -> np.ndarray:
        return np.array(self._views[root][:n], copy=True).reshape(shape)

    # ------------------------------------------------------------------ #
    # ExecutionBackend protocol
    # ------------------------------------------------------------------ #
    def _allreduce_compressed(self, n: int, shape: tuple, label: str) -> np.ndarray:
        """Compress the loaded contributions in place, then run the tournament.

        Mirrors :meth:`BSPCluster._reduce_compressed` exactly: flat
        topology compresses every rank's shared-memory contribution
        (stream = rank); hierarchical first runs the intra-node tournament
        levels (stride < node_size — for power-of-two node sizes those
        pair only within node blocks, leaving each block's dense partial
        on its leader), compresses the leader partials (stream = node
        index), then runs the remaining inter-node levels. Same compress
        inputs, same streams, same reduction order — bit-identical results
        to the BSP/threads backends.
        """
        bank = self._compressor
        node_size = (
            self._ledger.machine.node_size
            if self.comm_topology == "hier"
            and isinstance(self._ledger.machine, HierarchicalMachine)
            else 1
        )
        if self.comm_topology == "hier":
            intra = [(s, p) for s, p in self._levels if s < node_size]
            inter = [(s, p) for s, p in self._levels if s >= node_size]
            for stride, pairs in intra:
                self._roundtrip(
                    [dst for dst, _src in pairs],
                    lambda r: ("reduce_level", stride, n),
                    "allreduce",
                )
            leaders = list(range(0, self.nranks, node_size))
            compressed = []
            for node, leader in enumerate(leaders):
                c = bank.compress(
                    np.array(self._views[leader][:n], copy=True),
                    label=label,
                    stream=node,
                )
                np.copyto(self._views[leader][:n], c)
                compressed.append(c)
            for stride, pairs in inter:
                self._roundtrip(
                    [dst for dst, _src in pairs],
                    lambda r: ("reduce_level", stride, n),
                    "allreduce",
                )
        else:
            compressed = []
            for rank in range(self.nranks):
                c = bank.compress(
                    np.array(self._views[rank][:n], copy=True),
                    label=label,
                    stream=rank,
                )
                np.copyto(self._views[rank][:n], c)
                compressed.append(c)
            self._run_tournament(n)
        wire_nnz = 0.0
        if self.compress.kind == "topk":
            mask = np.zeros(n, dtype=bool)
            for c in compressed:
                mask |= c != 0.0
            wire_nnz = float(np.count_nonzero(mask))
        self._ledger.charge_allreduce_compressed(float(n), wire_nnz, label=label)
        return self._result(n, shape)

    def comm_state_snapshot(self):
        return self._ledger.comm_state_snapshot()

    def comm_state_restore(self, snap) -> None:
        self._ledger.comm_state_restore(snap)

    def allreduce(self, contribs: Sequence[np.ndarray], label: str = "allreduce") -> np.ndarray:
        n, shape = self._load(contribs, "allreduce")
        index, fault = self._precollective(label)
        self._apply_chaos(index, fault, n, range(self.nranks))
        if self.compress.enabled:
            return self._allreduce_compressed(n, shape, label)
        if self.comm == "dense":
            self._ledger.charge_allreduce(float(n), label=label)
        else:
            # The sparse/auto charge needs the union support size — the
            # same support_union_size BSP measures. Counted on the 1-D
            # host views before the workers densify anything.
            if len(shape) != 1:
                raise CommunicatorError(
                    f"sparse-encoded allreduce needs 1-D buffers, got shape {shape}"
                )
            nnz = sc.support_union_size([self._views[rank][:n] for rank in range(self.nranks)])
            self._ledger.charge_allreduce_comm(n, nnz, mode=self.comm, label=label)
        self._run_tournament(n)
        return self._result(n, shape)

    def reduce(self, contribs: Sequence[np.ndarray], root: int = 0, label: str = "reduce") -> np.ndarray:
        if not (0 <= root < self.nranks):
            raise CommunicatorError(f"root {root} out of range [0, {self.nranks})")
        n, shape = self._load(contribs, "reduce")
        index, fault = self._precollective(label)
        self._apply_chaos(index, fault, n, range(self.nranks))
        self._ledger.charge_reduce(float(n), label=label)
        self._run_tournament(n)
        # The tournament champion lives at rank 0; the host-view protocol
        # hands the root's result back to the caller either way.
        return self._result(n, shape)

    def broadcast(self, value: np.ndarray, root: int = 0, label: str = "bcast") -> np.ndarray:
        if not (0 <= root < self.nranks):
            raise CommunicatorError(f"root {root} out of range [0, {self.nranks})")
        self._check_open()
        arr = np.asarray(value, dtype=np.float64)
        n = int(arr.size)
        self._ensure_capacity(n)
        np.copyto(self._views[root][:n], arr.reshape(-1))
        index, fault = self._precollective(label)
        self._apply_chaos(index, fault, n, (root,))
        self._ledger.charge_bcast(float(n), label=label)
        self._roundtrip(range(self.nranks), lambda r: ("bcast", root, n), "bcast")
        return self._result(n, arr.shape, root=root)

    def barrier(self, label: str = "barrier") -> None:
        self._check_open()
        index, fault = self._precollective(label)
        self._apply_chaos(index, fault, 0, ())
        self._ledger.barrier(label=label)  # charge-only: no payload exists
        self._roundtrip(range(self.nranks), lambda r: ("barrier",), "barrier")

    def compute(self, flops, label: str = "compute") -> None:
        self._ledger.compute(flops, label=label)

    def checkpoint(self, words: float) -> None:
        self._ledger.checkpoint(words)

    def recover(self, words: float) -> None:
        self._ledger.recover(words)

    def map_ranks(self, fn: Callable[[int], Any], count: int) -> list:
        """Serial fallback: solver closures cannot cross a process boundary."""
        return [fn(p) for p in range(count)]

    @property
    def elapsed(self) -> float:
        return self._ledger.elapsed

    @property
    def last_comm_decision(self) -> str | None:
        return self._ledger.last_comm_decision

    @property
    def trace(self) -> Trace | None:
        return self._ledger.trace

    @property
    def injector(self) -> FaultInjector | None:
        return self._injector

    @property
    def machine_name(self) -> str:
        return self._ledger.machine.name

    @property
    def allreduce_algorithm(self) -> str:
        return self._ledger.allreduce_algorithm

    def cost_summary(self) -> dict | None:
        summary = dict(self._ledger.cost.summary())
        if self._retired_costs:
            for key in _TOTAL_KEYS:
                summary[key] += self._retired_costs.get(key, 0.0)
            for key in _MAX_KEYS:
                summary[key] = max(summary[key], self._retired_costs.get(key, 0.0))
            summary["elapsed"] = max(
                summary["elapsed"], self._retired_costs.get("elapsed", 0.0)
            )
        return summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self._broken or ("closed" if self._closed else "live")
        return (
            f"MultiprocessingBackend(nranks={self.nranks}, "
            f"machine={self.machine_name!r}, policy={self.failure_policy!r}, {state})"
        )


class ThreadPoolBackend(BSPBackend):
    """BSP semantics with genuinely parallel per-rank compute closures.

    Inherits every collective, charge and fault behaviour from
    :class:`BSPBackend` (numerics on the cluster, bit-identical); only
    :meth:`map_ranks` changes — per-rank closures run on a pool of
    ``nranks`` threads. The solvers' Gram stages call into BLAS, which
    releases the GIL, so the dominant compute phase scales with cores
    (docs/PERFORMANCE.md has the measured-wall-clock methodology and the
    single-core caveats).
    """

    parallel_ranks = True

    def __init__(self, cluster: BSPCluster, comm: str = "dense") -> None:
        super().__init__(cluster, comm=comm)
        self._pool: ThreadPoolExecutor | None = None

    def map_ranks(self, fn: Callable[[int], Any], count: int) -> list:
        if count <= 1:
            return [fn(p) for p in range(count)]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.nranks, thread_name_prefix="repro-rank"
            )
        return list(self._pool.map(fn, range(count)))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
