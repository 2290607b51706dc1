"""RC-SFISTA written as a true SPMD rank program on the generator engine.

The BSP implementation (:mod:`repro.core.rc_sfista_dist`) executes the
lock-step schedule directly; this module expresses the *same algorithm* as
a per-rank program against the mini-MPI
(:class:`repro.distsim.engine.SPMDEngine`) — each virtual rank owns its
column block, draws the shared-seed samples itself, builds its local
``(H_p, R_p)`` contributions and participates in the stage-C allreduce.
It exists to validate the substrate end-to-end: the integration tests
assert that the engine run produces the same iterates and the same
per-rank message/word counters as the BSP run and the serial reference.

Fixed iteration budget, plain or SVRG estimator; for the fully-featured
front-end (stopping rules, monitoring, Hessian-reuse damping) use
:func:`repro.core.rc_sfista_dist.rc_sfista_distributed`.

The solver runs on the unified :mod:`repro.runtime`: the
:class:`~repro.runtime.backend.SPMDBackend` owns the engine, and the
:class:`~repro.runtime.driver.ResilientLoop` owns the heal-and-rerun
recovery choreography and telemetry. Because the algorithm lives in rank
programs, in-band state (checkpoint shipping, NaN screening of reduced
values) stays inside the program — every rank screens the *same*
replicated collective result, so all ranks take identical control-flow
branches without extra communication.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core._dist_common import distribute_problem, hessian_reuse_update
from repro.core.fista import momentum_mu, t_next
from repro.core.model import ERMObjective, resolve_objective
from repro.core.results import SolveResult
from repro.core.sfista import GradientEstimator, stochastic_step_size
from repro.exceptions import NumericalFaultError, ValidationError
from repro.runtime import (
    ResilientLoop,
    RollbackRequested,
    RuntimeConfig,
    SPMDBackend,
)
from repro.sparse.ops import GramWorkspace
from repro.utils.rng import RandomState, as_generator, minibatch_size, sample_indices
from repro.utils.validation import check_positive

__all__ = ["rc_sfista_spmd"]


def rc_sfista_spmd(
    problem: ERMObjective,
    nranks: int,
    *,
    k: int = 1,
    b: float = 0.1,
    step_size: float | None = None,
    n_iterations: int = 100,
    estimator: GradientEstimator | str = GradientEstimator.PLAIN,
    seed: RandomState = 0,
    runtime: RuntimeConfig | None = None,
) -> SolveResult:
    """Run RC-SFISTA (k-overlap, S=1, single epoch) on the SPMD engine.

    Every runtime knob is a field of ``runtime=RuntimeConfig(...)``
    (``None`` uses the defaults). ``comm`` selects the stage-C allreduce
    encoding (``"dense"``, ``"sparse"``, ``"auto"``); iterates are
    bit-identical across modes.

    Resilience: ``faults``/``retry``/``recv_timeout`` configure the
    engine's fault layer. With ``checkpoint_every > 0`` the rank programs
    ship their replicated state to rank 0 every that many stage-C rounds
    (a real ``reduce``, charged like any collective) and the host keeps it;
    after a :class:`~repro.exceptions.RankFailureError` the driver heals
    the crashed ranks and reruns the program — which resumes from the last
    checkpoint (bit-exactly, via the captured RNG state) on the *same*
    engine, so counters and clocks keep accumulating across the failure.
    ``on_nan`` screens every reduced collective result and (out of band)
    the monitored objective: ``"raise"`` fails fast, ``"rollback"`` reruns
    from the last checkpoint, ``"recompute"`` re-issues the corrupted
    allreduce. ``adaptive_restart`` resets the FISTA momentum whenever the
    objective increases (monitored out of band, replicated on all ranks).

    Observability: ``telemetry`` receives one
    :class:`~repro.obs.telemetry.IterationRecord` per inner iteration
    (emitted once, from rank 0's program) plus run start/end; attaching it
    also enables the engine trace so the recorder can harvest a timeline.
    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` the engine
    publishes into. Both are strictly out of band.
    """
    estimator = GradientEstimator(estimator)
    config = runtime if runtime is not None else RuntimeConfig()
    if estimator is GradientEstimator.EXACT:
        raise ValidationError("SPMD RC-SFISTA requires a sampled estimator")
    if config.backend in ("mp", "threads"):
        raise ValidationError(
            "rc_sfista_spmd always runs its rank programs on the SPMD engine; "
            f"backend={config.backend!r} selects a host-view substrate — use "
            "rc_sfista_distributed for real-parallelism backends"
        )
    if k < 1 or n_iterations < 1:
        raise ValidationError("k and n_iterations must be >= 1")
    # Legacy squared+l1 keeps the historical byte-identical rank program;
    # other losses/penalties run the model-anchored general path (same
    # payload layout and stride — see rc_sfista_dist).
    resolved = resolve_objective(problem, loss=config.loss, penalty=config.penalty)
    view = resolved.objective
    general = not resolved.legacy
    mbar = minibatch_size(problem.m, b)
    gamma = (
        check_positive(step_size, "step_size")
        if step_size is not None
        else stochastic_step_size(
            view.lipschitz(),
            problem.m,
            mbar,
            view.max_sample_lipschitz,
            epoch_length=n_iterations,
            deviation=view.sampled_hessian_deviation(mbar),
        )
    )
    if not isinstance(seed, (int, np.integer)):
        raise ValidationError("rc_sfista_spmd needs an integer seed shared by all ranks")
    d = problem.d
    thresh = problem.lam * gamma
    data = distribute_problem(problem, nranks)

    backend = SPMDBackend.from_config(config, nranks)
    loop = ResilientLoop(backend, config, solver="rc_sfista_spmd")
    loop.step_size = gamma
    guard = loop.guard
    # Objective monitoring is only needed when a feature consumes it; it is
    # out of band (never charged) and replicated, so every rank sees it.
    monitored = guard.enabled or config.adaptive_restart
    loop.start(
        {
            "nranks": nranks,
            "k": k,
            "b": b,
            "mbar": mbar,
            "n_iterations": n_iterations,
            "estimator": estimator.value,
            "step_size": gamma,
            "loss": resolved.loss.name,
            "penalty": resolved.penalty.spec,
            "comm": config.comm,
            "comm_topology": config.comm_topology,
            "comm_compress": config.comm_compress,
            "machine": backend.machine_name,
            "checkpoint_every": config.checkpoint_every,
            "on_nan": config.on_nan,
        }
    )

    # Host-side checkpoint store: the state is replicated across ranks, so
    # rank 0's copy stands for all of them. A rerun of the program after a
    # heal (or a rollback) resumes from here.
    ck_holder: dict = {"state": None, "count": 0}

    def screen_replicated(ctx, value, what: str) -> bool:
        """NaN screen of a replicated value, identical on every rank.

        The engine replicates ONE reduced result to all ranks, so every
        rank takes the same branch here without extra communication; only
        rank 0 mutates the (host-side) stats. Returns True when the policy
        is recompute and the caller should re-issue the collective.
        """
        if not guard.enabled or bool(np.all(np.isfinite(value))):
            return False
        if ctx.rank == 0:
            loop.stats.numerical_faults += 1
        if config.on_nan == "raise":
            raise NumericalFaultError(
                f"non-finite values detected in {what} (policy 'raise')"
            )
        if config.on_nan == "rollback":
            raise RollbackRequested(what)
        return True

    stride = d * d + d
    # Replicated-work cache: the stage-D update and the monitored objective
    # are identical on every rank (same seed, same reduced inputs), so with
    # dedup enabled rank 0 computes them once per collective epoch and the
    # other ranks receive frozen views. Disabled (REPRO_NO_DEDUP=1 or
    # dedup=False) every rank recomputes, bit-identically.
    replicated = backend.replicated

    def program(ctx):
        rank_data = data.ranks[ctx.rank]
        # Every rank derives the same sampling stream from the shared seed
        # (paper §5.5) — no communication needed to agree on I_n.
        rng = as_generator(int(seed))
        # Per-rank scratch: each rank's packed payload must stay intact
        # until the collective completes, so buffers are program-local.
        workspace = GramWorkspace(d, mbar) if not general else None
        packed_buf = np.empty(k * stride) if workspace is not None else None
        if workspace is not None and ctx.rank == 0:
            loop.workspace = workspace

        w = np.zeros(d)
        w_prev = w.copy()
        t_prev = 1.0
        anchor = w.copy()
        full_grad = None
        prev_obj = None
        done = 0
        ck = ck_holder["state"]
        if ck is not None:
            # Resume after a failure: replicated state, so every rank
            # restores the same snapshot (including the sampling stream).
            w = ck["w"].copy()
            w_prev = ck["w_prev"].copy()
            t_prev = ck["t_prev"]
            done = ck["done"]
            full_grad = None if ck["full_grad"] is None else ck["full_grad"].copy()
            prev_obj = ck["prev_obj"]
            rng.bit_generator.state = copy.deepcopy(ck["rng_state"])
        elif estimator is GradientEstimator.SVRG:
            if general:
                g_p, _fl = rank_data.loss_gradient_contribution(
                    anchor, problem.m, resolved.loss
                )
            else:
                g_p, _fl = rank_data.full_gradient_contribution(anchor, problem.m)
            for _attempt in range(config.max_recoveries + 1):
                full_grad = yield ctx.allreduce(g_p, comm=config.comm)
                if not screen_replicated(ctx, full_grad, "anchor gradient allreduce"):
                    break
                if ctx.rank == 0:
                    loop.stats.recomputes += 1
            else:
                raise NumericalFaultError(
                    f"anchor gradient allreduce stayed non-finite after "
                    f"{config.max_recoveries + 1} attempt(s) (on_nan='recompute')"
                )

        while done < n_iterations:
            block = min(k, n_iterations - done)
            round_anchor = None
            # Stages A+B: local contributions for the whole block.
            if general:
                # Model-anchored block: linearize the loss at the round
                # anchor a = w; the payload keeps the [H_j | g_j] layout
                # and the k(d² + d)-word stride of the legacy path.
                round_anchor = w.copy()
                z_r, _flz = rank_data.local_predictions(round_anchor)
                z_a = None
                if estimator is GradientEstimator.SVRG:
                    z_a, _fla = rank_data.local_predictions(anchor)
                chunks = []
                for _j in range(block):
                    idx = sample_indices(rng, problem.m, mbar)
                    H_p, g_p, _fl = rank_data.model_block_contribution(
                        idx, mbar, d, loss=resolved.loss, z_round=z_r, z_anchor=z_a
                    )
                    chunks.append(H_p.ravel())
                    chunks.append(g_p)
                packed = np.concatenate(chunks)
            elif workspace is not None:
                packed = packed_buf[: block * stride]
                for _j in range(block):
                    base = _j * stride
                    idx = sample_indices(rng, problem.m, mbar)
                    H_out = packed[base : base + d * d].reshape(d, d)
                    _, local_idx, _fl = rank_data.sampled_hessian_contribution(
                        idx, mbar, d, workspace=workspace, out=H_out
                    )
                    R_out = packed[base + d * d : base + stride]
                    if estimator is GradientEstimator.PLAIN:
                        rank_data.sampled_rhs_contribution(
                            local_idx, mbar, d, workspace=workspace, out=R_out
                        )
                    else:
                        R_out.fill(0.0)
            else:
                chunks = []
                for _j in range(block):
                    idx = sample_indices(rng, problem.m, mbar)
                    H_p, local_idx, _fl = rank_data.sampled_hessian_contribution(
                        idx, mbar, d
                    )
                    if estimator is GradientEstimator.PLAIN:
                        R_p, _flr = rank_data.sampled_rhs_contribution(
                            local_idx, mbar, d
                        )
                    else:
                        R_p = np.zeros(d)
                    chunks.append(H_p.ravel())
                    chunks.append(R_p)
                packed = np.concatenate(chunks)
            # Stage C: one allreduce of k(d² + d) words.
            for _attempt in range(config.max_recoveries + 1):
                combined = yield ctx.allreduce(packed, comm=config.comm)
                if not screen_replicated(ctx, combined, "stage-C allreduce"):
                    break
                if ctx.rank == 0:
                    loop.stats.recomputes += 1
            else:
                raise NumericalFaultError(
                    f"stage-C allreduce stayed non-finite after "
                    f"{config.max_recoveries + 1} attempt(s) (on_nan='recompute')"
                )
            # Stage D: replicated updates. The engine resumes ranks in
            # order after a collective, so rank 0 runs the whole stage
            # first and fills the cache; ranks 1..P-1 hit.
            epoch = backend.engine.coll_epoch
            for j in range(block):
                base = j * stride
                it_no = done + j + 1
                t_cur = t_next(t_prev)
                mu = momentum_mu(t_prev, t_cur)

                def compute_update(
                    base=base, mu=mu, w=w, w_prev=w_prev, round_anchor=round_anchor
                ):
                    H = combined[base : base + d * d].reshape(d, d)
                    if general:
                        R = H @ round_anchor - combined[base + d * d : base + stride]
                        if estimator is not GradientEstimator.PLAIN:
                            R = R - full_grad
                    elif estimator is GradientEstimator.PLAIN:
                        R = combined[base + d * d : base + stride]
                    else:
                        R = H @ anchor - full_grad
                    v = w + mu * (w - w_prev)
                    return hessian_reuse_update(
                        H, R, v, gamma=gamma, thresh=thresh,
                        prox=resolved.penalty.prox if general else None,
                    )

                w_new = replicated.get(epoch, ("update", it_no), compute_update)
                w_prev, w = w, w_new
                t_prev = t_cur

                iter_obj = None
                if monitored:
                    # Out of band, replicated: computed once per epoch.
                    obj = replicated.get(
                        epoch, ("objective", it_no), lambda w=w: view.value(w)
                    )
                    if screen_replicated(ctx, obj, "monitored objective"):
                        # A diverged iterate cannot be fixed by
                        # re-communicating — recompute degrades to rollback.
                        raise RollbackRequested("monitored objective")
                    if config.adaptive_restart and prev_obj is not None and obj > prev_obj:
                        t_prev = 1.0
                        w_prev = w.copy()
                        if ctx.rank == 0:
                            loop.stats.momentum_restarts += 1
                    prev_obj = obj
                    iter_obj = obj
                if ctx.rank == 0:
                    # One emission per iteration: rank 0 speaks for the
                    # replicated state. Replays after a heal re-emit.
                    loop.emit(outer=0, inner=done + j + 1, objective=iter_obj)
            done += block
            if config.checkpoint_every and done < n_iterations and (
                -(-done // k)
            ) % config.checkpoint_every == 0:
                # Ship the replicated state to the stable root — a real
                # reduce, charged to the counters like any collective.
                yield ctx.reduce(np.concatenate([w, w_prev]), root=0)
                if ctx.rank == 0:
                    ck_holder["state"] = {
                        "w": w.copy(),
                        "w_prev": w_prev.copy(),
                        "t_prev": t_prev,
                        "done": done,
                        "full_grad": None if full_grad is None else full_grad.copy(),
                        "prev_obj": prev_obj,
                        "rng_state": copy.deepcopy(rng.bit_generator.state),
                    }
                    ck_holder["count"] += 1
        return w

    # No capture/restore: the rank programs re-derive everything from the
    # host-side ck_holder, and a rerun's collectives are genuinely
    # re-charged on the same engine, so there is no out-of-band recovery
    # traffic to bill.
    per_rank_w = loop.run(lambda: backend.run_program(program))
    for other in per_rank_w[1:]:
        if not np.allclose(other, per_rank_w[0], atol=1e-12):
            raise ValidationError("replicated iterates diverged across ranks")

    loop.stats.checkpoints = ck_holder["count"]
    loop.finish(
        {
            "n_iterations": n_iterations,
            "checkpoints": ck_holder["count"],
            "rank_failures_recovered": loop.stats.rank_failures_recovered,
        }
    )
    return SolveResult(
        # Private writable copy: with dedup the per-rank results are one
        # shared frozen view.
        w=np.array(per_rank_w[0]),
        converged=False,
        n_iterations=n_iterations,
        n_comm_rounds=-(-n_iterations // k)
        + (1 if estimator is GradientEstimator.SVRG else 0),
        cost=backend.cost_summary(),
        meta={
            "solver": "rc_sfista_spmd",
            "k": k,
            "b": b,
            "mbar": mbar,
            "estimator": estimator.value,
            "step_size": gamma,
            "loss": resolved.loss.name,
            "penalty": resolved.penalty.spec,
            "nranks": nranks,
            "comm": config.comm,
            "comm_topology": config.comm_topology,
            "comm_compress": config.comm_compress,
            "checkpoint_every": config.checkpoint_every,
            "on_nan": config.on_nan,
            "max_recoveries": config.max_recoveries,
            "adaptive_restart": config.adaptive_restart,
            "resilience": loop.stats.as_meta(),
        },
    )
