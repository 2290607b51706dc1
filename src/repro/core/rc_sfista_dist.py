"""Distributed RC-SFISTA — the paper's contribution on the simulated cluster.

Implements the four stages of Fig. 1 per outer round:

* **Stage A** — every rank draws the same ``k`` global sample sets from the
  shared seed and keeps the columns it owns.
* **Stage B** — each rank builds its ``k`` local blocks
  ``H_p = (1/m̄) X_{p,S} X_{p,S}ᵀ`` and (plain estimator) ``R_p``.
* **Stage C** — ONE ``MPI_Allreduce`` of the concatenated
  ``G = [H₁|…|H_k | R₁|…|R_k]`` — ``k(d² + d)`` words — instead of the
  ``k`` separate allreduces SFISTA pays. Latency ÷ k, bandwidth unchanged
  (Table 1).
* **Stage D** — ``k`` unrolled iterations, each running ``S`` Hessian-reuse
  inner steps, fully local and replicated.

The iterate sequence matches the serial :func:`repro.core.rc_sfista.rc_sfista`
with the same seed (the overlap changes only *where* communication
happens), which the integration tests assert.

Unified runtime
---------------
Execution-substrate, resilience and observability concerns live in
:mod:`repro.runtime`: bundle them in ``runtime=RuntimeConfig(...)``. The
solver body here is purely algorithmic — an
:class:`~repro.runtime.backend.ExecutionBackend` supplies the collectives
(serial or BSP-simulated) and a
:class:`~repro.runtime.driver.ResilientLoop` supplies checkpointing,
crash/NaN recovery with bit-exact replay, and telemetry.
"""

from __future__ import annotations

import numpy as np

from repro.core._dist_common import (
    UPDATE_FLOPS,
    RankWorkspaces,
    distribute_problem,
    hessian_reuse_update,
)
from repro.core.fista import momentum_mu, t_next
from repro.core.model import ERMObjective, resolve_objective
from repro.core.results import History, SolveResult
from repro.core.sfista import GradientEstimator, stochastic_step_size
from repro.core.sfista_dist import _epoch_anchor_gradient
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.runtime import Checkpoint, ResilientLoop, RuntimeConfig, build_host_backend
from repro.utils.rng import RandomState, as_generator, minibatch_size, sample_indices
from repro.utils.validation import check_positive

__all__ = ["rc_sfista_distributed"]


def rc_sfista_distributed(
    problem: ERMObjective,
    nranks: int,
    *,
    k: int = 1,
    S: int = 1,
    b: float = 0.1,
    step_size: float | None = None,
    epochs: int = 1,
    iters_per_epoch: int = 100,
    estimator: GradientEstimator | str = GradientEstimator.SVRG,
    seed: RandomState = 0,
    stopping: StoppingCriterion | None = None,
    monitor_every: int = 1,
    restart_momentum: bool = True,
    runtime: RuntimeConfig | None = None,
) -> SolveResult:
    """Distributed RC-SFISTA (Alg. 5 on the cluster of Fig. 1).

    See :func:`repro.core.rc_sfista.rc_sfista` for the algorithmic
    parameters ``k``, ``S``, ``b``; see
    :func:`repro.core.sfista_dist.sfista_distributed` for the shared
    parameters. ``history`` carries simulated times; ``cost`` the cluster
    counters.

    ``RuntimeConfig(comm=...)`` selects the collective encoding:
    ``"dense"`` ships full buffers, ``"sparse"`` ships index+value pairs
    charged at O(nnz_union) words, ``"auto"`` measures the union density
    per phase and picks the cheaper encoding (the decision is logged into
    the cluster trace). Iterates are bit-identical across the three modes.

    Runtime
    -------
    runtime:
        A :class:`~repro.runtime.RuntimeConfig` bundling the execution
        knobs (machine/comm selection, faults, retry, recv_timeout,
        checkpointing, on_nan, max_recoveries, adaptive_restart,
        telemetry, metrics — see that class for per-field docs); ``None``
        uses the defaults. ``RuntimeConfig(backend="serial")`` runs the
        same body on the zero-cost single-rank backend.
    """
    estimator = GradientEstimator(estimator)
    config = runtime if runtime is not None else RuntimeConfig()
    if k < 1 or S < 1:
        raise ValidationError(f"k and S must be >= 1, got k={k}, S={S}")
    if estimator is GradientEstimator.EXACT:
        raise ValidationError("distributed RC-SFISTA requires a sampled estimator")
    if epochs < 1 or iters_per_epoch < 1:
        raise ValidationError("epochs and iters_per_epoch must be >= 1")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    stopping = stopping or StoppingCriterion()
    # The objective view: for the historical squared+l1 pair this is the
    # problem itself and every branch below takes the legacy byte-identical
    # path; any other loss/penalty switches to the model-anchored general
    # path (same payload layout, same communicated words).
    resolved = resolve_objective(problem, loss=config.loss, penalty=config.penalty)
    view = resolved.objective
    general = not resolved.legacy
    rng = as_generator(seed)
    mbar = minibatch_size(problem.m, b)
    gamma = (
        check_positive(step_size, "step_size")
        if step_size is not None
        else stochastic_step_size(
            view.lipschitz(),
            problem.m,
            mbar,
            view.max_sample_lipschitz,
            epoch_length=iters_per_epoch if restart_momentum else epochs * iters_per_epoch,
            deviation=view.sampled_hessian_deviation(mbar),
        )
    )
    d = problem.d
    thresh = problem.lam * gamma
    # See rc_sfista: proximal-point damping of the reuse subproblem.
    eps_reg = 0.25 * view.sampled_hessian_deviation(mbar) if S > 1 else 0.0

    data = distribute_problem(problem, nranks)
    backend = build_host_backend(config, nranks)
    loop = ResilientLoop(backend, config, solver="rc_sfista_distributed")
    loop.step_size = gamma
    stride = d * d + d
    # Reusable scratch: per-rank stage-C payload buffers plus the Gram
    # workspaces (one shared, or one per rank when the backend maps ranks
    # in parallel). Bit-identical to the allocating path (pinned by tests).
    # The general path builds curvature-weighted blocks and has no
    # workspace variant.
    workspaces = (
        RankWorkspaces(nranks, d, mbar, parallel=backend.parallel_ranks)
        if not general
        else None
    )
    loop.workspace = workspaces
    packed_bufs = (
        [np.empty(k * stride) for _ in range(nranks)] if workspaces is not None else None
    )
    loop.start(
        {
            "nranks": nranks,
            "k": k,
            "S": S,
            "b": b,
            "mbar": mbar,
            "epochs": epochs,
            "iters_per_epoch": iters_per_epoch,
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
    w = np.zeros(d)
    w_prev = w.copy()
    t_prev = 1.0
    history = History()
    prev_obj: float | None = None
    converged = False
    diverged = False
    sampled_iter = 0
    anchor = w.copy()
    full_grad: np.ndarray | None = None
    rounds_done = 0  # completed stage-C rounds, the checkpoint cadence
    start_epoch = 0
    start_rnd = 0
    in_epoch = False  # resuming mid-epoch: skip the epoch header
    n_rounds = -(-iters_per_epoch // k)

    def capture(epoch: int, next_rnd: int, mid_epoch: bool) -> Checkpoint:
        return Checkpoint.capture(
            arrays={"w": w, "w_prev": w_prev, "anchor": anchor, "full_grad": full_grad},
            scalars={
                "epoch": epoch,
                "rnd": next_rnd,
                "in_epoch": mid_epoch,
                "t_prev": t_prev,
                "prev_obj": prev_obj,
                "sampled_iter": sampled_iter,
                "rounds_done": rounds_done,
            },
            rng=rng,
            history_len=len(history),
        )

    def repartition(new_nranks: int, lost_ranks) -> float:
        """Shrink to *new_nranks*: re-scatter rows, rebuild rank-sized state.

        Returns the words that must move to new owners — the lost ranks'
        row blocks (``local_size`` rows of X plus y) — charged by the loop
        as recovery traffic. Deterministic: ``partition_columns`` depends
        only on (m, P′), so every replay shrinks identically.
        """
        nonlocal nranks, data, workspaces, packed_bufs
        moved = float(
            (d + 1) * sum(data.partition.local_size(r) for r in lost_ranks)
        )
        nranks = new_nranks
        data = distribute_problem(problem, new_nranks)
        if workspaces is not None:
            workspaces = RankWorkspaces(
                new_nranks, d, mbar, parallel=backend.parallel_ranks
            )
            loop.workspace = workspaces
            packed_bufs = [np.empty(k * stride) for _ in range(new_nranks)]
        return moved

    def restore(ck: Checkpoint) -> None:
        nonlocal w, w_prev, t_prev, prev_obj, sampled_iter, anchor, full_grad
        nonlocal rounds_done, start_epoch, start_rnd, in_epoch, converged, diverged
        w = ck.array("w")
        w_prev = ck.array("w_prev")
        anchor = ck.array("anchor")
        full_grad = ck.get("full_grad")
        s = ck.scalars
        t_prev = s["t_prev"]
        prev_obj = s["prev_obj"]
        sampled_iter = s["sampled_iter"]
        rounds_done = s["rounds_done"]
        start_epoch = s["epoch"]
        start_rnd = s["rnd"]
        in_epoch = s["in_epoch"]
        converged = diverged = False
        ck.restore_rng(rng)
        # Replayed monitor points re-append; drop the rows past the
        # checkpoint so the history is not recorded twice.
        history.truncate(ck.history_len)
        # loop.comm_rounds is NOT restored: replayed collectives really
        # happen (and are really charged) a second time.

    def main_loop() -> None:
        nonlocal w, w_prev, t_prev, prev_obj, converged, diverged, sampled_iter
        nonlocal anchor, full_grad, rounds_done, in_epoch, start_rnd
        for epoch in range(start_epoch, epochs):
            if not in_epoch:
                anchor = w.copy()
                full_grad = (
                    loop.screened(
                        lambda: _epoch_anchor_gradient(
                            backend,
                            data,
                            anchor,
                            problem.m,
                            loss=resolved.loss if general else None,
                        ),
                        "anchor gradient allreduce",
                    )
                    if estimator is GradientEstimator.SVRG
                    else None
                )
                if restart_momentum:
                    t_prev = 1.0
                    w_prev = w.copy()
                start_rnd = 0
            in_epoch = False

            for rnd in range(start_rnd, n_rounds):
                block = min(k, iters_per_epoch - rnd * k)

                # ---- stages A+B: k local (H_p, R_p) blocks per rank ---- #
                # All sample sets are drawn before the per-rank map so the
                # rng stream is identical whether the ranks run serially or
                # in parallel (the map closures never touch the generator).
                idx_sets = [sample_indices(rng, problem.m, mbar) for _ in range(block)]
                round_anchor: np.ndarray | None = None
                if general:
                    # Model-anchored stages A+B: every block of this round
                    # shares one linearization point a = w (round start) —
                    # H_j and g_j are curvature/gradient of the loss at a,
                    # packed in the same [H_j | g_j] layout and stride, so
                    # stage C communicates exactly k(d² + d) words as before.
                    round_anchor = w.copy()
                    packed = [np.empty(0)] * nranks

                    def build_rank(p: int) -> float:
                        rank_data = data.ranks[p]
                        z_r, flops = rank_data.local_predictions(round_anchor)
                        if estimator is GradientEstimator.SVRG:
                            z_a, fl_a = rank_data.local_predictions(anchor)
                            flops += fl_a
                        else:
                            z_a = None
                        chunks: list[np.ndarray] = []
                        for idx in idx_sets:
                            H_p, g_p, fl = rank_data.model_block_contribution(
                                idx,
                                mbar,
                                d,
                                loss=resolved.loss,
                                z_round=z_r,
                                z_anchor=z_a,
                            )
                            chunks.append(H_p.ravel())
                            chunks.append(g_p)
                            flops += fl
                        packed[p] = np.concatenate(chunks)
                        return flops

                elif packed_bufs is not None:
                    # Workspace path: build each block directly inside the
                    # reused stage-C payload buffer — no per-iteration
                    # allocation, bit-identical payload values.
                    packed = [buf[: block * stride] for buf in packed_bufs]

                    def build_rank(p: int) -> float:
                        rank_data = data.ranks[p]
                        ws = workspaces[p]
                        buf = packed[p]
                        flops = 0.0
                        for j, idx in enumerate(idx_sets):
                            base = j * stride
                            H_out = buf[base : base + d * d].reshape(d, d)
                            R_out = buf[base + d * d : base + stride]
                            _, local_idx, fl = rank_data.sampled_hessian_contribution(
                                idx, mbar, d, workspace=ws, out=H_out
                            )
                            if estimator is GradientEstimator.PLAIN:
                                _, fl_r = rank_data.sampled_rhs_contribution(
                                    local_idx, mbar, d, workspace=ws, out=R_out
                                )
                            else:
                                R_out.fill(0.0)
                                fl_r = 0.0
                            flops += fl + fl_r
                        return flops

                else:
                    packed = [np.empty(0)] * nranks

                    def build_rank(p: int) -> float:
                        rank_data = data.ranks[p]
                        chunks: list[np.ndarray] = []
                        flops = 0.0
                        for idx in idx_sets:
                            H_p, local_idx, fl = rank_data.sampled_hessian_contribution(
                                idx, mbar, d
                            )
                            if estimator is GradientEstimator.PLAIN:
                                R_p, fl_r = rank_data.sampled_rhs_contribution(
                                    local_idx, mbar, d
                                )
                            else:
                                R_p, fl_r = np.zeros(d), 0.0
                            chunks.append(H_p.ravel())
                            chunks.append(R_p)
                            flops += fl + fl_r
                        packed[p] = np.concatenate(chunks)
                        return flops

                per_rank_flops = np.asarray(backend.map_ranks(build_rank, nranks))
                backend.compute(per_rank_flops, label="hessian_blocks")

                # ---- stage C: ONE allreduce of k(d² + d) words --------- #
                combined = loop.allreduce(packed, label="allreduce_G")

                # ---- stage D: k × S replicated local updates ----------- #
                stop_now = False
                for j in range(block):
                    base = j * stride
                    H = combined[base : base + d * d].reshape(d, d)
                    if general:
                        # step_dir = Hu − R = H(u − a) + g_S(a) [+ SVRG
                        # correction] — reduces exactly to the legacy
                        # formulas below for the squared loss.
                        R = H @ round_anchor - combined[base + d * d : base + stride]
                        if estimator is not GradientEstimator.PLAIN:
                            R = R - full_grad  # type: ignore[operator]
                        backend.compute(2.0 * d * d, label="model_rhs")
                    elif estimator is GradientEstimator.PLAIN:
                        R = combined[base + d * d : base + stride]
                    else:
                        R = H @ anchor - full_grad  # type: ignore[operator]
                        backend.compute(2.0 * d * d, label="svrg_rhs")
                    t_cur = t_next(t_prev)
                    mu = momentum_mu(t_prev, t_cur)
                    v = w + mu * (w - w_prev)
                    u = hessian_reuse_update(
                        H, R, v, gamma=gamma, thresh=thresh, S=S, eps_reg=eps_reg,
                        prox=resolved.penalty.prox if general else None,
                    )
                    for _s in range(S):  # Eqs. (20)-(23): S prox steps on the model
                        backend.compute(UPDATE_FLOPS(d), label="update")
                    w_prev, w = w, u
                    t_prev = t_cur
                    sampled_iter += 1

                    iter_obj: float | None = None
                    if sampled_iter % monitor_every == 0 or (
                        epoch == epochs - 1 and rnd == n_rounds - 1 and j == block - 1
                    ):
                        obj = view.value(w)  # out of band
                        # An iterate gone non-finite cannot be fixed by
                        # re-communicating — recompute degrades to rollback.
                        loop.screen_objective(obj)
                        history.append(
                            sampled_iter,
                            obj,
                            stopping.rel_error(obj),
                            sim_time=backend.elapsed,
                            comm_round=loop.comm_rounds,
                        )
                        iter_obj = obj
                        if not np.isfinite(obj):
                            diverged = True
                            stop_now = True
                        elif stopping.satisfied(obj, prev_obj):
                            converged = True
                            stop_now = True
                        else:
                            if config.adaptive_restart and prev_obj is not None and obj > prev_obj:
                                t_prev = 1.0
                                w_prev = w.copy()
                                loop.stats.momentum_restarts += 1
                            prev_obj = obj
                    loop.emit(outer=epoch, inner=sampled_iter, objective=iter_obj)
                    if stop_now:
                        break
                rounds_done += 1
                if stop_now:
                    return
                if config.checkpoint_every and rounds_done % config.checkpoint_every == 0:
                    loop.commit_checkpoint(capture(epoch, rnd + 1, mid_epoch=True))
            if converged or diverged:
                return

    # The free initial checkpoint (capture=) means recovery without
    # periodic checkpoints restarts from scratch — nothing has moved,
    # nothing is charged.
    try:
        loop.run(
            main_loop,
            capture=lambda: capture(0, 0, mid_epoch=False),
            restore=restore,
            repartition=repartition,
        )
    finally:
        # Real-parallelism backends hold worker processes / thread pools;
        # their cost ledgers survive close, so cost_summary() below and
        # the trace remain valid.
        backend.close()

    loop.finish(
        {
            "converged": converged,
            "diverged": diverged,
            "n_iterations": sampled_iter,
            "n_comm_rounds": loop.comm_rounds,
        }
    )

    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=sampled_iter,
        history=history,
        n_comm_rounds=loop.comm_rounds,
        cost=backend.cost_summary(),
        meta={
            "solver": "rc_sfista_distributed",
            "diverged": diverged,
            "k": k,
            "S": S,
            "b": b,
            "mbar": mbar,
            "estimator": estimator.value,
            "step_size": gamma,
            "loss": resolved.loss.name,
            "penalty": resolved.penalty.spec,
            "nranks": nranks,
            "machine": backend.machine_name,
            "allreduce_algorithm": backend.allreduce_algorithm,
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
