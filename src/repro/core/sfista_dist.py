"""Distributed SFISTA baseline — one allreduce per iteration.

This is the algorithm RC-SFISTA is compared against in Figs. 4–5: identical
arithmetic, but the ``(H_n, R_n)`` blocks are allreduced every iteration,
so latency is paid ``N`` times (Table 1, SFISTA row).

Two communication modes:

* ``"hessian"`` (paper-faithful) — allreduce the ``d² + d`` words of
  ``[H_n | R_n]`` each iteration, matching Table 1's ``O(N d² log P)``
  bandwidth. Required by the PN framing where every rank needs ``H_n``.
* ``"gradient"`` (ablation, DESIGN.md choice #3) — each rank computes its
  local *gradient* contribution and only ``d`` words are allreduced. Not
  compatible with Hessian-reuse, but shows the design space.

Like every distributed solver the baseline runs on the unified
:mod:`repro.runtime`: pass ``runtime=RuntimeConfig(...)`` to get fault
injection, checkpoint/rollback recovery, NaN screening, telemetry and
metrics — the same resilience surface as
:func:`repro.core.rc_sfista_dist.rc_sfista_distributed`, so the paper
comparison stays apples-to-apples under failures too.
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
from repro.core.proximal import soft_threshold
from repro.core.results import History, SolveResult
from repro.core.sfista import GradientEstimator, stochastic_step_size
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.runtime import Checkpoint, ResilientLoop, RuntimeConfig, build_host_backend
from repro.runtime.backend import ExecutionBackend
from repro.sparse.ops import _select_columns_dense
from repro.utils.rng import RandomState, as_generator, minibatch_size, sample_indices
from repro.utils.validation import check_positive

__all__ = ["sfista_distributed"]


def _epoch_anchor_gradient(
    backend: ExecutionBackend, data, w: np.ndarray, m: int, *, loss=None
) -> np.ndarray:
    """SVRG anchor gradient: local contributions + one d-word allreduce.

    The per-rank contributions go through ``backend.map_ranks`` so a
    real-parallelism backend computes them concurrently; each closure
    touches only its own rank's data, keeping results bit-identical to
    the serial sweep. ``loss=None`` is the legacy squared-loss sweep
    (kept verbatim); a :class:`~repro.core.model.SmoothLoss` computes
    ``(1/m) X ℓ'(Xᵀw, y)`` instead, with identical labels and payload.
    """
    if loss is None:
        def contribution(p: int):
            return data.ranks[p].full_gradient_contribution(w, m)
    else:
        def contribution(p: int):
            return data.ranks[p].loss_gradient_contribution(w, m, loss)
    results = backend.map_ranks(contribution, data.nranks)
    backend.compute([fl for _g, fl in results], label="anchor_gradient")
    return backend.allreduce([g for g, _fl in results], label="allreduce_anchor_grad")


def sfista_distributed(
    problem: ERMObjective,
    nranks: int,
    *,
    b: float = 0.1,
    step_size: float | None = None,
    epochs: int = 1,
    iters_per_epoch: int = 100,
    estimator: GradientEstimator | str = GradientEstimator.SVRG,
    comm_mode: str = "hessian",
    seed: RandomState = 0,
    stopping: StoppingCriterion | None = None,
    monitor_every: int = 1,
    restart_momentum: bool = True,
    runtime: RuntimeConfig | None = None,
) -> SolveResult:
    """Distributed SFISTA on the simulated cluster.

    Returns a :class:`SolveResult` whose ``history`` carries simulated
    times per checkpoint and whose ``cost`` holds the cluster counters
    (critical-path messages/words per rank — the L and W of Table 1).
    Objective monitoring is out of band (not charged).

    ``comm_mode`` picks the *algorithm* (what is reduced: Hessian blocks
    or gradients); the collective payload *encoding* (dense/sparse/auto)
    comes from ``runtime=RuntimeConfig(comm=...)`` and defaults to dense.

    Runtime
    -------
    runtime:
        A :class:`~repro.runtime.RuntimeConfig` bundling machine/comm
        selection, fault injection, retry, checkpointing (every
        ``checkpoint_every`` communication rounds), ``on_nan`` screening,
        ``adaptive_restart``, telemetry and metrics; ``None`` uses the
        defaults.
    """
    estimator = GradientEstimator(estimator)
    config = runtime if runtime is not None else RuntimeConfig()
    if comm_mode not in ("hessian", "gradient"):
        raise ValidationError(f"comm_mode must be 'hessian' or 'gradient', got {comm_mode!r}")
    if estimator is GradientEstimator.EXACT:
        raise ValidationError("distributed SFISTA requires a sampled estimator (plain or svrg)")
    if epochs < 1 or iters_per_epoch < 1:
        raise ValidationError("epochs and iters_per_epoch must be >= 1")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    stopping = stopping or StoppingCriterion()
    # Legacy squared+l1 keeps the historical byte-identical branches; any
    # other loss/penalty takes the model-anchored general path with the
    # same payload layout (see rc_sfista_dist).
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

    data = distribute_problem(problem, nranks)
    backend = build_host_backend(config, nranks)
    loop = ResilientLoop(backend, config, solver="sfista_distributed")
    loop.step_size = gamma
    stride = d * d + d
    # Reusable scratch (bit-identical to the allocating path): the Gram
    # workspaces (shared, or one per rank under a parallel map) plus one
    # [H_p | R_p] payload buffer per rank. The general path builds
    # curvature-weighted blocks and has no workspace variant.
    workspaces = (
        RankWorkspaces(nranks, d, mbar, parallel=backend.parallel_ranks)
        if not general
        else None
    )
    loop.workspace = workspaces
    hr_bufs = [np.empty(stride) for _ in range(nranks)] if workspaces is not None else None
    loop.start(
        {
            "nranks": nranks,
            "b": b,
            "mbar": mbar,
            "epochs": epochs,
            "iters_per_epoch": iters_per_epoch,
            "estimator": estimator.value,
            "comm_mode": comm_mode,
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
    total_iter = 0
    anchor = w.copy()
    full_grad: np.ndarray | None = None
    rounds_done = 0  # completed allreduce rounds, the checkpoint cadence
    start_epoch = 0
    start_n = 0
    in_epoch = False  # resuming mid-epoch: skip the epoch header

    def capture(epoch: int, next_n: int, mid_epoch: bool) -> Checkpoint:
        return Checkpoint.capture(
            arrays={"w": w, "w_prev": w_prev, "anchor": anchor, "full_grad": full_grad},
            scalars={
                "epoch": epoch,
                "n": next_n,
                "in_epoch": mid_epoch,
                "t_prev": t_prev,
                "prev_obj": prev_obj,
                "total_iter": total_iter,
                "rounds_done": rounds_done,
            },
            rng=rng,
            history_len=len(history),
        )

    def repartition(new_nranks: int, lost_ranks) -> float:
        """Shrink to *new_nranks* after an elastic pool loss (see driver).

        Returns the lost ranks' row-block words (rows of X plus y) that
        must travel to their new owners, charged as recovery traffic.
        """
        nonlocal nranks, data, workspaces, hr_bufs
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
            hr_bufs = [np.empty(stride) for _ in range(new_nranks)]
        return moved

    def restore(ck: Checkpoint) -> None:
        nonlocal w, w_prev, t_prev, prev_obj, total_iter, anchor, full_grad
        nonlocal rounds_done, start_epoch, start_n, in_epoch, converged, diverged
        w = ck.array("w")
        w_prev = ck.array("w_prev")
        anchor = ck.array("anchor")
        full_grad = ck.get("full_grad")
        s = ck.scalars
        t_prev = s["t_prev"]
        prev_obj = s["prev_obj"]
        total_iter = s["total_iter"]
        rounds_done = s["rounds_done"]
        start_epoch = s["epoch"]
        start_n = s["n"]
        in_epoch = s["in_epoch"]
        converged = diverged = False
        ck.restore_rng(rng)
        history.truncate(ck.history_len)

    def main_loop() -> None:
        nonlocal w, w_prev, t_prev, prev_obj, converged, diverged, total_iter
        nonlocal anchor, full_grad, rounds_done, in_epoch, start_n
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
                start_n = 0
            in_epoch = False

            for _n in range(start_n, iters_per_epoch):
                total_iter += 1
                idx = sample_indices(rng, problem.m, mbar)

                t_cur = t_next(t_prev)
                mu = momentum_mu(t_prev, t_cur)
                v = w + mu * (w - w_prev)

                if comm_mode == "hessian" and general:
                    # General path: one [H | g] block linearized at the
                    # momentum point v — same d² + d words as the legacy
                    # payload. step_dir = Hv − R below collapses to the
                    # sampled loss gradient at v (the H transport is the
                    # paper-faithful PN framing: every rank receives H).
                    def build_rank(p: int) -> tuple[np.ndarray, float]:
                        rank_data = data.ranks[p]
                        z_v, fl_z = rank_data.local_predictions(v)
                        if estimator is GradientEstimator.SVRG:
                            z_a, fl_a = rank_data.local_predictions(anchor)
                        else:
                            z_a, fl_a = None, 0.0
                        H_p, g_p, fl = rank_data.model_block_contribution(
                            idx, mbar, d, loss=resolved.loss, z_round=z_v, z_anchor=z_a
                        )
                        return np.concatenate([H_p.ravel(), g_p]), fl_z + fl_a + fl

                    results = backend.map_ranks(build_rank, nranks)
                    packed = [buf for buf, _fl in results]
                    backend.compute([fl for _buf, fl in results], label="hessian_blocks")
                    combined = loop.allreduce(packed, label="allreduce_HR")
                    H = combined[: d * d].reshape(d, d)
                    R = H @ v - combined[d * d :]
                    if estimator is not GradientEstimator.PLAIN:
                        R = R - full_grad  # type: ignore[operator]
                    backend.compute(2.0 * d * d, label="model_rhs")
                    w_new = hessian_reuse_update(
                        H, R, v, gamma=gamma, prox=resolved.penalty.prox
                    )
                    backend.compute(UPDATE_FLOPS(d), label="update")
                elif comm_mode == "hessian":
                    # Stages A+B: local sampled Gram blocks, one closure
                    # per rank (parallel on backends that map ranks for
                    # real; each touches only its own buffers/workspace).
                    def build_rank(p: int) -> tuple[np.ndarray, float]:
                        rank_data = data.ranks[p]
                        if hr_bufs is not None:
                            buf = hr_bufs[p]
                            ws = workspaces[p]
                            H_out = buf[: d * d].reshape(d, d)
                            R_out = buf[d * d :]
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
                            return buf, fl + fl_r
                        H_p, local_idx, fl = rank_data.sampled_hessian_contribution(
                            idx, mbar, d
                        )
                        if estimator is GradientEstimator.PLAIN:
                            R_p, fl_r = rank_data.sampled_rhs_contribution(
                                local_idx, mbar, d
                            )
                        else:
                            R_p, fl_r = np.zeros(d), 0.0
                        return np.concatenate([H_p.ravel(), R_p]), fl + fl_r

                    results = backend.map_ranks(build_rank, nranks)
                    packed = [buf for buf, _fl in results]
                    backend.compute([fl for _buf, fl in results], label="hessian_blocks")
                    # Stage C: one allreduce of d² + d words.
                    combined = loop.allreduce(packed, label="allreduce_HR")
                    H = combined[: d * d].reshape(d, d)
                    if estimator is GradientEstimator.PLAIN:
                        R = combined[d * d :]
                    else:  # svrg: R = Hŵ − ∇f(ŵ), replicated arithmetic
                        R = H @ anchor - full_grad  # type: ignore[operator]
                        backend.compute(2.0 * d * d, label="svrg_rhs")
                    w_new = hessian_reuse_update(H, R, v, gamma=gamma, thresh=thresh)
                    backend.compute(UPDATE_FLOPS(d), label="update")
                else:
                    # Gradient mode: local sampled-gradient contributions.
                    def gradient_rank(p: int) -> tuple[np.ndarray, float]:
                        rank_data = data.ranks[p]
                        local_idx = rank_data._restrict(idx)
                        if local_idx.size == 0:
                            return np.zeros(d), 0.0
                        if workspaces is not None:
                            A = _select_columns_dense(
                                rank_data.X_local, local_idx, workspaces[p]
                            )
                        elif isinstance(rank_data.X_local, np.ndarray):
                            A = rank_data.X_local[:, local_idx]
                        else:
                            A = rank_data.X_local.select_columns(local_idx).to_dense()
                        if general:
                            ys = rank_data.y_local[local_idx]
                            gvec = resolved.loss.grad(A.T @ v, ys)
                            extra = 0.0
                            if estimator is GradientEstimator.SVRG:
                                gvec = gvec - resolved.loss.grad(A.T @ anchor, ys)
                                extra = float(2 * A.shape[0] * A.shape[1])
                            g_p = A @ gvec / mbar
                            return g_p, float(4 * A.shape[0] * A.shape[1]) + extra
                        if estimator is GradientEstimator.PLAIN:
                            g_p = A @ (A.T @ v - rank_data.y_local[local_idx]) / mbar
                        else:
                            g_p = A @ (A.T @ (v - anchor)) / mbar
                        return g_p, float(4 * A.shape[0] * A.shape[1])

                    results = backend.map_ranks(gradient_rank, nranks)
                    backend.compute([fl for _g, fl in results], label="gradient_blocks")
                    g = loop.allreduce([g_p for g_p, _fl in results], label="allreduce_grad")
                    if estimator is GradientEstimator.SVRG:
                        g = g + full_grad  # type: ignore[operator]
                    backend.compute(8.0 * d, label="update")
                    if general:
                        w_new = resolved.penalty.prox(v - gamma * g, gamma)
                    else:
                        w_new = soft_threshold(v - gamma * g, thresh)

                w_prev, w = w, w_new
                t_prev = t_cur

                iter_obj: float | None = None
                if total_iter % monitor_every == 0 or (
                    epoch == epochs - 1 and _n == iters_per_epoch - 1
                ):
                    obj = view.value(w)  # out of band
                    loop.screen_objective(obj)
                    history.append(
                        total_iter,
                        obj,
                        stopping.rel_error(obj),
                        sim_time=backend.elapsed,
                        comm_round=loop.comm_rounds,
                    )
                    iter_obj = obj
                    if not np.isfinite(obj):
                        diverged = True
                    elif stopping.satisfied(obj, prev_obj):
                        converged = True
                    else:
                        if config.adaptive_restart and prev_obj is not None and obj > prev_obj:
                            t_prev = 1.0
                            w_prev = w.copy()
                            loop.stats.momentum_restarts += 1
                        prev_obj = obj
                loop.emit(outer=epoch, inner=total_iter, objective=iter_obj)
                rounds_done += 1
                if converged or diverged:
                    return
                if config.checkpoint_every and rounds_done % config.checkpoint_every == 0:
                    loop.commit_checkpoint(capture(epoch, _n + 1, mid_epoch=True))
            if converged or diverged:
                return

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
            "n_iterations": total_iter,
            "n_comm_rounds": loop.comm_rounds,
        }
    )

    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=total_iter,
        history=history,
        n_comm_rounds=loop.comm_rounds,
        cost=backend.cost_summary(),
        meta={
            "solver": "sfista_distributed",
            "diverged": diverged,
            "b": b,
            "mbar": mbar,
            "estimator": estimator.value,
            "comm_mode": comm_mode,
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
