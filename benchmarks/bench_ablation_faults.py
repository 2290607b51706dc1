"""Ablation A11 — cost of fault tolerance in the α-β-γ model.

A rank crash mid-run forces a rollback: the cluster heals, rebroadcasts
the last checkpoint (``retry_words``) and replays every round since it.
The checkpoint interval trades steady-state overhead (periodic
``checkpoint_words`` gathers) against replay length after a failure; this
ablation sweeps that trade-off against the fault-free baseline and checks
the headline guarantee — the recovered solution is *bit-identical* to the
fault-free one, because checkpoints capture the sampling RNG state.
"""

import numpy as np

from benchmarks._common import QUICK, emit, run_once
from repro.core.objectives import L1LeastSquares
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.synthetic import make_regression
from repro.distsim.faults import FaultPlan, RankCrash
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig

NRANKS = 8
ITERS = 32 if QUICK else 128
MACHINE = "comet_paper"
SOLVER_KW = dict(
    k=2, S=1, b=0.2, epochs=1, iters_per_epoch=ITERS, estimator="plain", seed=0,
    monitor_every=8,
)


def _problem() -> L1LeastSquares:
    X, y, _w = make_regression(24, 400, density=1.0, noise=0.05, rng=5)
    lam = 0.05 * float(np.max(np.abs(X @ y))) / 400
    return L1LeastSquares(X, y, lam)


def _compute():
    problem = _problem()
    base = rc_sfista_distributed(
        problem, NRANKS, runtime=RuntimeConfig(machine=MACHINE), **SOLVER_KW
    )
    rows = [("fault-free", base, None)]
    # Crash rank 3 at 75% of the fault-free makespan: a late failure, the
    # regime where the checkpoint interval matters most.
    crash = FaultPlan(crashes=(RankCrash(rank=3, at_time=0.75 * base.sim_time),))
    for every in (0, 8, 2):
        name = "crash, restart from scratch" if every == 0 else f"crash, ckpt every {every}"
        runtime = RuntimeConfig(machine=MACHINE, faults=crash, checkpoint_every=every)
        res = rc_sfista_distributed(problem, NRANKS, runtime=runtime, **SOLVER_KW)
        rows.append((name, res, every))
    return base, rows


def test_ablation_faults(benchmark):
    base, rows = run_once(benchmark, _compute)
    table = []
    for name, res, _every in rows:
        overhead = res.sim_time / base.sim_time - 1.0
        table.append([
            name,
            f"{res.sim_time:.4g}",
            f"{100 * overhead:.1f}%",
            f"{res.cost['checkpoint_words_total']:.0f}",
            f"{res.cost['retry_words_total']:.0f}",
            res.meta.get("resilience", {}).get("rollbacks", 0),
        ])
    emit(
        "ablation_faults",
        format_table(
            ["config", "sim time", "overhead", "ckpt words", "retry words", "rollbacks"],
            table,
            title=f"A11 — recovery overhead (P={NRANKS}, N={ITERS}, crash at 75%)",
        ),
    )

    faulty = [(name, res) for name, res, every in rows if every is not None]
    # exact recovery: every faulty config ends at the fault-free solution
    for name, res in faulty:
        assert np.array_equal(res.w, base.w), name
        assert res.meta["resilience"]["rank_failures_recovered"] == 1, name
        assert res.sim_time > base.sim_time, name
    by_every = {every: res for _name, res, every in rows if every is not None}
    # scratch restart replays the longest prefix — it must cost at least as
    # much wall-clock as recovering from a periodic checkpoint, and ships
    # no checkpoint traffic at all
    assert by_every[0].sim_time >= by_every[2].sim_time
    assert by_every[0].cost["checkpoint_words_total"] == 0.0
    # tighter intervals ship more checkpoint words
    assert (
        by_every[2].cost["checkpoint_words_total"]
        > by_every[8].cost["checkpoint_words_total"]
        > 0.0
    )
    # recovery traffic (heal + rebroadcast) is charged in every faulty run
    assert all(res.cost["retry_words_total"] > 0 for _n, res in faulty)
