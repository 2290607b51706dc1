"""One entry point per table/figure of the paper's evaluation (§5).

Every function returns a structured dict (series/rows plus metadata) so
the benchmark harness can both print the paper-shaped output and assert
the qualitative claims. ``quick=True`` shrinks datasets and iteration
budgets for the test-suite; default settings are the container-scale
reproduction reported in EXPERIMENTS.md.

Figure/table map (see DESIGN.md §3): 2a sampling rate, 2b overlap
invariance, 3 Hessian-reuse convergence, 4 speedup vs k, 5 speedup vs S,
6 ProxCoCoA convergence, 7 PN inner solvers, tables 1–3.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.objectives import L1LeastSquares
from repro.core.proxcocoa import proxcocoa
from repro.core.rc_sfista import rc_sfista
from repro.core.sfista import sfista
from repro.core.fista import fista
from repro.core.stopping import StoppingCriterion
from repro.core.sfista_dist import sfista_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.datasets import DATASETS, dataset_table, get_dataset
from repro.distsim.collectives import ceil_log2
from repro.perf.bounds import k_bound_latency_bandwidth
from repro.perf.model import rc_sfista_costs, sfista_costs
from repro.runtime import RuntimeConfig
from repro.experiments.runner import (
    ProblemStats,
    dry_run_pn_inner,
    dry_run_rc_sfista,
    iterations_to_tolerance,
    reference_value,
    speedup_cell,
)

__all__ = [
    "fig2a_sampling_rate",
    "fig2b_overlap_convergence",
    "fig3_hessian_reuse",
    "fig4_speedup_vs_k",
    "fig5_speedup_vs_S",
    "fig6_proxcocoa_convergence",
    "fig7_pn_inner_solver",
    "table1_costs",
    "table2_datasets",
    "table3_proxcocoa_speedup",
]

# The four datasets the paper's §5.3–5.5 figures sweep.
FIGURE_DATASETS = ("susy", "covtype", "mnist", "epsilon")
MACHINE = "comet_effective"


def _problem(name: str, quick: bool) -> L1LeastSquares:
    return get_dataset(name, size="tiny" if quick else "scaled").problem()


# ---------------------------------------------------------------------- #
# Figure 2a — effect of the sampling rate b on convergence
# ---------------------------------------------------------------------- #
def fig2a_sampling_rate(
    *,
    dataset: str = "mnist",
    bs: tuple[float, ...] = (1.0, 0.5, 0.1, 0.05, 0.01),
    n_iters: int = 300,
    quick: bool = False,
    seed: int = 0,
) -> dict[str, Any]:
    """Relative objective error vs iteration for several sampling rates b.

    Paper claim: with variance reduction the convergence for small b is
    "almost identical" to FISTA (b=1) while the per-iteration flops shrink
    by 1/b.
    """
    problem = _problem(dataset, quick)
    if quick:
        n_iters = min(n_iters, 60)
    fstar = reference_value(problem)
    stop = StoppingCriterion(tol=1e-12, fstar=fstar)  # never fires; monitors rel error
    series: dict[str, tuple[list[int], list[float]]] = {}
    ref_run = fista(problem, max_iter=n_iters, stopping=stop)
    series["fista"] = (list(ref_run.history.iterations), list(ref_run.history.rel_errors))
    iters_per_epoch = min(50, n_iters)
    epochs = -(-n_iters // iters_per_epoch)
    for b in bs:
        run = sfista(
            problem, b=b, estimator="svrg", epochs=epochs,
            iters_per_epoch=iters_per_epoch, seed=seed, stopping=stop,
            restart_momentum=False,
        )
        series[f"b={b:g}"] = (list(run.history.iterations), list(run.history.rel_errors))
    return {"figure": "2a", "dataset": dataset, "fstar": fstar, "series": series}


# ---------------------------------------------------------------------- #
# Figure 2b — k does not change convergence (exact-arithmetic invariance)
# ---------------------------------------------------------------------- #
def fig2b_overlap_convergence(
    *,
    dataset: str = "mnist",
    ks: tuple[int, ...] = (1, 2, 4, 8, 32, 128),
    n_iters: int = 256,
    b: float = 0.1,
    quick: bool = False,
    seed: int = 0,
) -> dict[str, Any]:
    """RC-SFISTA curves for several k with the same seed — identical.

    The returned ``max_deviation`` quantifies numerical-stability of the
    overlap (paper: tested stable up to k = 128).
    """
    problem = _problem(dataset, quick)
    if quick:
        n_iters = min(n_iters, 64)
        ks = tuple(k for k in ks if k <= n_iters)
    fstar = reference_value(problem)
    stop = StoppingCriterion(tol=1e-12, fstar=fstar)
    series: dict[str, tuple[list[int], list[float]]] = {}
    finals: list[np.ndarray] = []
    iters_per_epoch = min(64, n_iters)
    epochs = -(-n_iters // iters_per_epoch)
    for k in ks:
        run = rc_sfista(
            problem, k=k, S=1, b=b, epochs=epochs, iters_per_epoch=iters_per_epoch,
            seed=seed, stopping=stop, restart_momentum=False,
        )
        series[f"k={k}"] = (list(run.history.iterations), list(run.history.rel_errors))
        finals.append(run.w)
    max_dev = max(
        (float(np.max(np.abs(fin - finals[0]))) for fin in finals[1:]), default=0.0
    )
    return {
        "figure": "2b",
        "dataset": dataset,
        "series": series,
        "max_deviation": max_dev,
        "ks": list(ks),
    }


# ---------------------------------------------------------------------- #
# Figure 3 — effect of the Hessian-reuse parameter S
# ---------------------------------------------------------------------- #
def fig3_hessian_reuse(
    *,
    datasets: tuple[str, ...] = FIGURE_DATASETS,
    Ss: tuple[int, ...] = (1, 2, 5, 10),
    n_rounds: int = 150,
    k: int = 1,
    b: float = 0.05,
    quick: bool = False,
    seed: int = 0,
) -> dict[str, Any]:
    """Relative objective error vs *communication round* for several S.

    Paper claim: small S improves convergence per round; S=10 over-solves
    the subproblem and degrades.
    """
    if quick:
        datasets = datasets[:2]
        n_rounds = min(n_rounds, 40)
    results: dict[str, dict[str, tuple[list[int], list[float]]]] = {}
    for name in datasets:
        problem = _problem(name, quick)
        fstar = reference_value(problem)
        stop = StoppingCriterion(tol=1e-12, fstar=fstar)
        series: dict[str, tuple[list[int], list[float]]] = {}
        iters_per_epoch = min(50, n_rounds * k)
        epochs = -(-(n_rounds * k) // iters_per_epoch)
        for S in Ss:
            run = rc_sfista(
                problem, k=k, S=S, b=b, epochs=epochs, iters_per_epoch=iters_per_epoch,
                seed=seed, stopping=stop, restart_momentum=False,
            )
            rounds = [
                -(-it // k) for it in run.history.iterations
            ]  # sampled iteration → round
            series[f"S={S}"] = (rounds, list(run.history.rel_errors))
        results[name] = series
    return {"figure": "3", "series_by_dataset": results, "Ss": list(Ss)}


# ---------------------------------------------------------------------- #
# Figure 4 — speedup of RC-SFISTA over SFISTA vs k, for several P
# ---------------------------------------------------------------------- #
def fig4_speedup_vs_k(
    *,
    datasets: tuple[str, ...] = FIGURE_DATASETS,
    ks: tuple[int, ...] = (1, 2, 4, 8, 16),
    nranks: tuple[int, ...] = (16, 64, 256),
    tol: float = 0.01,
    b: float = 0.01,
    machine: str = MACHINE,
    quick: bool = False,
    seed: int = 0,
) -> dict[str, Any]:
    """Speedup grid (dataset × P × k) with S = 1 — the Fig. 4 sweep."""
    if quick:
        datasets = datasets[:2]
        ks = ks[:3]
        nranks = nranks[:2]
    rows: list[dict[str, Any]] = []
    for name in datasets:
        problem = _problem(name, quick)
        fstar = reference_value(problem)
        for P in nranks:
            for k in ks:
                cell = speedup_cell(
                    problem, nranks=P, machine=machine, tol=tol, k=k, S=1, b=b,
                    seed=seed, fstar=fstar,
                )
                cell["dataset"] = name
                rows.append(cell)
    return {"figure": "4", "rows": rows, "machine": machine, "tol": tol}


# ---------------------------------------------------------------------- #
# Figure 5 — speedup vs S on 256 processors
# ---------------------------------------------------------------------- #
def fig5_speedup_vs_S(
    *,
    datasets: tuple[str, ...] = FIGURE_DATASETS,
    Ss: tuple[int, ...] = (1, 2, 5, 10),
    nranks: int = 256,
    tol: float = 0.01,
    b: float = 0.05,
    machine: str = MACHINE,
    quick: bool = False,
    seed: int = 0,
) -> dict[str, Any]:
    """Speedup of RC-SFISTA(k tuned, S) over SFISTA on 256 ranks (Fig. 5)."""
    if quick:
        datasets = datasets[:2]
        Ss = Ss[:3]
        nranks = 32
    rows: list[dict[str, Any]] = []
    for name in datasets:
        problem = _problem(name, quick)
        fstar = reference_value(problem)
        d = problem.d
        k = max(1, min(8, int(k_bound_latency_bandwidth(machine, d))))
        for S in Ss:
            cell = speedup_cell(
                problem, nranks=nranks, machine=machine, tol=tol, k=k, S=S, b=b,
                seed=seed, fstar=fstar,
            )
            cell["dataset"] = name
            rows.append(cell)
    return {"figure": "5", "rows": rows, "machine": machine, "nranks": nranks, "tol": tol}


# ---------------------------------------------------------------------- #
# Figure 6 / Table 3 — RC-SFISTA vs ProxCoCoA
# ---------------------------------------------------------------------- #
def fig6_proxcocoa_convergence(
    *,
    datasets: tuple[str, ...] = FIGURE_DATASETS,
    nranks: int = 256,
    tol: float = 0.01,
    b: float = 0.01,
    machine: str = MACHINE,
    max_rounds: int = 200,
    local_epochs: int = 2,
    quick: bool = False,
    seed: int = 0,
) -> dict[str, Any]:
    """Relative objective error vs simulated wall-clock, both solvers.

    RC-SFISTA's curve comes from the serial trajectory mapped onto the
    dry-run round clock (trajectories are P-independent); ProxCoCoA runs
    honestly on the simulated cluster. Returns per-dataset series plus the
    Table 3 speedups (time-to-tol ratios).
    """
    if quick:
        datasets = datasets[:2]
        nranks = 32
        max_rounds = 60
    results: dict[str, Any] = {}
    speedups: dict[str, float] = {}
    for name in datasets:
        problem = _problem(name, quick)
        fstar = reference_value(problem)
        stats = ProblemStats.of(problem)
        stop = StoppingCriterion(tol=tol, fstar=fstar)

        # --- RC-SFISTA: serial trajectory + dry-run clock --------------- #
        k = max(1, min(8, int(k_bound_latency_bandwidth(machine, problem.d))))
        S = 2
        budget = max_rounds * k
        rc = iterations_to_tolerance(
            problem, tol=tol, fstar=fstar, k=k, S=S, b=b, seed=seed,
            epochs=max(1, budget // 100), iters_per_epoch=min(100, budget),
        )
        cluster = dry_run_rc_sfista(
            stats, nranks, machine,
            n_iterations=max(1, rc.n_iterations), mbar=rc.meta["mbar"], k=k, S=S,
            iters_per_epoch=min(100, budget),
        )
        # Uniform rounds on a deterministic machine → linear round clock.
        per_round = cluster.elapsed / max(1, rc.n_comm_rounds)
        rc_times = [per_round * r for r in rc.history.comm_rounds]
        rc_series = (rc_times, list(rc.history.rel_errors))

        # --- ProxCoCoA: honest distributed run -------------------------- #
        cc = proxcocoa(
            problem, nranks, machine=machine, n_rounds=max_rounds,
            local_epochs=local_epochs, stopping=stop, seed=seed,
        )
        cc_series = (list(cc.history.sim_times), list(cc.history.rel_errors))

        t_rc = rc_times[-1] if rc.converged else None
        t_cc = cc.history.time_to_tolerance(tol)
        # Speedup at the tightest tolerance BOTH solvers reached: when the
        # slower solver exhausts its round budget above `tol` (ProxCoCoA
        # routinely does — that is the point of Fig. 6), compare at its
        # best achieved error instead of reporting nothing.
        rc_errs = np.asarray(rc.history.rel_errors)
        cc_errs = np.asarray(cc.history.rel_errors)
        common = max(tol, float(np.nanmin(rc_errs)), float(np.nanmin(cc_errs)))
        rc_hits = np.flatnonzero(rc_errs <= common + 1e-15)
        cc_hits = np.flatnonzero(cc_errs <= common + 1e-15)
        if rc_hits.size and cc_hits.size:
            speedup = cc.history.sim_times[int(cc_hits[0])] / max(
                rc_times[int(rc_hits[0])], 1e-30
            )
        else:
            speedup = float("nan")
        results[name] = {
            "rc_sfista": rc_series,
            "proxcocoa": cc_series,
            "rc_converged": rc.converged,
            "cc_converged": cc.converged,
            "k": k,
            "S": S,
            "time_rc": t_rc,
            "time_cc": t_cc,
            "common_tolerance": common,
        }
        speedups[name] = speedup
    return {
        "figure": "6",
        "series_by_dataset": results,
        "table3_speedups": speedups,
        "nranks": nranks,
        "machine": machine,
        "tol": tol,
    }


def table3_proxcocoa_speedup(**kwargs: Any) -> dict[str, Any]:
    """Table 3 — speedup of RC-SFISTA over ProxCoCoA (time-to-tol ratio)."""
    out = fig6_proxcocoa_convergence(**kwargs)
    paper = {"susy": 1.57, "covtype": 4.74, "mnist": 12.15, "epsilon": 3.53}
    rows = [
        {
            "dataset": name,
            "paper_speedup": paper.get(name, float("nan")),
            "measured_speedup": s,
        }
        for name, s in out["table3_speedups"].items()
    ]
    return {"table": "3", "rows": rows, "source": out}


# ---------------------------------------------------------------------- #
# Figure 7 — PN with RC-SFISTA vs FISTA inner solver, 512 processors
# ---------------------------------------------------------------------- #
def fig7_pn_inner_solver(
    *,
    datasets: tuple[str, ...] = FIGURE_DATASETS,
    ks: tuple[int, ...] = (1, 2, 4, 8, 16),
    nranks: int = 512,
    n_outer: int = 5,
    inner_iters: int = 64,
    S: int = 1,
    b: float = 0.01,
    machine: str = MACHINE,
    quick: bool = False,
) -> dict[str, Any]:
    """Speedup of PN(RC-SFISTA inner, k) over PN(FISTA inner) vs k.

    Both variants execute identical outer/inner iteration budgets (the
    paper tunes both; equal budgets isolate the communication effect the
    figure demonstrates). Times come from the dry-run cost schedules.
    """
    if quick:
        datasets = datasets[:2]
        ks = ks[:3]
        nranks = 32
        inner_iters = 16
    rows: list[dict[str, Any]] = []
    for name in datasets:
        problem = _problem(name, quick)
        stats = ProblemStats.of(problem)
        mbar = max(1, int(b * problem.m))
        base = dry_run_pn_inner(
            stats, nranks, machine, inner="fista", n_outer=n_outer,
            inner_iters=inner_iters, mbar=mbar,
        )
        for k in ks:
            rc = dry_run_pn_inner(
                stats, nranks, machine, inner="rc_sfista", n_outer=n_outer,
                inner_iters=inner_iters, mbar=mbar, k=k, S=S,
            )
            rows.append(
                {
                    "dataset": name,
                    "k": k,
                    "time_pn_fista": base.elapsed,
                    "time_pn_rc": rc.elapsed,
                    "speedup": base.elapsed / rc.elapsed if rc.elapsed > 0 else float("inf"),
                }
            )
    return {"figure": "7", "rows": rows, "nranks": nranks, "machine": machine}


# ---------------------------------------------------------------------- #
# Table 1 — model vs measured cost counters
# ---------------------------------------------------------------------- #
def table1_costs(
    *,
    dataset: str = "covtype",
    nranks: int = 8,
    n_iters: int = 24,
    k: int = 4,
    S: int = 2,
    b: float = 0.1,
    machine: str = MACHINE,
    quick: bool = False,
    seed: int = 0,
) -> dict[str, Any]:
    """Run both distributed solvers and compare L/F/W with the Table 1 model.

    Latency (messages) and bandwidth (words) must match the closed forms
    *exactly*; flops match in expectation (the model charges expected
    sampled-column fill).
    """
    problem = _problem(dataset, quick)
    mbar = max(1, int(b * problem.m))
    stats = ProblemStats.of(problem)
    f = stats.density
    d = problem.d

    runtime = RuntimeConfig(machine=machine)
    sf = sfista_distributed(
        problem, nranks, b=b, iters_per_epoch=n_iters,
        estimator="plain", seed=seed, monitor_every=n_iters, runtime=runtime,
    )
    rc = rc_sfista_distributed(
        problem, nranks, k=k, S=S, b=b, iters_per_epoch=n_iters,
        estimator="plain", seed=seed, monitor_every=n_iters, runtime=runtime,
    )
    model_sf = sfista_costs(n_iters, d, mbar, f, nranks)
    model_rc = rc_sfista_costs(n_iters, d, mbar, f, nranks, k, S)
    rows = []
    for label, run, model in (("SFISTA", sf, model_sf), ("RC-SFISTA", rc, model_rc)):
        rows.append(
            {
                "algorithm": label,
                "L_measured": run.cost["messages_per_rank_max"],
                "L_model": model.latency,
                "W_measured": run.cost["words_per_rank_max"],
                "W_model": model.bandwidth,
                "F_measured": run.cost["flops_per_rank_max"],
                "F_model": model.flops,
            }
        )
    return {
        "table": "1",
        "rows": rows,
        "params": {
            "dataset": dataset, "P": nranks, "N": n_iters, "k": k, "S": S,
            "d": d, "mbar": mbar, "f": f, "logP": ceil_log2(nranks),
        },
    }


def table2_datasets(**kwargs: Any) -> dict[str, Any]:
    """Table 2 — the dataset registry (paper vs scaled shapes)."""
    return {"table": "2", "rows": dataset_table(**kwargs), "names": sorted(DATASETS)}
