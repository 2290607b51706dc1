"""Ablation A10 — sparse-aware collectives (index+value allreduce).

Two sweeps, both on the α-β-γ model:

1. A microbenchmark sweeping the support density f of the reduced vector at
   fixed n and P. The index+value encoding moves ``min(2·nnz, n)`` words, so
   words scale linearly with nnz until the stream-and-switch threshold
   (f = 0.5), where the collective densifies and the sparse line rejoins the
   dense one — the crossover this ablation exists to show.

2. A solver-level run of RC-SFISTA on a low-fill problem under
   ``comm ∈ {dense, sparse, auto}``: iterates are bit-identical across modes
   while the sparse/auto modes move fewer words per rank.
"""

import numpy as np

from benchmarks._common import JSON_MODE, OUTPUT_DIR, QUICK, emit, emit_json, run_once
from repro.core.objectives import L1LeastSquares
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.synthetic import make_regression
from repro.distsim.bsp import BSPCluster
from repro.distsim.collectives import allreduce_cost, sparse_allreduce_cost
from repro.distsim.machine import get_machine
from repro.obs import MetricsRegistry, TelemetryRecorder, write_chrome_trace
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig

SMOKE_SCHEMA = "repro.obs/bench_smoke@1"

N = 4096
P = 64
DENSITIES = (0.005, 0.01, 0.05, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0)


def _sweep_density():
    """words/rank for dense vs sparse allreduce as support density grows."""
    machine = get_machine("comet_effective")
    rows = []
    for f in DENSITIES:
        nnz = int(round(f * N))
        dense = allreduce_cost(machine, P, float(N))
        sparse = sparse_allreduce_cost(machine, P, float(N), float(nnz))
        # A real simulated collective must charge exactly what the formula says.
        cluster = BSPCluster(P, "comet_effective")
        cluster.charge_sparse_allreduce(N, nnz)
        assert cluster.counters[0].words == sparse.words
        rows.append([f, nnz, dense.words, sparse.words, sparse.words / dense.words])
    return rows


def _solve(comm: str):
    d, m = (48, 160) if QUICK else (96, 400)
    X, y, _w = make_regression(d, m, density=0.04, noise=0.05, rng=5)
    grad0 = X.matvec(y) / m if hasattr(X, "matvec") else X @ y / m
    problem = L1LeastSquares(X, y, 0.05 * float(np.max(np.abs(grad0))))
    recorder = TelemetryRecorder()
    registry = MetricsRegistry()
    res = rc_sfista_distributed(
        problem,
        8,
        k=2,
        S=2,
        b=0.1,
        epochs=1,
        iters_per_epoch=8 if QUICK else 16,
        estimator="plain",
        seed=0,
        monitor_every=4,
        runtime=RuntimeConfig(comm=comm, telemetry=recorder, metrics=registry),
    )
    return res, recorder, registry


def _compute():
    sweep = _sweep_density()
    solves, recorders = {}, {}
    for comm in ("dense", "sparse", "auto"):
        res, recorder, registry = _solve(comm)
        solves[comm] = res
        recorders[comm] = (recorder, registry)
    return sweep, solves, recorders


def test_ablation_sparse_comm(benchmark):
    sweep, solves, recorders = run_once(benchmark, _compute)

    sweep_rows = [
        [f"{f:g}", nnz, f"{dw:.0f}", f"{sw:.0f}", f"{ratio:.3f}"]
        for f, nnz, dw, sw, ratio in sweep
    ]
    solver_rows = [
        [
            comm,
            f"{res.cost['words_per_rank_max']:.0f}",
            f"{res.cost['saved_words_total']:.0f}",
            f"{float(np.linalg.norm(res.w)):.12g}",
        ]
        for comm, res in solves.items()
    ]
    emit(
        "ablation_sparse_comm",
        format_table(
            ["density f", "nnz", "dense words/rank", "sparse words/rank", "ratio"],
            sweep_rows,
            title=f"A10 — sparse allreduce word sweep (n={N}, P={P}, comet_effective)",
        )
        + "\n\n"
        + format_table(
            ["comm", "words/rank", "saved words (total)", "||w||"],
            solver_rows,
            title="A10 — RC-SFISTA solver under comm modes (P=8, low-fill problem)",
        ),
    )

    # Sparse never charges more words, saves below the switch, rejoins at it.
    by_f = {f: (dw, sw) for f, _nnz, dw, sw, _r in sweep}
    for f, (dw, sw) in by_f.items():
        assert sw <= dw
    assert by_f[0.005][1] < by_f[0.005][0]
    assert by_f[0.5][1] == by_f[0.5][0]
    assert by_f[1.0][1] == by_f[1.0][0]
    words = [sw for _f, _nnz, _dw, sw, _r in sweep]
    assert words == sorted(words)  # monotone in density

    # Solver: identical iterates, fewer words in sparse/auto.
    dense, sparse, auto = solves["dense"], solves["sparse"], solves["auto"]
    assert np.array_equal(dense.w, sparse.w)
    assert np.array_equal(dense.w, auto.w)
    assert sparse.cost["words_per_rank_max"] < dense.cost["words_per_rank_max"]
    assert auto.cost["words_per_rank_max"] <= dense.cost["words_per_rank_max"]
    assert sparse.cost["saved_words_total"] > 0

    # Machine-readable smoke report + Perfetto trace: the CI regression
    # gate (benchmarks/check_regression.py) diffs smoke_run.json against
    # benchmarks/baselines/smoke.json; comet_effective has no straggler
    # jitter, so these numbers are deterministic.
    emit_json(
        "smoke_run",
        {
            "schema": SMOKE_SCHEMA,
            "benchmark": "ablation_sparse_comm",
            "scale": "quick" if QUICK else "full",
            "runs": {
                comm: recorder.report(metrics=registry.snapshot()).to_dict()
                for comm, (recorder, registry) in recorders.items()
            },
        },
    )
    dense_trace = recorders["dense"][0].trace
    if JSON_MODE and dense_trace is not None:
        write_chrome_trace(dense_trace, OUTPUT_DIR / "smoke_trace.json")
