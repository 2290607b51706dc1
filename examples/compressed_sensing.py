#!/usr/bin/env python
"""Compressed sensing: sparse signal recovery with RC-SFISTA.

A classic downstream application of the paper's solver class: recover a
k-sparse signal from far fewer random measurements than its dimension by
solving a lasso. Here the "features" are the signal coefficients and each
"sample" is one random measurement — the same (d × m) layout the library
uses everywhere.

Demonstrates:
* phase-transition behaviour (recovery succeeds once m/d crosses the
  sparsity-dependent threshold),
* RC-SFISTA as the recovery solver with communication accounting for a
  hypothetical distributed sensing deployment.

Run:  python examples/compressed_sensing.py
"""

import numpy as np

from repro.core import rc_sfista_distributed, solve_reference
from repro.core.objectives import L1LeastSquares
from repro.core.stopping import StoppingCriterion
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig

D = 128  # signal dimension
SPARSITY = 8  # non-zeros in the true signal
NOISE = 0.01


def make_instance(n_measurements: int, seed: int) -> tuple[L1LeastSquares, np.ndarray]:
    gen = np.random.default_rng(seed)
    signal = np.zeros(D)
    support = gen.choice(D, size=SPARSITY, replace=False)
    signal[support] = gen.standard_normal(SPARSITY) * 3.0
    # Sensing matrix: columns are measurement vectors (features × samples).
    Phi = gen.standard_normal((D, n_measurements)) / np.sqrt(n_measurements)
    y = Phi.T @ signal + NOISE * gen.standard_normal(n_measurements)
    lam = 0.05 * float(np.max(np.abs(Phi @ y))) / n_measurements
    return L1LeastSquares(Phi, y, lam), signal


def recovery_error(problem: L1LeastSquares, signal: np.ndarray) -> float:
    w = solve_reference(problem, tol=1e-9).w
    return float(np.linalg.norm(w - signal) / np.linalg.norm(signal))


def main() -> None:
    # --- phase transition: sweep the measurement budget ----------------- #
    rows = []
    for m in (16, 24, 32, 48, 64, 96):
        errs = [recovery_error(*make_instance(m, seed)) for seed in range(3)]
        rows.append([m, f"{m / D:.2f}", f"{np.mean(errs):.3f}",
                     "yes" if np.mean(errs) < 0.1 else "no"])
    print(format_table(
        ["measurements m", "m/d", "mean signal error", "recovered?"],
        rows,
        title=f"compressed sensing phase transition (d={D}, {SPARSITY}-sparse)",
    ))

    # --- distributed recovery with RC-SFISTA ---------------------------- #
    problem, signal = make_instance(96, seed=0)
    fstar = solve_reference(problem, tol=1e-9).meta["fstar"]
    res = rc_sfista_distributed(
        problem, nranks=16, k=4, S=1, b=0.25,
        epochs=30, iters_per_epoch=60,
        stopping=StoppingCriterion(tol=1e-4, fstar=fstar), seed=0,
        runtime=RuntimeConfig(machine="comet_effective"),
    )
    err = np.linalg.norm(res.w - signal) / np.linalg.norm(signal)
    print(f"\ndistributed RC-SFISTA recovery: {res.summary()}")
    print(f"relative signal error: {err:.4f}")
    print(f"simulated comm: {res.n_comm_rounds} rounds, "
          f"{res.cost['words_per_rank_max']:.4g} words/rank, "
          f"{res.sim_time:.4g}s on 16 simulated ranks")


if __name__ == "__main__":
    main()
