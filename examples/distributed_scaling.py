#!/usr/bin/env python
"""Distributed scaling study: how k and P shape RC-SFISTA's simulated runtime.

Reproduces the Figure 4 methodology end-to-end on one dataset:

* run the distributed solvers on the simulated cluster (real data movement,
  α-β-γ clocks),
* sweep the overlap parameter k and the processor count P,
* compare against the closed-form Table 1 model and the Eq. (25) bound.

Run:  python examples/distributed_scaling.py
"""

from repro.core import rc_sfista_distributed, sfista_distributed, solve_reference
from repro.core.stopping import StoppingCriterion
from repro.data import get_dataset
from repro.perf.bounds import k_bound_latency_bandwidth
from repro.perf.model import rc_sfista_costs, sfista_costs
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig

MACHINE = "comet_effective"


def main() -> None:
    dataset = get_dataset("covtype", size="tiny")
    problem = dataset.problem()
    fstar = solve_reference(problem, tol=1e-9).meta["fstar"]
    stop = StoppingCriterion(tol=0.01, fstar=fstar)
    N = 48  # fixed iteration budget so cost comparisons are apples-to-apples
    b = 0.1

    print(f"Eq. (25) bound for d={problem.d} on {MACHINE}: "
          f"k <= {k_bound_latency_bandwidth(MACHINE, problem.d):.1f}\n")

    runtime = RuntimeConfig(machine=MACHINE)
    rows = []
    for P in (4, 16, 64):
        base = sfista_distributed(
            problem, P, b=b, iters_per_epoch=N, seed=0,
            monitor_every=N, stopping=stop, runtime=runtime,
        )
        for k in (1, 2, 4, 8):
            rc = rc_sfista_distributed(
                problem, P, k=k, b=b, iters_per_epoch=N, seed=0,
                monitor_every=N, stopping=stop, runtime=runtime,
            )
            model = rc_sfista_costs(N, problem.d, rc.meta["mbar"], 0.22, P, k, 1)
            rows.append(
                [P, k,
                 f"{base.sim_time:.4g}", f"{rc.sim_time:.4g}",
                 f"{base.sim_time / rc.sim_time:.2f}x",
                 f"{rc.cost['messages_per_rank_max']:.0f}",
                 f"{model.latency:.0f}"]
            )

    print(format_table(
        ["P", "k", "SFISTA time", "RC time", "speedup", "msgs/rank (sim)",
         "msgs/rank (model)"],
        rows,
        title=f"RC-SFISTA scaling on {dataset.name} (N={N}, machine={MACHINE})",
    ))

    print("\nNote: identical iterates for every (P, k) — only the clock moves;")
    print("see tests/test_core/test_dist_equivalence.py for the assertion.")


if __name__ == "__main__":
    main()
