#!/usr/bin/env python
"""Head-to-head: RC-SFISTA vs ProxCoCoA on the simulated cluster (Fig. 6).

Both solvers run on the same BSP substrate with the same machine model;
the difference is structural: ProxCoCoA allreduces the m-long shared
residual each round, RC-SFISTA allreduces k (d²+d)-word Hessian blocks.

Run:  python examples/proxcocoa_comparison.py
"""

from repro.core import proxcocoa, rc_sfista_distributed, solve_reference
from repro.core.stopping import StoppingCriterion
from repro.data import get_dataset
from repro.experiments.ascii_plot import ascii_chart
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig

MACHINE = "comet_effective"
P = 32
TOL = 0.01


def main() -> None:
    dataset = get_dataset("covtype", size="tiny")
    problem = dataset.problem()
    fstar = solve_reference(problem, tol=1e-9).meta["fstar"]
    stop = StoppingCriterion(tol=TOL, fstar=fstar)

    rc = rc_sfista_distributed(
        problem, P, k=2, S=2, b=0.05,
        epochs=20, iters_per_epoch=50, seed=0, stopping=stop,
        runtime=RuntimeConfig(machine=MACHINE),
    )
    cc = proxcocoa(
        problem, P, machine=MACHINE, n_rounds=300, local_epochs=2, seed=0,
        stopping=stop,
    )

    print(ascii_chart(
        {
            "rc_sfista": (list(rc.history.sim_times), list(rc.history.rel_errors)),
            "proxcocoa": (list(cc.history.sim_times), list(cc.history.rel_errors)),
        },
        log_y=True,
        title=f"rel err vs simulated time on {dataset.name} (P={P}, {MACHINE})",
        x_label="sim time (s)",
        y_label="rel err",
    ))

    t_rc = rc.history.time_to_tolerance(TOL)
    t_cc = cc.history.time_to_tolerance(TOL)
    rows = [
        ["rc_sfista", rc.n_comm_rounds, f"{rc.cost['words_per_rank_max']:.4g}",
         f"{t_rc:.4g}s" if t_rc else "> budget"],
        ["proxcocoa", cc.n_comm_rounds, f"{cc.cost['words_per_rank_max']:.4g}",
         f"{t_cc:.4g}s" if t_cc else "> budget"],
    ]
    print()
    print(format_table(
        ["solver", "comm rounds", "words/rank", f"time to {TOL:.0%} rel err"], rows
    ))
    if t_rc and t_cc:
        print(f"\nRC-SFISTA speedup over ProxCoCoA: {t_cc / t_rc:.2f}x "
              f"(paper Table 3: 1.57x–12.15x depending on dataset)")


if __name__ == "__main__":
    main()
