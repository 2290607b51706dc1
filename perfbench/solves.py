"""The two solve workloads: seeded problems, certified optima, timed solves.

Each workload derives a fixed pool of instances from the run seed (problem
data, λ and solver seed all come from it), certifies an optimum for every
problem once, then solves the instances round-robin until the measuring time
is up. The pool holds enough distinct problems that its medians vary little
from seed to seed. Every solve is checked; a solve that raises, misses its
tolerance within the budget, disagrees with the reference or does not repeat
exactly counts as failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.model import ERMObjective
from repro.core.objectives import L1LeastSquares, QuadraticModel
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.reference import solve_reference
from repro.core.stopping import StoppingCriterion, relative_objective_error
from repro.data.scaling import normalize_sample_columns
from repro.data.synthetic import make_regression
from repro.obs.telemetry import TelemetryRecorder
from repro.runtime import RuntimeConfig

# Optimality residual the reference solve runs to, and the residual the
# program's own objective must confirm (rounding slack) to certify it.
REFERENCE_TOL = 1e-8
CERTIFY_TOL = 1e-7


@dataclass
class Instance:
    """One problem's data and solver seed, plus the objective to check."""

    X: Any
    y: np.ndarray
    lam: float
    objective: ERMObjective
    solver_seed: int
    fstar: float = float("nan")

    def problem(self) -> L1LeastSquares:
        """A fresh problem object for one solve.

        The solver memoizes step-size statistics on the problem object, so
        a fresh one makes every timed solve pay for them, as a user's first
        solve of a problem does.
        """
        return L1LeastSquares(self.X, self.y, self.lam)


@dataclass(frozen=True)
class SolveWorkload:
    name: str
    n_problems: int
    tol: float
    make: Callable[[np.random.Generator], tuple[Any, np.ndarray, float, ERMObjective]]
    nranks: int
    params: dict[str, Any]  # k, S, b, epochs, iters_per_epoch
    runtime: Callable[[], RuntimeConfig]

    def solve(self, problem: L1LeastSquares, solver_seed: int, stopping: StoppingCriterion):
        return rc_sfista_distributed(
            problem, self.nranks, seed=solver_seed, stopping=stopping,
            runtime=self.runtime(), **self.params,
        )


def _regression(rng: np.random.Generator, d: int, m: int, density: float):
    X, y, _w = make_regression(
        d, m, density=density, support_fraction=0.3, noise=0.1,
        rng=int(rng.integers(2**31)),
    )
    X, _norms = normalize_sample_columns(X)
    return X, y


def _lasso(rng, d, m, density, lam_band):
    X, y = _regression(rng, d, m, density)
    Xy = X @ y if isinstance(X, np.ndarray) else X.matvec(y)
    lam = float(np.exp(rng.uniform(*np.log(lam_band)))) * float(np.max(np.abs(Xy))) / m
    return X, y, lam, L1LeastSquares(X, y, lam)


def make_dense(rng):
    # epsilon regime: dense, d² Hessian blocks dominate every round.
    return _lasso(rng, 400, 4000, 1.0, (0.008, 0.012))


def make_logistic(rng):
    X, z = _regression(rng, 256, 6000, 0.02)
    y = np.where(z >= 0, 1.0, -1.0)
    # ‖∇f(0)‖∞ of the logistic loss is ‖X y‖∞ / (2m).
    lam_max = 0.5 * float(np.max(np.abs(X.matvec(y)))) / X.shape[1]
    lam = float(np.exp(rng.uniform(np.log(0.08), np.log(0.12)))) * lam_max
    # The solver receives the data as a lasso problem and switches the loss
    # through RuntimeConfig(loss="logistic"), the general objective path.
    return X, y, lam, ERMObjective(X, y, loss="logistic", penalty="l1", lam=lam)


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload(
            "dense_lasso", 10, 1e-3, make_dense, 8,
            dict(k=4, S=2, b=0.1, epochs=40, iters_per_epoch=50),
            lambda: RuntimeConfig(backend="bsp", comm="dense"),
        ),
        SolveWorkload(
            "sparse_logistic_auto", 12, 3e-3, make_logistic, 16,
            dict(k=4, S=2, b=0.05, epochs=100, iters_per_epoch=20),
            lambda: RuntimeConfig(
                backend="bsp", comm="auto", loss="logistic", checkpoint_every=1,
                telemetry=TelemetryRecorder(),
            ),
        ),
    )
}


def build_instances(workload: SolveWorkload, seed: int) -> list[Instance]:
    """The seeded instance pool: each problem, then its solver seed."""
    rng = np.random.default_rng([seed, 7919])
    instances = []
    for _ in range(workload.n_problems):
        X, y, lam, objective = workload.make(rng)
        instances.append(Instance(X, y, lam, objective, int(rng.integers(2**31))))
    return instances


class GramLasso(QuadraticModel):
    """A lasso objective in Gram form ``½wᵀGw − bᵀw + c``, for the reference.

    Iterating on the d×d Gram matrix makes the certified reference solve
    cheap enough for a pool of many distinct problems. The optimum it
    finds is certified and valued with the program's own objective.
    """

    def __init__(self, problem: L1LeastSquares) -> None:
        X = problem.X if isinstance(problem.X, np.ndarray) else problem.X.to_dense()
        y = problem.y
        super().__init__(X @ X.T / problem.m, X @ y / problem.m, 0.5 * float(y @ y) / problem.m)
        self.lam = problem.lam

    def default_step(self) -> float:
        return 1.0 / self.lipschitz()

    def optimality_residual(self, w: np.ndarray) -> float:
        return L1LeastSquares.optimality_residual(self, w)


def certify(instances: list[Instance]) -> None:
    """Certified optimum per problem, computed once per seed."""
    for inst in instances:
        objective = inst.objective
        view = GramLasso(objective) if type(objective) is L1LeastSquares else objective
        ref = solve_reference(view, tol=REFERENCE_TOL, raise_on_failure=True)
        residual = objective.optimality_residual(ref.w)
        if not residual <= CERTIFY_TOL:
            raise RuntimeError(f"reference optimum not certified: residual {residual:.3g}")
        inst.fstar = float(objective.value(ref.w))


@dataclass
class SolveRecord:
    index: int  # position in the instance pool
    seconds: float  # the solver call alone
    ok: bool
    reason: str = ""
    sim_s: float = float("nan")
    iterations: int = 0
    words_per_rank: float = 0.0
    msgs_per_rank: float = 0.0
    traced: bool = False


@dataclass
class Fingerprints:
    """First outcome of each instance; every repeat must match it exactly."""

    seen: dict[int, tuple] = field(default_factory=dict)

    def check(self, index: int, key: tuple) -> bool:
        return self.seen.setdefault(index, key) == key


def solve_once(
    workload: SolveWorkload,
    inst: Instance,
    index: int,
    prints: Fingerprints,
    *,
    reference_error: float = 0.0,
    wrap: Callable[[Callable], Callable] | None = None,
) -> SolveRecord:
    """Solve one instance, time it and check it against its reference.

    *reference_error* scales the optimum the check compares against (never
    the one the solver stops on); the smoke tests use it to show that a
    wrong reference is caught.
    """
    stopping = StoppingCriterion(tol=workload.tol, fstar=inst.fstar)
    solve = wrap(workload.solve) if wrap is not None else workload.solve
    problem = inst.problem()
    t0 = time.perf_counter()
    try:
        res = solve(problem, inst.solver_seed, stopping)
    except Exception as exc:  # noqa: BLE001 — a raising solve is a failed one
        return SolveRecord(
            index, time.perf_counter() - t0, False, f"raised {type(exc).__name__}: {exc}"
        )
    record = SolveRecord(
        index, time.perf_counter() - t0, True,
        sim_s=float(res.cost["elapsed"]),
        iterations=int(res.n_iterations),
        words_per_rank=float(res.cost["words_per_rank_max"]),
        msgs_per_rank=float(res.cost["messages_per_rank_max"]),
    )
    record.ok, record.reason = _check(workload, inst, res, index, prints, reference_error)
    return record


def _check(workload, inst, res, index, prints, reference_error) -> tuple[bool, str]:
    if not res.converged or res.meta.get("diverged"):
        return False, f"missed tol {workload.tol:g} in {res.n_iterations} iterations"
    value = float(inst.objective.value(res.w))
    if not np.isfinite(value):
        return False, "non-finite objective"
    reported = float(res.history.objectives[-1])
    if not np.isclose(reported, value, rtol=1e-10, atol=0.0):
        return False, f"solver objective {reported!r} != checked objective {value!r}"
    fstar = inst.fstar * (1.0 + reference_error)
    if relative_objective_error(value, fstar) > workload.tol:
        return False, f"objective {value!r} not within {workload.tol:g} of {fstar!r}"
    if value < fstar - 1e-9 * abs(fstar):
        return False, f"objective {value!r} below the certified optimum {fstar!r}"
    key = (res.n_iterations, float(res.cost["elapsed"]), float(res.cost["words_per_rank_max"]))
    if not prints.check(index, key):
        return False, f"repeat solve differs: {key} vs {prints.seen[index]}"
    return True, ""
