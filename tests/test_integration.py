"""End-to-end integration tests exercising the public API as a user would."""

import numpy as np
import pytest

import repro
from repro.core import (
    L1Logistic,
    coordinate_descent_lasso,
    fista,
    lasso_path,
    proximal_newton,
    proxcocoa,
    rc_sfista,
    rc_sfista_distributed,
    solve_reference,
)
from repro.core.stopping import StoppingCriterion
from repro.data import get_dataset
from repro.runtime import RuntimeConfig
from repro.sparse import load_libsvm, save_libsvm


class TestPackage:
    def test_version(self):
        assert repro.__version__

    def test_subpackages_exported(self):
        for name in ("core", "data", "distsim", "perf", "sparse", "utils"):
            assert hasattr(repro, name)


class TestReadmeQuickstart:
    """The exact flow documented in README.md must work."""

    def test_flow(self):
        problem = get_dataset("covtype", size="tiny").problem()
        fstar = solve_reference(problem, tol=1e-9).meta["fstar"]
        result = rc_sfista(
            problem, k=4, S=2, b=0.05, epochs=20, iters_per_epoch=50,
            stopping=StoppingCriterion(tol=0.01, fstar=fstar),
        )
        assert result.converged
        assert "iters" in result.summary()

    def test_distributed_flow(self):
        problem = get_dataset("covtype", size="tiny").problem()
        res = rc_sfista_distributed(
            problem, nranks=8, k=4, S=2, b=0.1, iters_per_epoch=20,
            runtime=RuntimeConfig(machine="comet_effective"),
        )
        assert res.sim_time > 0
        assert res.cost["messages_per_rank_max"] > 0


class TestCrossSolverConsensus:
    """Four independent algorithms agree on the optimum of one problem."""

    def test_consensus(self, tiny_covtype_problem, tiny_covtype_reference):
        fstar = tiny_covtype_reference.meta["fstar"]
        stop = StoppingCriterion(tol=1e-5, fstar=fstar)
        solutions = {
            "fista": fista(tiny_covtype_problem, max_iter=4000, stopping=stop),
            "cd": coordinate_descent_lasso(tiny_covtype_problem, max_epochs=1000, stopping=stop),
            "pn": proximal_newton(
                tiny_covtype_problem, n_outer=15, inner="cd", inner_iters=80, stopping=stop
            ),
            "proxcocoa(P=1)": proxcocoa(
                tiny_covtype_problem, 1, n_rounds=800, local_epochs=3,
                sigma_prime=1.0, stopping=stop,
            ),
        }
        for name, res in solutions.items():
            assert res.converged, f"{name} failed to reach 1e-5"
            assert abs(res.final_objective - fstar) / fstar < 1e-4, name


class TestRoundtripThroughDisk:
    def test_libsvm_roundtrip_preserves_solution(self, tmp_path, tiny_covtype_problem):
        path = tmp_path / "problem.svm"
        save_libsvm(path, tiny_covtype_problem.X, tiny_covtype_problem.y)
        X2, y2 = load_libsvm(path, n_features=tiny_covtype_problem.d)
        from repro.core.objectives import L1LeastSquares

        p2 = L1LeastSquares(X2, y2, tiny_covtype_problem.lam)
        w = np.ones(tiny_covtype_problem.d)
        assert p2.value(w) == pytest.approx(tiny_covtype_problem.value(w))


class TestLassoPathIntegration:
    def test_path_brackets_the_registry_lambda(self, tiny_covtype):
        problem = tiny_covtype.problem()
        path = lasso_path(problem, n_lambdas=10, max_iter=300)
        assert path.lambdas.min() < problem.lam < path.lambdas.max()


class TestLogisticIntegration:
    def test_classification_pipeline(self):
        gen = np.random.default_rng(3)
        X = gen.standard_normal((6, 200))
        w_true = np.array([1.5, -2.0, 0.0, 0.0, 1.0, 0.0])
        y = np.sign(X.T @ w_true + 0.2 * gen.standard_normal(200))
        y[y == 0] = 1.0
        problem = L1Logistic(X, y, 0.02)
        res = proximal_newton(problem, n_outer=20, inner="cd", inner_iters=50)
        assert problem.accuracy(res.w) > 0.85
        # l1 recovers the sparsity pattern approximately
        assert np.sum(np.abs(res.w) > 0.1) <= 4
