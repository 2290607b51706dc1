"""Integration tests: distributed solvers reproduce the serial arithmetic.

This is the linchpin of the reproduction methodology (DESIGN.md §4): on the
simulator, processor count changes *costs*, never *iterates*. Every cell of
the speedup sweeps relies on these equivalences.
"""

import numpy as np
import pytest

from repro.core.rc_sfista import rc_sfista
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.sfista import sfista
from repro.core.sfista_dist import sfista_distributed
from repro.distsim.collectives import ceil_log2
from repro.exceptions import ValidationError
from repro.runtime import RuntimeConfig


class TestSfistaDistEquivalence:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
    def test_matches_serial_any_p(self, tiny_covtype_problem, nranks):
        ser = sfista(tiny_covtype_problem, b=0.2, iters_per_epoch=20, seed=6)
        dist = sfista_distributed(tiny_covtype_problem, nranks, b=0.2, iters_per_epoch=20, seed=6)
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)

    @pytest.mark.parametrize("estimator", ["plain", "svrg"])
    def test_both_estimators(self, tiny_covtype_problem, estimator):
        ser = sfista(
            tiny_covtype_problem, b=0.3, iters_per_epoch=15, seed=1, estimator=estimator
        )
        dist = sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, iters_per_epoch=15, seed=1, estimator=estimator
        )
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)

    def test_gradient_mode_matches_hessian_mode(self, tiny_covtype_problem):
        h = sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, iters_per_epoch=12, seed=2, comm_mode="hessian"
        )
        g = sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, iters_per_epoch=12, seed=2, comm_mode="gradient"
        )
        np.testing.assert_allclose(h.w, g.w, atol=1e-8)

    def test_gradient_mode_moves_fewer_words(self, tiny_covtype_problem):
        h = sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, iters_per_epoch=10, seed=2, comm_mode="hessian"
        )
        g = sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, iters_per_epoch=10, seed=2, comm_mode="gradient"
        )
        assert g.cost["words_per_rank_max"] < h.cost["words_per_rank_max"] / 10

    def test_exact_estimator_rejected(self, tiny_covtype_problem):
        with pytest.raises(ValidationError):
            sfista_distributed(tiny_covtype_problem, 2, estimator="exact")

    def test_multi_epoch(self, tiny_covtype_problem):
        ser = sfista(tiny_covtype_problem, b=0.3, epochs=3, iters_per_epoch=8, seed=0)
        dist = sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, epochs=3, iters_per_epoch=8, seed=0
        )
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)


class TestRcSfistaDistEquivalence:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 7])
    @pytest.mark.parametrize("k,S", [(1, 1), (4, 1), (3, 2), (5, 4)])
    def test_matches_serial(self, tiny_covtype_problem, nranks, k, S):
        ser = rc_sfista(tiny_covtype_problem, k=k, S=S, b=0.2, iters_per_epoch=16, seed=8)
        dist = rc_sfista_distributed(
            tiny_covtype_problem, nranks, k=k, S=S, b=0.2, iters_per_epoch=16, seed=8
        )
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)

    def test_k_does_not_change_distributed_iterates(self, tiny_covtype_problem):
        a = rc_sfista_distributed(tiny_covtype_problem, 4, k=1, b=0.2, iters_per_epoch=12, seed=3)
        b = rc_sfista_distributed(tiny_covtype_problem, 4, k=6, b=0.2, iters_per_epoch=12, seed=3)
        np.testing.assert_allclose(a.w, b.w, atol=1e-9)

    def test_dense_problem(self, small_dense_problem):
        ser = rc_sfista(small_dense_problem, k=4, S=2, b=0.15, iters_per_epoch=12, seed=5)
        dist = rc_sfista_distributed(
            small_dense_problem, 3, k=4, S=2, b=0.15, iters_per_epoch=12, seed=5
        )
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)


class TestCommunicationAccounting:
    def test_latency_ratio_is_k(self, tiny_covtype_problem):
        """Table 1: RC-SFISTA message count = SFISTA's / k (same N)."""
        P, N, k = 8, 24, 4
        base = sfista_distributed(
            tiny_covtype_problem, P, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        rc = rc_sfista_distributed(
            tiny_covtype_problem, P, k=k, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        assert base.cost["messages_per_rank_max"] == k * rc.cost["messages_per_rank_max"]

    def test_bandwidth_unchanged_by_k(self, tiny_covtype_problem):
        P, N = 8, 24
        base = sfista_distributed(
            tiny_covtype_problem, P, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        rc = rc_sfista_distributed(
            tiny_covtype_problem, P, k=6, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        assert base.cost["words_per_rank_max"] == pytest.approx(rc.cost["words_per_rank_max"])

    def test_word_count_closed_form(self, tiny_covtype_problem):
        d, P, N = tiny_covtype_problem.d, 4, 10
        res = sfista_distributed(
            tiny_covtype_problem, P, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        expected = N * (d * d + d) * ceil_log2(P)
        assert res.cost["words_per_rank_max"] == pytest.approx(expected)

    def test_simulated_time_decreases_with_k(self, tiny_covtype_problem):
        times = []
        for k in (1, 2, 8):
            res = rc_sfista_distributed(
                tiny_covtype_problem, 16, k=k, b=0.1, iters_per_epoch=16, seed=0,
                runtime=RuntimeConfig(machine="comet_effective"),
            )
            times.append(res.sim_time)
        assert times[0] > times[1] > times[2]

    def test_ring_allreduce_supported(self, tiny_covtype_problem):
        res = rc_sfista_distributed(
            tiny_covtype_problem, 4, k=2, b=0.2, iters_per_epoch=8, seed=0,
            runtime=RuntimeConfig(allreduce_algorithm="ring"),
        )
        ser = rc_sfista(tiny_covtype_problem, k=2, b=0.2, iters_per_epoch=8, seed=0)
        np.testing.assert_allclose(res.w, ser.w, atol=1e-9)
