"""Replicated-work deduplication: cache unit tests and solver invariance.

The SPMD solver's stage-D update and monitored objective are replicated
arithmetic — every rank computes the same value from the same reduced
inputs. With dedup on, rank 0 computes once per collective epoch and the
cache fans out frozen views; these tests pin that the escape hatch
(``REPRO_NO_DEDUP=1`` / ``RuntimeConfig(dedup=False)``) is bit-identical,
that charged costs never move, and that the perf counters observe the
elided work.
"""

import json

import numpy as np
import pytest

from repro.core.rc_sfista_spmd import rc_sfista_spmd
from repro.distsim.zerocopy import NO_DEDUP_ENV
from repro.obs.metrics import MetricsRegistry
from repro.runtime import ReplicatedCache, RuntimeConfig


class TestReplicatedCache:
    def test_miss_then_hit(self):
        cache = ReplicatedCache(enabled=True)
        calls = []

        def compute():
            calls.append(1)
            return np.arange(3.0)

        first = cache.get(1, "tag", compute)
        second = cache.get(1, "tag", compute)
        assert first is second
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_values_are_frozen(self):
        cache = ReplicatedCache(enabled=True)
        out = cache.get(1, "t", lambda: np.ones(2))
        with pytest.raises(ValueError):
            out[0] = 5.0

    def test_epoch_change_clears(self):
        cache = ReplicatedCache(enabled=True)
        cache.get(1, "t", lambda: np.ones(2))
        cache.get(2, "t", lambda: np.zeros(2))
        assert cache.misses == 2  # same tag, new epoch → recomputed

    def test_disabled_always_computes(self):
        cache = ReplicatedCache(enabled=False)
        outs = [cache.get(1, "t", lambda: np.ones(2)) for _ in range(3)]
        assert cache.hits == 0 and cache.misses == 0
        assert not np.shares_memory(outs[0], outs[1])
        outs[0][0] = 9.0  # disabled path returns writable arrays

    def test_scalars_pass_through(self):
        cache = ReplicatedCache(enabled=True)
        assert cache.get(1, "s", lambda: 2.5) == 2.5
        assert cache.get(1, "s", lambda: 99.0) == 2.5  # served from cache

    def test_reset(self):
        cache = ReplicatedCache(enabled=True)
        cache.get(1, "t", lambda: np.ones(1))
        cache.get(1, "t", lambda: np.ones(1))
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        cache.get(1, "t", lambda: np.ones(1))
        assert cache.misses == 1


def _solve(problem, *, dedup=None, estimator="plain", adaptive_restart=False):
    cfg = RuntimeConfig(dedup=dedup, adaptive_restart=adaptive_restart)
    res = rc_sfista_spmd(
        problem, 4, k=2, b=0.2, n_iterations=8, estimator=estimator,
        seed=7, runtime=cfg,
    )
    return res.w, json.dumps(res.cost, sort_keys=True, default=str)


class TestSolverInvariance:
    @pytest.mark.parametrize("estimator", ["plain", "svrg"])
    @pytest.mark.parametrize("adaptive_restart", [False, True])
    def test_dedup_on_off_bit_identical(
        self, small_dense_problem, estimator, adaptive_restart
    ):
        w_on, cost_on = _solve(
            small_dense_problem, dedup=True, estimator=estimator,
            adaptive_restart=adaptive_restart,
        )
        w_off, cost_off = _solve(
            small_dense_problem, dedup=False, estimator=estimator,
            adaptive_restart=adaptive_restart,
        )
        assert np.array_equal(w_on, w_off)
        assert cost_on == cost_off

    def test_env_escape_hatch_bit_identical(self, small_dense_problem, monkeypatch):
        monkeypatch.setenv(NO_DEDUP_ENV, "1")
        w_env, cost_env = _solve(small_dense_problem)
        monkeypatch.delenv(NO_DEDUP_ENV)
        w_def, cost_def = _solve(small_dense_problem)
        assert np.array_equal(w_env, w_def)
        assert cost_env == cost_def

    def test_result_is_writable(self, small_dense_problem):
        w, _ = _solve(small_dense_problem, dedup=True)
        w[0] = 123.0  # never a frozen cache view


class TestPerfCounters:
    def test_counters_observe_elided_work(self, small_dense_problem, small_sparse_problem):
        registry = MetricsRegistry()
        cfg = RuntimeConfig(dedup=True, adaptive_restart=True, metrics=registry)
        rc_sfista_spmd(
            small_dense_problem, 4, k=2, b=0.2, n_iterations=8, seed=7,
            runtime=cfg,
        )
        hits = registry.counter("runtime_dedup_hits").value()
        misses = registry.counter("runtime_dedup_misses").value()
        # 8 updates + 8 monitored objectives, computed once, hit 3 more times.
        assert misses == 16
        assert hits == 48
        # Only a sparse column gather borrows the Gram workspace pool.
        sparse_registry = MetricsRegistry()
        rc_sfista_spmd(
            small_sparse_problem, 4, k=2, b=0.2, n_iterations=8, seed=7,
            runtime=RuntimeConfig(dedup=True, adaptive_restart=True, metrics=sparse_registry),
        )
        assert sparse_registry.counter("gram_workspace_reuses").value() > 0

    def test_dedup_off_publishes_no_hit_counters(self, small_dense_problem):
        registry = MetricsRegistry()
        cfg = RuntimeConfig(dedup=False, metrics=registry)
        rc_sfista_spmd(
            small_dense_problem, 4, k=2, b=0.2, n_iterations=8, seed=7,
            runtime=cfg,
        )
        assert registry.counter("runtime_dedup_hits").value() == 0
