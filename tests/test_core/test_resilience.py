"""Resilient-runtime tests: checkpoints, numerical guards, crash recovery.

The acceptance bar for the whole subsystem is *exact* recovery: a solver
that crashes mid-run, heals and replays from its last checkpoint must end
at the bit-identical iterate of the fault-free run (the checkpoint captures
the sampling RNG state, so the replayed rounds draw the same minibatches).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.rc_sfista_spmd import rc_sfista_spmd
from repro.core.reference import solve_reference
from repro.runtime.resilience import (
    ON_NAN_POLICIES,
    Checkpoint,
    NumericalGuard,
    RecoveryStats,
    RollbackRequested,
)
from repro.core.results import History, SolveResult
from repro.distsim.faults import FaultPlan, PayloadCorruption, RankCrash
from repro.exceptions import (
    ConvergenceError,
    NumericalFaultError,
    RankFailureError,
    ValidationError,
)
from repro.runtime import RuntimeConfig

pytestmark = pytest.mark.faults


# ---------------------------------------------------------------------- #
# units: Checkpoint / NumericalGuard / RecoveryStats / History.truncate
# ---------------------------------------------------------------------- #
class TestCheckpoint:
    def test_capture_deep_copies(self):
        w = np.arange(4.0)
        rng = np.random.default_rng(5)
        ck = Checkpoint.capture(arrays={"w": w, "g": None}, scalars={"n": 3},
                                rng=rng, history_len=2)
        w[:] = -1.0
        assert np.array_equal(ck.array("w"), np.arange(4.0))
        assert ck.scalars["n"] == 3
        assert ck.history_len == 2
        assert "g" not in ck.arrays, "None arrays are dropped"
        assert ck.get("g") is None, "optional arrays read back as None"
        with pytest.raises(ValidationError):
            ck.array("g")

    def test_restore_rng_rewinds_the_stream(self):
        rng = np.random.default_rng(5)
        ck = Checkpoint.capture(arrays={}, scalars={}, rng=rng)
        first = rng.standard_normal(8)
        ck.restore_rng(rng)
        assert np.array_equal(rng.standard_normal(8), first)

    def test_words_counts_state_plus_header(self):
        ck = Checkpoint.capture(arrays={"a": np.zeros(10), "b": np.zeros((3, 3))},
                                scalars={"n": 1})
        assert ck.words == 10 + 9 + 8


class TestNumericalGuard:
    def test_policy_validation(self):
        assert ON_NAN_POLICIES == ("raise", "rollback", "recompute")
        with pytest.raises(ValidationError):
            NumericalGuard("explode")

    def test_disabled_guard_passes_everything(self):
        guard = NumericalGuard(None)
        stats = RecoveryStats()
        assert not guard.enabled
        assert guard.screen(np.array([np.nan]), "G", stats) is False
        assert stats.numerical_faults == 0

    def test_finite_values_pass(self):
        stats = RecoveryStats()
        assert NumericalGuard("raise").screen(np.ones(3), "G", stats) is False
        assert stats.numerical_faults == 0

    def test_raise_policy(self):
        with pytest.raises(NumericalFaultError, match="G"):
            NumericalGuard("raise").screen(np.array([np.inf]), "G", RecoveryStats())

    def test_rollback_policy(self):
        stats = RecoveryStats()
        with pytest.raises(RollbackRequested) as ei:
            NumericalGuard("rollback").screen(np.array([np.nan]), "grad", stats)
        assert ei.value.what == "grad"
        assert stats.numerical_faults == 1

    def test_recompute_policy_returns_true(self):
        stats = RecoveryStats()
        assert NumericalGuard("recompute").screen(np.array([np.nan]), "G", stats)
        assert stats.numerical_faults == 1

    def test_scalar_screening(self):
        assert NumericalGuard("recompute").screen(float("nan"), "obj", RecoveryStats())


class TestRecoveryStats:
    def test_as_meta_round_trip(self):
        stats = RecoveryStats()
        stats.checkpoints += 2
        stats.rollbacks += 1
        stats.healed_ranks.append(3)
        meta = stats.as_meta()
        assert meta["checkpoints"] == 2
        assert meta["rollbacks"] == 1
        assert meta["healed_ranks"] == [3]


class TestHistoryTruncate:
    def test_truncate_drops_replayed_rows(self):
        h = History()
        for i in range(5):
            h.append(i, float(i), sim_time=0.1 * i, comm_round=i)
        h.truncate(2)
        assert len(h) == 2
        assert h.iterations == [0, 1]
        assert h.comm_rounds == [0, 1]

    def test_truncate_negative_rejected(self):
        with pytest.raises(ValidationError):
            History().truncate(-1)


# ---------------------------------------------------------------------- #
# solver-level recovery: the recovered solution equals the fault-free one
# ---------------------------------------------------------------------- #
BSP_KW = dict(k=2, S=1, b=0.2, epochs=1, iters_per_epoch=6, estimator="plain",
              seed=0, monitor_every=2)


def _rt(**knobs) -> RuntimeConfig:
    """The runtime shared by every solver-level test, plus *knobs*."""
    return RuntimeConfig(machine="comet_paper", **knobs)


def _baseline(problem):
    return rc_sfista_distributed(problem, 4, runtime=_rt(), **BSP_KW)


class TestRCSFISTARecovery:
    def test_zero_fault_identity(self, small_dense_problem):
        base = _baseline(small_dense_problem)
        wired = rc_sfista_distributed(small_dense_problem, 4,
                                      runtime=_rt(faults=FaultPlan(), checkpoint_every=0),
                                      **BSP_KW)
        assert np.array_equal(base.w, wired.w)
        assert base.cost == wired.cost

    def test_crash_recovery_matches_fault_free(self, small_dense_problem):
        base = _baseline(small_dense_problem)
        crash_at = 0.5 * base.sim_time
        plan = FaultPlan(crashes=(RankCrash(rank=1, at_time=crash_at),))
        rec = rc_sfista_distributed(small_dense_problem, 4,
                                    runtime=_rt(faults=plan, checkpoint_every=2), **BSP_KW)
        assert rec.meta["resilience"]["rank_failures_recovered"] == 1
        assert rec.meta["resilience"]["healed_ranks"] == [1]
        assert np.array_equal(base.w, rec.w)
        assert base.history.objectives == rec.history.objectives
        # the tolerance is paid for, not free
        assert rec.cost["checkpoint_words_total"] > 0
        assert rec.cost["retry_words_total"] > 0
        assert rec.sim_time > base.sim_time

    def test_crash_recovery_from_scratch_without_periodic_checkpoints(
        self, small_dense_problem
    ):
        base = _baseline(small_dense_problem)
        plan = FaultPlan(crashes=(RankCrash(rank=2, at_time=0.5 * base.sim_time),))
        rec = rc_sfista_distributed(small_dense_problem, 4,
                                    runtime=_rt(faults=plan, checkpoint_every=0), **BSP_KW)
        assert rec.meta["resilience"]["rank_failures_recovered"] == 1
        assert np.array_equal(base.w, rec.w)

    def test_max_recoveries_zero_propagates(self, small_dense_problem):
        plan = FaultPlan(crashes=(RankCrash(rank=1, at_time=0.0),))
        with pytest.raises(RankFailureError):
            rc_sfista_distributed(small_dense_problem, 4,
                                  runtime=_rt(faults=plan, max_recoveries=0), **BSP_KW)

    def test_prebuilt_cluster_rejects_solver_side_fault_knobs(
        self, small_dense_problem
    ):
        from repro.distsim.bsp import BSPCluster

        cluster = BSPCluster(4, "comet_paper")
        with pytest.raises(ValidationError, match="cluster"):
            rc_sfista_distributed(
                small_dense_problem, 4,
                runtime=_rt(cluster=cluster,
                            faults=FaultPlan(crashes=(RankCrash(rank=0, at_op=0),))),
                **BSP_KW,
            )

    def test_adaptive_restart_smoke(self, small_dense_problem):
        res = rc_sfista_distributed(small_dense_problem, 4,
                                    runtime=_rt(adaptive_restart=True), **BSP_KW)
        assert res.meta["adaptive_restart"] is True
        assert res.meta["resilience"]["momentum_restarts"] >= 0


class TestNumericalPolicies:
    def _corrupting_plan(self):
        # Poison rank 0's contribution to the second collective (a stage-C
        # allreduce); the re-issued collective gets a fresh index, so the
        # one-shot corruption does not refire on recompute/replay.
        return FaultPlan(corruptions=(PayloadCorruption(rank=0, at_op=1, mode="nan"),))

    def test_on_nan_raise(self, small_dense_problem):
        with pytest.raises(NumericalFaultError):
            rc_sfista_distributed(small_dense_problem, 4,
                                  runtime=_rt(faults=self._corrupting_plan(), on_nan="raise"),
                                  **BSP_KW)

    def test_on_nan_recompute_matches_fault_free(self, small_dense_problem):
        base = _baseline(small_dense_problem)
        rec = rc_sfista_distributed(
            small_dense_problem, 4,
            runtime=_rt(faults=self._corrupting_plan(), on_nan="recompute"), **BSP_KW,
        )
        assert rec.meta["resilience"]["recomputes"] >= 1
        assert np.array_equal(base.w, rec.w)

    def test_on_nan_rollback_matches_fault_free(self, small_dense_problem):
        base = _baseline(small_dense_problem)
        # no periodic checkpoints: they are collectives too and would shift
        # the global collective index the one-shot corruption targets
        rec = rc_sfista_distributed(
            small_dense_problem, 4,
            runtime=_rt(faults=self._corrupting_plan(), on_nan="rollback"), **BSP_KW,
        )
        assert rec.meta["resilience"]["rollbacks"] >= 1
        assert np.array_equal(base.w, rec.w)

    def test_invalid_policy_rejected(self, small_dense_problem):
        with pytest.raises(ValidationError):
            rc_sfista_distributed(small_dense_problem, 4, runtime=_rt(on_nan="explode"),
                                  **BSP_KW)


PN_KW = dict(inner="rc_sfista", n_outer=4, inner_iters=6, k=2, b=0.5, seed=0)


class TestProxNewtonRecovery:
    def test_crash_recovery_matches_fault_free(self, small_dense_problem):
        base = proximal_newton_distributed(small_dense_problem, 4, runtime=_rt(), **PN_KW)
        plan = FaultPlan(crashes=(RankCrash(rank=1, at_time=0.5 * base.sim_time),))
        rec = proximal_newton_distributed(small_dense_problem, 4,
                                          runtime=_rt(faults=plan, checkpoint_every=1),
                                          **PN_KW)
        assert rec.meta["resilience"]["rank_failures_recovered"] == 1
        assert np.array_equal(base.w, rec.w)
        assert base.history.objectives == rec.history.objectives
        assert rec.cost["checkpoint_words_total"] > 0

    def test_zero_fault_identity(self, small_dense_problem):
        base = proximal_newton_distributed(small_dense_problem, 4, runtime=_rt(), **PN_KW)
        wired = proximal_newton_distributed(small_dense_problem, 4,
                                            runtime=_rt(faults=FaultPlan()), **PN_KW)
        assert np.array_equal(base.w, wired.w)
        assert base.cost == wired.cost


SPMD_KW = dict(k=2, b=0.2, n_iterations=8, seed=0)


class TestSPMDRecovery:
    def test_crash_recovery_matches_fault_free(self, small_dense_problem):
        base = rc_sfista_spmd(small_dense_problem, 4, runtime=_rt(), **SPMD_KW)
        plan = FaultPlan(crashes=(RankCrash(rank=2, at_time=0.5 * base.sim_time),))
        rec = rc_sfista_spmd(small_dense_problem, 4,
                             runtime=_rt(faults=plan, checkpoint_every=1), **SPMD_KW)
        assert rec.meta["resilience"]["rank_failures_recovered"] == 1
        assert rec.meta["resilience"]["healed_ranks"] == [2]
        assert np.array_equal(base.w, rec.w)
        # the failed attempt's communication stays on the books
        assert rec.cost["words_total"] > base.cost["words_total"]

    def test_zero_fault_identity(self, small_dense_problem):
        base = rc_sfista_spmd(small_dense_problem, 4, runtime=_rt(), **SPMD_KW)
        wired = rc_sfista_spmd(small_dense_problem, 4, runtime=_rt(faults=FaultPlan()),
                               **SPMD_KW)
        assert np.array_equal(base.w, wired.w)
        assert base.cost == wired.cost


# ---------------------------------------------------------------------- #
# satellite: ConvergenceError carries the partial result
# ---------------------------------------------------------------------- #
class TestPartialResult:
    def test_reference_attaches_partial_on_failure(self, small_dense_problem):
        with pytest.raises(ConvergenceError) as ei:
            solve_reference(small_dense_problem, tol=1e-300, max_rounds=1,
                            iters_per_round=5, raise_on_failure=True)
        partial = ei.value.partial
        assert isinstance(partial, SolveResult)
        assert not partial.converged
        assert partial.w.shape == (small_dense_problem.d,)
        assert np.isfinite(partial.meta["fstar"])
