"""Scheduler: batching bit-identity, cancellation, failure mapping, metrics."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serve.protocol import SubmitRequest
from repro.serve.scheduler import Scheduler

pytestmark = pytest.mark.serve

_SPEC = {"synthetic": {"d": 12, "m": 60, "seed": 11}}


def _request(lam: float, *, tenant: str = "t", warm: bool = True, **extra) -> SubmitRequest:
    return SubmitRequest.from_json({
        "problem": _SPEC, "tenant": tenant, "lam": lam,
        "max_iter": 200, "warm_start": warm, **extra,
    })


def _run(coro):
    return asyncio.run(coro)


async def _submit_and_wait(scheduler: Scheduler, requests, timeout=30.0):
    jobs = [scheduler.submit(r) for r in requests]
    for job in jobs:
        assert await scheduler.wait(job, timeout)
    return jobs


class TestExecution:
    def test_solo_job_completes_with_result(self):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                (job,) = await _submit_and_wait(s, [_request(0.05)])
            finally:
                await s.stop()
            assert job.state == "done"
            assert job.result["warm_start"] == "cold"
            assert job.result["nnz"] >= 0
            assert job.solve_seconds is not None
        _run(main())

    def test_repeated_lambda_warm_starts(self):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                (first,) = await _submit_and_wait(s, [_request(0.05)])
                (second,) = await _submit_and_wait(s, [_request(0.05)])
            finally:
                await s.stop()
            assert first.result["warm_start"] == "cold"
            assert second.result["warm_start"] == "exact"
            assert second.result["n_iterations"] < first.result["n_iterations"]
        _run(main())

    def test_batched_results_bit_identical_to_individual(self):
        """The acceptance criterion: batching never changes numerics."""
        lams = [0.08, 0.05, 0.03, 0.05]

        async def individually():
            s = Scheduler(batch_max=1)
            await s.start()
            try:
                jobs = []
                for lam in lams:  # strictly sequential: no batching possible
                    jobs += await _submit_and_wait(s, [_request(lam)])
            finally:
                await s.stop()
            return [np.asarray(j.result["w"]) for j in jobs]

        async def batched():
            s = Scheduler(batch_max=8, max_workers=1)
            await s.start()
            try:
                # Submit all before the worker can start draining: the head
                # job pulls the rest into one multi-start batch.
                jobs = [s.submit(_request(lam)) for lam in lams]
                for job in jobs:
                    assert await s.wait(job, 30.0)
            finally:
                await s.stop()
            batched_count = s.metrics.counter("serve_batched_jobs_total").value()
            return [np.asarray(j.result["w"]) for j in jobs], batched_count

        solo = _run(individually())
        grouped, batched_count = _run(batched())
        assert batched_count > 0, "batch path was not exercised"
        for w_solo, w_batch in zip(solo, grouped):
            np.testing.assert_array_equal(w_solo, w_batch)
        _run(batched())  # determinism of the batch path itself

    def test_batch_respects_batch_key(self):
        async def main():
            s = Scheduler(batch_max=8)
            await s.start()
            try:
                other_spec = {"synthetic": {"d": 10, "m": 50, "seed": 12}}
                a = s.submit(_request(0.05))
                b = s.submit(SubmitRequest.from_json(
                    {"problem": other_spec, "lam": 0.05, "max_iter": 200}))
                for job in (a, b):
                    assert await s.wait(job, 30.0)
                assert a.state == b.state == "done"
            finally:
                await s.stop()
        _run(main())


class TestCancellation:
    def test_cancel_mid_queue_removes_job(self):
        async def main():
            s = Scheduler()
            # Not started: jobs stay queued. Use internal submit guard off.
            await s.start()
            try:
                # Occupy the single worker with a slower job first.
                blocker = s.submit(_request(0.001, max_iter=3000, rel_change_tol=None))
                victim = s.submit(_request(0.05, tenant="other"))
                cancelled = s.cancel(victim.id)
                assert cancelled.state == "cancelled"
                assert await s.wait(victim, 1.0)
                assert victim.result is None
                assert await s.wait(blocker, 30.0)
                assert blocker.state == "done"
            finally:
                await s.stop()
            counter = s.metrics.counter("serve_requests_total")
            assert counter.value(tenant="other", state="cancelled") == 1
        _run(main())

    def test_cancel_mid_solve_drops_result(self, monkeypatch):
        from repro.serve import scheduler

        # Hold the solve on a latch so the cancel lands mid-solve for sure,
        # instead of racing a merely slow 60 000-iteration FISTA.
        started, released = threading.Event(), threading.Event()
        solve = scheduler.fista

        def latched(*args, **kwargs):
            started.set()
            if not released.wait(timeout=60):
                raise TimeoutError("latched solve was never released")
            return solve(*args, **kwargs)

        monkeypatch.setattr(scheduler, "fista", latched)

        async def main():
            s = Scheduler()
            await s.start()
            try:
                job = s.submit(_request(0.0005, max_iter=60000, rel_change_tol=None))
                assert await asyncio.to_thread(started.wait, 30)
                assert job.state == "running"
                s.cancel(job.id)
                released.set()
                assert await s.wait(job, 60.0)
                assert job.state == "cancelled"
                assert job.result is None
            finally:
                released.set()
                await s.stop()
        _run(main())

    def test_cancel_finished_job_is_noop(self):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                (job,) = await _submit_and_wait(s, [_request(0.05)])
                assert s.cancel(job.id).state == "done"
                assert s.cancel("job-missing") is None
            finally:
                await s.stop()
        _run(main())

    def test_stop_cancels_queued_jobs(self):
        async def main():
            s = Scheduler()
            await s.start()
            blocker = s.submit(_request(0.001, max_iter=3000, rel_change_tol=None))
            queued = s.submit(_request(0.07, tenant="later"))
            await s.stop()
            assert blocker.finished
            assert queued.state == "cancelled"
        _run(main())


class TestFailures:
    def test_solver_failure_maps_to_structured_error(self):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                # RuntimeConfig rejects checkpoint_every < 0: per-job failure.
                bad = SubmitRequest.from_json({
                    "problem": {"synthetic": {"d": 4, "m": 20}},
                    "solver": "rc_sfista_spmd",
                    "runtime": {"nranks": 2, "checkpoint_every": -1},
                })
                job = s.submit(bad)
                assert await s.wait(job, 30.0)
            finally:
                await s.stop()
            assert job.state == "failed"
            assert job.error_status == 400
            assert job.error["retryable"] is False
        _run(main())

    def test_unknown_runtime_key_fails_job(self):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                job = s.submit(SubmitRequest.from_json({
                    "problem": _SPEC, "runtime": {"bogus_knob": 1},
                    "solver": "sfista_dist",
                }))
                assert await s.wait(job, 30.0)
            finally:
                await s.stop()
            assert job.state == "failed" and job.error_status == 400
        _run(main())


class TestObservability:
    def test_latency_and_request_metrics_published(self):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                await _submit_and_wait(s, [_request(0.05, tenant="m1")])
                await _submit_and_wait(s, [_request(0.05, tenant="m1")])
            finally:
                await s.stop()
            snap = s.metrics.snapshot()
            requests = snap["serve_requests_total"]["values"]
            assert requests.get("state=done,tenant=m1") == 2.0
            latency = snap["serve_latency_seconds"]["values"]
            assert latency["phase=solve,warm=cold"]["count"] == 1.0
            assert latency["phase=solve,warm=exact"]["count"] == 1.0
            assert latency["phase=total,warm=exact"]["count"] == 1.0
        _run(main())

    def test_per_request_report(self):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                (job,) = await _submit_and_wait(
                    s, [_request(0.05, include_report=True)])
            finally:
                await s.stop()
            assert job.report is not None
            assert job.report["solver"] == "fista"
        _run(main())

    def test_runtime_solver_report_carries_telemetry(self):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                req = SubmitRequest.from_json({
                    "problem": _SPEC, "solver": "rc_sfista_dist",
                    "include_report": True,
                    "runtime": {"nranks": 2, "epochs": 1, "iters_per_epoch": 10},
                })
                (job,) = await _submit_and_wait(s, [req])
            finally:
                await s.stop()
            assert job.state == "done"
            assert job.report["solver"] == "rc_sfista_distributed"
            assert len(job.report["iterations"]) > 0
        _run(main())


class TestGeneralObjectives:
    """Serve e2e for non-default (loss, penalty) problem specs."""

    @pytest.mark.parametrize("solver, runtime", [
        ("fista", {}),
        ("sfista_dist", {"nranks": 2, "epochs": 1, "iters_per_epoch": 15}),
        ("rc_sfista_dist", {"nranks": 2, "epochs": 1, "iters_per_epoch": 15}),
        ("rc_sfista_spmd", {"nranks": 2, "epochs": 1, "iters_per_epoch": 15}),
    ])
    def test_logistic_elastic_net_solves_end_to_end(self, solver, runtime):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                req = SubmitRequest.from_json({
                    "problem": {**_SPEC, "loss": "logistic",
                                "penalty": "elastic_net:l2=0.5"},
                    "solver": solver, "max_iter": 60, "runtime": runtime,
                })
                (job,) = await _submit_and_wait(s, [req])
            finally:
                await s.stop()
            assert job.state == "done", job.error
            assert np.all(np.isfinite(np.asarray(job.result["w"])))
            # rc_sfista_spmd monitors objectives only when a feature
            # consumes them, so the payload key is optional there.
            if "final_objective" in job.result:
                assert np.isfinite(job.result["final_objective"])
        _run(main())

    def test_group_lasso_warm_start_stays_within_its_objective(self):
        async def main():
            s = Scheduler()
            await s.start()
            try:
                grouped = {**_SPEC, "loss": "logistic", "penalty": "group_l1:size=3"}
                (cold,) = await _submit_and_wait(s, [SubmitRequest.from_json(
                    {"problem": grouped, "lam": 0.05, "max_iter": 120})])
                # Same λ under the legacy objective: a different cache
                # entry, so its ladder must not see the grouped iterate.
                (other,) = await _submit_and_wait(s, [SubmitRequest.from_json(
                    {"problem": _SPEC, "lam": 0.05, "max_iter": 120})])
                (warm,) = await _submit_and_wait(s, [SubmitRequest.from_json(
                    {"problem": grouped, "lam": 0.05, "max_iter": 120})])
            finally:
                await s.stop()
            assert cold.result["warm_start"] == "cold"
            assert other.result["warm_start"] == "cold"
            assert warm.result["warm_start"] == "exact"
        _run(main())

    def test_unknown_objective_rejected_at_submission(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="allowed values"):
            SubmitRequest.from_json({
                "problem": {**_SPEC, "loss": "hinge"},
            })


@pytest.mark.collectives
class TestCompressionVariants:
    def test_compressed_results_never_seed_lossless_warm_starts(self):
        """Collectives v2: every solve records into the ladder keyed by its
        canonical comm_compress spec. A quantized distributed solve at λ
        must not warm-start a later lossless fista request at the same λ
        (their fixed points differ); fista's own ladder still hits."""
        async def main():
            runtime = {
                "nranks": 2, "epochs": 1, "iters_per_epoch": 40,
                "comm_compress": "quant:bits=8",
            }
            s = Scheduler()
            await s.start()
            try:
                await _submit_and_wait(
                    s, [_request(0.05, solver="sfista_dist", runtime=runtime)]
                )
                (first,) = await _submit_and_wait(s, [_request(0.05)])
                (second,) = await _submit_and_wait(s, [_request(0.05)])
            finally:
                await s.stop()
            assert first.result["warm_start"] == "cold"  # not polluted
            assert second.result["warm_start"] == "exact"
        _run(main())
