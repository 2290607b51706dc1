"""The ``serve_lambda_path`` workload: a closed loop against ``repro serve``.

A server child (perfbench/serve_child.py) runs the program's own
``repro serve`` with default settings. Two client threads (never more than
``nproc``) each submit a job and wait for its result through the program's
``ServeClient`` before sending the next, so the loop is closed: a slower
server receives less load.

Jobs come from a sequence fixed by the seed. Each draws one of 24 synthetic
problems (d=120, m=480) with skewed popularity, so the 16-entry problem
cache evicts. λ is log-uniform between 3% and 30% of the problem's λ_max,
so most FISTA jobs warm-start from a neighbouring λ (``path``); 10% of jobs
repeat a λ already drawn for their problem (``exact``). Every fifth job
runs ``rc_sfista_dist`` on 4 simulated ranks, which takes no warm start; a
fixed position rather than a random draw keeps the mix, and with it the
throughput, the same for every seed.
"""

from __future__ import annotations

import json
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.objectives import L1LeastSquares
from repro.core.path import lambda_max
from repro.core.reference import solve_reference
from repro.core.stopping import relative_objective_error
from repro.data.synthetic import make_regression
from repro.serve import ServeClient, ServeHTTPError

import run as bench

HERE = Path(__file__).resolve().parent
N_SPECS = 24
D, M = 120, 480
RC_EVERY = 5
EXACT_SHARE = 0.1
LAM_BAND = (0.03, 0.3)
# sim_s is the mean over the rc jobs among the first MIN_JOBS of the
# sequence; the loop always completes those, so it repeats for a seed. (Most
# rc jobs run their full budget, so a median would sit on that plateau.)
MIN_JOBS = 300
SEQUENCE = 6000
VERIFY_EVERY = 10
VERIFY_MAX = 30
# Relative objective error a verified job must reach, per solver: FISTA runs
# to a 1e-9 relative change, RC-SFISTA within a 150-iteration budget.
VERIFY_TOL = {"fista": 1e-4, "rc_sfista_dist": 5e-2}
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


@dataclass
class Spec:
    seed: int
    problem: L1LeastSquares  # at λ = 1; λ_max fixes the job λ scale
    lam_max: float


@dataclass
class JobRecord:
    index: int
    solver: str
    latency: float
    ok: bool
    reason: str = ""
    queue_s: float = float("nan")
    solve_s: float = float("nan")
    warm: str = ""
    iterations: int = 0
    sim_s: float = float("nan")
    w: list | None = None


def build_specs(seed: int) -> list[Spec]:
    rng = np.random.default_rng([seed, 4099])
    specs = []
    for s in rng.integers(2**31, size=N_SPECS):
        # The server builds the same problem from the spec's synthetic keys
        # and its defaults (density 1, support 0.2, noise 0.05).
        X, y, _w = make_regression(D, M, density=1.0, support_fraction=0.2, noise=0.05, rng=int(s))
        problem = L1LeastSquares(X, y, 1.0)
        specs.append(Spec(int(s), problem, lambda_max(problem)))
    return specs


def job_sequence(seed: int, specs: list[Spec]) -> list[tuple[int, dict]]:
    """``(spec index, request)`` for every job the loop may send."""
    rng = np.random.default_rng([seed, 8191])
    weights = 1.0 / np.arange(1, N_SPECS + 1) ** 1.1
    popularity = rng.permutation(weights / weights.sum())
    drawn: list[list[float]] = [[] for _ in specs]
    jobs = []
    for i in range(SEQUENCE):
        j = int(rng.choice(N_SPECS, p=popularity))
        if drawn[j] and rng.random() < EXACT_SHARE:
            lam = drawn[j][int(rng.integers(len(drawn[j])))]
        else:
            lam = float(np.exp(rng.uniform(*np.log(LAM_BAND)))) * specs[j].lam_max
            drawn[j].append(lam)
        request = {
            "problem": {"synthetic": {"d": D, "m": M, "seed": specs[j].seed}},
            "tenant": f"tenant{j % 4}",
            "lam": lam,
        }
        if i % RC_EVERY == 0:
            request["solver"] = "rc_sfista_dist"
            request["runtime"] = {
                "nranks": 4, "k": 2, "b": 0.1, "epochs": 6, "iters_per_epoch": 25,
                "seed": int(rng.integers(2**31)),
            }
        else:
            request["solver"] = "fista"
            request["max_iter"] = 1000
        jobs.append((j, request))
    return jobs


# --------------------------------------------------------------------------- #
# server child
# --------------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` child; ``stop`` waits until it has exited."""

    def __init__(self, span_path: Path | None = None) -> None:
        cmd = [sys.executable, str(HERE / "serve_child.py")]
        if span_path is not None:
            span_path.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans", str(span_path)]
        cmd += ["serve", "--port", "0"]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=bench.ROOT)
        try:
            self.url = self._await_listening(t0 + START_TIMEOUT)
            client = ServeClient(self.url, timeout=5.0)
            while True:
                try:
                    if client.healthz().get("ok"):
                        break
                except OSError:
                    pass
                if time.perf_counter() > t0 + START_TIMEOUT:
                    raise RuntimeError("server never answered /v1/healthz")
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise
        self.startup_s = time.perf_counter() - t0

    def _await_listening(self, deadline: float) -> str:
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(f"server exited with {self.proc.wait()}")
                match = re.search(r"http://[\w.]+:\d+", line)
                if match:
                    return match.group(0)
        raise RuntimeError("server did not report its address")

    def stop(self) -> str:
        """SIGINT, then wait; returns what the child printed after starting."""
        self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop on SIGINT") from None
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


# --------------------------------------------------------------------------- #
# closed loop
# --------------------------------------------------------------------------- #
def drive(url: str, jobs, seconds: float, min_jobs: int, clients: int):
    """Closed loop: each client thread sends its next job after a reply."""
    records: list[JobRecord] = []
    lock = threading.Lock()
    cursor = [0]
    errors: list[BaseException] = []
    deadline = time.perf_counter() + seconds

    def client_loop() -> None:
        client = ServeClient(url, timeout=60.0)
        while True:
            with lock:
                i = cursor[0]
                if i >= len(jobs) or (i >= min_jobs and time.perf_counter() >= deadline):
                    return
                cursor[0] += 1
            records.append(_one_job(client, i, jobs[i][1]))

    def guarded() -> None:
        try:
            client_loop()
        except BaseException as exc:  # noqa: BLE001 — re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    records.sort(key=lambda r: r.index)
    return records, wall


def _one_job(client: ServeClient, index: int, request: dict) -> JobRecord:
    solver = request["solver"]
    t0 = time.perf_counter()
    try:
        payload = client.result(client.submit(request), timeout=60.0)
    except (ServeHTTPError, TimeoutError, OSError) as exc:
        return JobRecord(index, solver, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    result = payload.get("result") or {}
    if payload.get("state") != "done":
        return JobRecord(index, solver, latency, False, f"ended {payload.get('state')!r}")
    return JobRecord(
        index, solver, latency, True,
        queue_s=float(payload["queue_seconds"]),
        solve_s=float(payload["solve_seconds"]),
        warm=result.get("warm_start", ""),
        iterations=int(result.get("n_iterations", 0)),
        sim_s=float(result.get("sim_time", float("nan"))),
        w=result.get("w"),
    )


def verify(records: list[JobRecord], jobs, specs: list[Spec]) -> None:
    """Check a seeded sample of finished jobs against certified optima."""
    checked = 0
    fstars: dict[tuple[int, float], float] = {}
    for rec in records:
        if not rec.ok or rec.index % VERIFY_EVERY:
            continue
        if checked >= VERIFY_MAX:
            break
        checked += 1
        j, request = jobs[rec.index]
        lam = request["lam"]
        base = specs[j].problem
        problem = L1LeastSquares(base.X, base.y, lam)
        key = (j, lam)
        if key not in fstars:
            ref = solve_reference(problem, tol=1e-8, raise_on_failure=True)
            fstars[key] = float(ref.meta["fstar"])
        w = np.asarray(rec.w, dtype=np.float64)
        if w.shape != (D,):
            rec.ok, rec.reason = False, f"result w has shape {w.shape}"
            continue
        err = relative_objective_error(float(problem.value(w)), fstars[key])
        if not err <= VERIFY_TOL[rec.solver]:
            rec.ok, rec.reason = False, f"{rec.solver} relative error {err:.3g} at λ={lam:.4g}"


def _counter_total(snapshot: dict, name: str) -> float:
    return float(sum(snapshot.get(name, {}).get("values", {}).values()))


# --------------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------------- #
def run(seed: int, seconds: float, trace: bool, *, import_s: float, span_path: Path):
    clients = min(2, bench.host_fingerprint()["nproc"])
    builds, starts = [], []
    for _ in range(bench.SETUP_REPEATS):
        t0 = time.perf_counter()
        specs = build_specs(seed)
        jobs = job_sequence(seed, specs)
        builds.append(time.perf_counter() - t0)
    live: list[Server] = []  # killed on any error, so no child outlives the run
    try:
        for k in range(bench.SETUP_REPEATS):
            live.append(Server())
            starts.append(live[-1].startup_s)
            if k < bench.SETUP_REPEATS - 1:
                live.pop().stop()
        setup_s = import_s + statistics.median(builds) + statistics.median(starts)
        window = seconds / 2 if trace else seconds
        min_jobs = MIN_JOBS // 2 if trace else MIN_JOBS
        records, wall, snapshot, _out, server_peak_mb = _session(
            live, jobs, window, min_jobs, clients
        )
        traced = None
        if trace:
            polls = _PollCounter()
            live.append(Server(span_path))
            with polls:
                traced, _wall, snapshot, out, _peak = _session(
                    live, jobs, window, min_jobs, clients
                )
            span_line = [ln for ln in out.splitlines() if ln.startswith("PERFBENCH_SPANS ")]
            if not span_line:
                raise RuntimeError("traced server printed no spans")
            server_spans = json.loads(span_line[-1][len("PERFBENCH_SPANS "):])
    finally:
        for srv in live:
            srv.kill()

    verify(records, jobs, specs)
    if traced is not None:
        verify(traced, jobs, specs)
    everything = records + (traced or [])
    attempted = len(everything)
    failed = sum(not r.ok for r in everything)
    reasons = [f"job {r.index}: {r.reason}" for r in everything if not r.ok]

    if trace:
        metrics = bench.Metrics(bench.PER_LAYER_UNITS)
        _layer_metrics(metrics, traced, records, server_spans, snapshot, polls.count)
        return metrics, attempted, failed, reasons

    metrics = bench.Metrics(bench.END_TO_END_UNITS)
    done = [r for r in records if r.ok]
    latencies = [r.latency for r in records]
    solve = [r.solve_s for r in done]
    sims = [r.sim_s for r in done if r.solver == "rc_sfista_dist" and r.index < MIN_JOBS]
    metrics.set("solve_s.p50", bench.percentile(solve, 50), len(solve))
    metrics.set("solve_s.p90", bench.tail(solve, 90), len(solve))
    metrics.set("sim_s", statistics.fmean(sims), len(sims))
    metrics.set("job_s.p50", bench.percentile(latencies, 50), len(latencies))
    metrics.set("job_s.p95", bench.tail(latencies, 95), len(latencies))
    metrics.set("jobs_per_s", len(done) / wall, len(done))
    metrics.set("setup_s", setup_s, bench.SETUP_REPEATS)
    metrics.set("peak_rss_mb", server_peak_mb, 1)
    metrics.set("ok_ratio", (attempted - failed) / attempted, attempted)
    return metrics, attempted, failed, reasons


def _session(live: list[Server], jobs, window: float, min_jobs: int, clients: int):
    """Drive the newest live server, read its metrics and peak RSS (MB),
    then stop it."""
    server = live[-1]
    records, wall = drive(server.url, jobs, window, min_jobs, clients)
    snapshot = ServeClient(server.url).metrics()["metrics"]
    peak_mb = bench.rss_mb(server.proc.pid, "VmHWM")
    out = server.stop()
    live.pop()
    return records, wall, snapshot, out, peak_mb


class _PollCounter:
    """Counts result polls made by ``ServeClient`` while installed."""

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()
        self._original = None

    def __enter__(self):
        self._original = original = ServeClient._request
        counter = self

        def counted(client, method, path, body=None):
            if path.endswith("/result"):
                with counter._lock:
                    counter.count += 1
            return original(client, method, path, body)

        ServeClient._request = counted
        return self

    def __exit__(self, *exc) -> None:
        ServeClient._request = self._original


def _layer_metrics(metrics, traced, plain, server_spans, snapshot, polls) -> None:
    done = [r for r in traced if r.ok]
    n = max(len(done), 1)
    bench.span_metrics(metrics, server_spans["labels"], server_spans["counters"], n)
    metrics.set("core.iters", statistics.median(r.iterations for r in done), n)
    metrics.set("serve.queue_s.p50", bench.percentile([r.queue_s for r in done], 50), n)
    for solver, name in (("fista", "fista"), ("rc_sfista_dist", "rc")):
        times = [r.solve_s for r in done if r.solver == solver]
        metrics.set(f"serve.solve_s.{name}.p50", bench.percentile(times, 50), len(times))
    overhead = [r.latency - r.queue_s - r.solve_s for r in done]
    metrics.set("serve.overhead_s.p50", bench.percentile(overhead, 50), n)
    metrics.set("serve.polls_per_job", polls / max(len(traced), 1), len(traced))
    for kind in ("path", "exact", "cold"):
        metrics.set(f"serve.cache.{kind}_ratio", sum(r.warm == kind for r in done) / n, n)
    metrics.set("serve.cache.evictions", _counter_total(snapshot, "serve_cache_evictions_total"), 1)
    metrics.set(
        "serve.batched_ratio", _counter_total(snapshot, "serve_batched_jobs_total") / n, n
    )
    metrics.set(
        "trace.overhead",
        bench.percentile([r.latency for r in traced], 50)
        / bench.percentile([r.latency for r in plain], 50),
        n,
    )
