"""Sparse collectives: numerics, bit-identity, accounting, and comm modes."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.objectives import L1LeastSquares
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.synthetic import make_regression
from repro.distsim import collectives as coll
from repro.distsim.bsp import BSPCluster
from repro.distsim.engine import SPMDEngine
from repro.distsim.faults import FaultPlan, PayloadCorruption
from repro.distsim.machine import get_machine
from repro.distsim.sparse_collectives import (
    COMM_MODES,
    SparseVector,
    as_sparse_vector,
    resolve_comm_mode,
    sparse_allreduce_values,
    support_union_size,
)
from repro.distsim.trace import Trace
from repro.exceptions import CommunicatorError, ValidationError
from repro.runtime import RuntimeConfig


def _random_sparse(rng: np.random.Generator, n: int, nnz: int) -> np.ndarray:
    x = np.zeros(n)
    if nnz:
        idx = rng.choice(n, size=nnz, replace=False)
        x[idx] = rng.standard_normal(nnz)
    return x


# ---------------------------------------------------------------------- #
# SparseVector
# ---------------------------------------------------------------------- #
class TestSparseVector:
    def test_roundtrip(self, rng):
        x = _random_sparse(rng, 50, 7)
        sv = SparseVector.from_dense(x)
        assert sv.nnz == 7
        assert sv.density == pytest.approx(7 / 50)
        np.testing.assert_array_equal(sv.to_dense(), x)

    def test_empty_support(self):
        sv = SparseVector.from_dense(np.zeros(10))
        assert sv.nnz == 0
        np.testing.assert_array_equal(sv.to_dense(), np.zeros(10))

    def test_validation(self):
        with pytest.raises(ValidationError):
            SparseVector(n=5, indices=np.array([0, 7]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            SparseVector(n=5, indices=np.array([2, 1]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            SparseVector(n=5, indices=np.array([1, 1]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            SparseVector(n=5, indices=np.array([0]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            SparseVector.from_dense(np.zeros((3, 3)))

    def test_explicit_zeros_kept(self):
        sv = SparseVector(n=4, indices=np.array([1, 3]), values=np.array([0.0, 2.0]))
        assert sv.nnz == 2  # explicit zero occupies wire words, like MPI


# ---------------------------------------------------------------------- #
# algorithm invariance (ISSUE satellite): dense and sparse allreduce are
# bit-identical across all algorithms and rank counts
# ---------------------------------------------------------------------- #
class TestAlgorithmInvariance:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 8])
    @pytest.mark.parametrize("algorithm", coll.ALLREDUCE_ALGORITHMS)
    def test_bit_identical_across_algorithms_and_modes(self, nranks, algorithm):
        rng = np.random.default_rng(1000 + nranks)
        vals = [_random_sparse(rng, 64, rng.integers(0, 12)) for _ in range(nranks)]
        if nranks > 1:
            vals[1] = np.zeros(64)  # one empty-support contribution
        reference = coll.allreduce_values(vals)

        dense_cluster = BSPCluster(nranks, "comet_paper", allreduce_algorithm=algorithm)
        dense = dense_cluster.allreduce([v.copy() for v in vals])
        assert dense.tobytes() == reference.tobytes()

        sparse_cluster = BSPCluster(nranks, "comet_paper", allreduce_algorithm=algorithm)
        sparse = sparse_cluster.sparse_allreduce(
            [SparseVector.from_dense(v) for v in vals]
        )
        assert sparse.tobytes() == reference.tobytes()

        def program(ctx):
            out = yield ctx.allreduce(SparseVector.from_dense(vals[ctx.rank]), comm="sparse")
            return out

        engine = SPMDEngine(nranks, "comet_paper", allreduce_algorithm=algorithm)
        for out in engine.run(program):
            assert out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("nranks", [1, 2, 3, 8])
    def test_all_empty_supports(self, nranks):
        vals = [np.zeros(32) for _ in range(nranks)]
        cluster = BSPCluster(nranks, "comet_paper")
        out = cluster.sparse_allreduce(vals)
        np.testing.assert_array_equal(out, np.zeros(32))
        if nranks > 1:
            # An all-zero payload costs only the latency rounds.
            assert cluster.counters[0].words == 0.0
            assert cluster.counters[0].messages > 0

    @pytest.mark.parametrize("op", ["sum", "max", "min"])
    def test_ops_match_dense(self, op, rng):
        vals = [_random_sparse(rng, 40, 6) for _ in range(5)]
        reference = coll.allreduce_values(vals, op)
        got = sparse_allreduce_values([SparseVector.from_dense(v) for v in vals], op)
        assert got.to_dense().tobytes() == reference.tobytes()


# ---------------------------------------------------------------------- #
# oracle: the pairwise union1d/searchsorted reduction the one-pass kernel
# replaced, kept verbatim as the byte-identity reference
# ---------------------------------------------------------------------- #
def _oracle_combine_sparse(a, b, combine):
    union = np.union1d(a.indices, b.indices)
    av = np.zeros(union.size)
    bv = np.zeros(union.size)
    av[np.searchsorted(union, a.indices)] = a.values
    bv[np.searchsorted(union, b.indices)] = b.values
    return SparseVector(n=a.n, indices=union, values=combine(av, bv))


def _oracle_sparse_allreduce(vectors, op="sum"):
    svs = [as_sparse_vector(v) for v in vectors]
    combine = coll.resolve_reduce_op(op)
    level = list(svs)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(_oracle_combine_sparse(level[i], level[i + 1], combine))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _oracle_union_size(vectors):
    union = None
    for v in vectors:
        idx = as_sparse_vector(v).indices
        union = idx if union is None else np.union1d(union, idx)
    return int(union.size)


# A signalling NaN: max/min carry its bits through, ``x + 0.0`` would not.
_SNAN = float(np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0])
_SPECIAL = (0.0, -0.0, np.nan, -np.nan, _SNAN, np.inf, -np.inf, 1.0, -2.5, 1e-300, 3.0e300)
_entries = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@st.composite
def _contribution(draw, n):
    """A dense row (mostly zeros) or a SparseVector with stored zeros."""
    if draw(st.booleans()):
        zeros = st.sampled_from((0.0, 0.0, -0.0))
        return np.array(
            draw(st.lists(st.one_of(zeros, zeros, _entries), min_size=n, max_size=n)),
            dtype=np.float64,
        )
    idx = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)) if n else set())
    vals = draw(st.lists(_entries, min_size=len(idx), max_size=len(idx)))
    return SparseVector(n=n, indices=np.array(idx, dtype=np.int64), values=np.array(vals))


@st.composite
def _collective(draw):
    p = draw(st.integers(1, 17))
    n = draw(st.integers(0, 64))
    op = draw(st.sampled_from(("sum", "max", "min", "prod")))
    return op, [draw(_contribution(n)) for _ in range(p)]


_MACHINE = get_machine("comet_effective")


def _assert_same_bits(got: np.ndarray, ref: np.ndarray) -> None:
    """Byte equality, except that a NaN only has to be a NaN.

    When two NaNs meet, IEEE 754 leaves open whose sign and payload
    survive, and numpy's SIMD body and scalar tail answer differently. The
    pairwise union1d reduction therefore never matched the dense reduction
    bit for bit there either; every other value (-0.0 included) must.
    """
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(ref))
    assert got[~nan].tobytes() == ref[~nan].tobytes()


def _copies(contribs):
    return [v if isinstance(v, SparseVector) else v.copy() for v in contribs]


class TestOracleByteIdentity:
    """The one-pass kernel reproduces the pairwise union1d reduction bit for bit."""

    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(_collective())
    def test_kernel_matches_oracle(self, case):
        op, contribs = case
        with np.errstate(all="ignore"):
            ref = _oracle_sparse_allreduce(contribs, op)
            got = sparse_allreduce_values(_copies(contribs), op)
        assert got.nnz == ref.nnz
        assert got.indices.tobytes() == ref.indices.tobytes()
        _assert_same_bits(got.values, ref.values)
        _assert_same_bits(got.to_dense(), ref.to_dense())
        assert support_union_size(contribs) == _oracle_union_size(contribs)

    @pytest.mark.parametrize("op", ["sum", "max", "min", "prod"])
    @pytest.mark.parametrize("nranks", [1, 2, 5])
    @pytest.mark.parametrize("owner_kind", ["dense", "sparse"])
    def test_stored_bits_survive(self, op, nranks, owner_kind):
        """Where no two NaNs meet, NaN payloads and stored -0.0 keep their bits."""
        n = 9
        owner = SparseVector(
            n=n, indices=np.array([1, 4, 6]), values=np.array([_SNAN, -0.0, -np.nan])
        )
        if owner_kind == "dense":
            owner = owner.to_dense()  # its -0.0 is now off the support
        other = SparseVector(n=n, indices=np.array([0, 2, 4]), values=np.array([-0.0, 2.5, 1.0]))
        contribs = [owner] + [other] * (nranks - 1)
        with np.errstate(all="ignore"):
            ref = _oracle_sparse_allreduce(contribs, op)
            got = sparse_allreduce_values(_copies(contribs), op)
        assert got.indices.tobytes() == ref.indices.tobytes()
        assert got.values.tobytes() == ref.values.tobytes()

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(_collective(), st.sampled_from(("sparse", "auto")))
    def test_bsp_and_engine_match_oracle(self, case, mode):
        """Result, charged cost, sparse/saved words and trace detail as before."""
        op, contribs = case
        p, n = len(contribs), as_sparse_vector(contribs[0]).n
        with np.errstate(all="ignore"):
            ref = _oracle_sparse_allreduce(contribs, op)
            nnz = _oracle_union_size(contribs)
            if resolve_comm_mode(mode, union_density=nnz / n if n else 0.0) == "sparse":
                expected = ref.to_dense()
                cost = coll.sparse_allreduce_cost(_MACHINE, p, n, nnz)
                dense = coll.allreduce_cost(_MACHINE, p, float(n))
                sparse_words, saved = cost.words, dense.words - cost.words
                detail = f"sparse nnz={nnz}/{n}"
            else:
                expected = coll.allreduce_values(
                    [as_sparse_vector(v).to_dense() for v in contribs], op
                )
                cost = coll.allreduce_cost(_MACHINE, p, float(n))
                sparse_words = saved = 0.0
                detail = f"auto->dense nnz={nnz}/{n}"

            cluster = BSPCluster(p, "comet_effective", trace=Trace())
            out = cluster.allreduce_comm(_copies(contribs), mode=mode, op=op)

            def program(ctx):
                res = yield ctx.allreduce(_copies(contribs)[ctx.rank], op=op, comm=mode)
                return res

            engine = SPMDEngine(p, "comet_effective", trace=Trace())
            engine_out = engine.run(program)

        _assert_same_bits(out, expected)
        c = cluster.counters[0]
        assert (c.words, c.messages, c.clock) == (cost.words, cost.messages, cost.time)
        assert (c.sparse_words, c.saved_words) == (sparse_words, saved)
        assert [e.detail for e in cluster.trace.events] == [detail]
        # The engine reduces over the union on both auto branches.
        for r in engine_out:
            _assert_same_bits(r, ref.to_dense())
        e = engine.counters[0]
        assert (e.words, e.messages, e.sparse_words, e.saved_words) == (
            c.words, c.messages, c.sparse_words, c.saved_words
        )
        assert [ev.detail for ev in engine.trace.events if ev.label == "allreduce"] == [detail]


# ---------------------------------------------------------------------- #
# numerics-level errors
# ---------------------------------------------------------------------- #
class TestSparseNumerics:
    def test_zero_ranks_rejected(self):
        with pytest.raises(CommunicatorError):
            sparse_allreduce_values([])

    def test_length_mismatch_rejected(self):
        a = SparseVector.from_dense(np.ones(4))
        b = SparseVector.from_dense(np.ones(5))
        with pytest.raises(CommunicatorError, match="length mismatch"):
            sparse_allreduce_values([a, b])

    def test_union_support_kept_on_cancellation(self):
        a = SparseVector(n=6, indices=np.array([2]), values=np.array([1.5]))
        b = SparseVector(n=6, indices=np.array([2]), values=np.array([-1.5]))
        out = sparse_allreduce_values([a, b])
        assert out.nnz == 1  # cancelled entry still occupies the wire
        assert out.to_dense()[2] == 0.0

    def test_support_union_size(self):
        vs = [
            SparseVector(n=10, indices=np.array([0, 3]), values=np.ones(2)),
            SparseVector(n=10, indices=np.array([3, 7]), values=np.ones(2)),
        ]
        assert support_union_size(vs) == 3


# ---------------------------------------------------------------------- #
# BSP accounting + comm-mode dispatch
# ---------------------------------------------------------------------- #
class TestBSPAccounting:
    def test_sparse_words_and_savings_counted(self, rng):
        n, nranks = 200, 4
        vals = [_random_sparse(rng, n, 5) for _ in range(nranks)]
        cluster = BSPCluster(nranks, "comet_effective", trace=Trace())
        cluster.sparse_allreduce(vals)
        c = cluster.counters[0]
        dense = coll.allreduce_cost(cluster.machine, nranks, float(n))
        assert c.sparse_words == c.words
        assert c.saved_words == dense.words - c.words
        assert c.words < dense.words
        event = cluster.trace.events[0]
        assert event.detail.startswith("sparse nnz=")

    def test_charge_sparse_allreduce_matches_real(self, rng):
        n, nranks = 300, 4
        vals = [_random_sparse(rng, n, 8) for _ in range(nranks)]
        real = BSPCluster(nranks, "comet_effective")
        reduced = real.sparse_allreduce(vals)
        nnz_union = int(np.count_nonzero(np.sum([v != 0 for v in vals], axis=0)))
        dry = BSPCluster(nranks, "comet_effective")
        dry.charge_sparse_allreduce(n, nnz_union)
        assert dry.counters[0].words == real.counters[0].words
        assert dry.counters[0].clock == real.counters[0].clock
        assert reduced.shape == (n,)

    def test_allreduce_comm_auto_densifies_at_high_fill(self, rng):
        nranks = 4
        dense_vals = [rng.standard_normal(50) for _ in range(nranks)]
        cluster = BSPCluster(nranks, "comet_effective", trace=Trace())
        out = cluster.allreduce_comm(dense_vals, mode="auto")
        np.testing.assert_array_equal(out, coll.allreduce_values(dense_vals))
        event = cluster.trace.events[0]
        assert event.detail.startswith("auto->dense")
        dense_cost = coll.allreduce_cost(cluster.machine, nranks, 50.0)
        assert cluster.counters[0].words == dense_cost.words
        assert cluster.counters[0].saved_words == 0.0

    def test_allreduce_comm_auto_picks_sparse_at_low_fill(self, rng):
        nranks = 4
        vals = [_random_sparse(rng, 400, 4) for _ in range(nranks)]
        cluster = BSPCluster(nranks, "comet_effective", trace=Trace())
        cluster.allreduce_comm(vals, mode="auto")
        assert cluster.trace.events[0].detail.startswith("sparse nnz=")
        assert cluster.counters[0].saved_words > 0

    def test_allreduce_comm_rejects_unknown_mode(self):
        cluster = BSPCluster(2, "comet_paper")
        with pytest.raises(ValidationError, match="comm mode"):
            cluster.allreduce_comm([np.ones(3), np.ones(3)], mode="zstd")

    def test_sparse_allreduce_shape_mismatch(self):
        cluster = BSPCluster(2, "comet_paper")
        with pytest.raises(CommunicatorError, match="length mismatch"):
            cluster.sparse_allreduce([np.ones(3), np.ones(4)])


class TestResolveCommMode:
    def test_modes(self):
        assert resolve_comm_mode("dense", union_density=0.0) == "dense"
        assert resolve_comm_mode("sparse", union_density=1.0) == "sparse"
        assert resolve_comm_mode("auto", union_density=0.1) == "sparse"
        assert resolve_comm_mode("auto", union_density=0.9) == "dense"
        assert (
            resolve_comm_mode("auto", union_density=coll.SPARSE_SWITCH_DENSITY) == "dense"
        )
        with pytest.raises(ValidationError):
            resolve_comm_mode("bogus", union_density=0.1)
        assert COMM_MODES == ("dense", "sparse", "auto")


# ---------------------------------------------------------------------- #
# SPMD engine parity
# ---------------------------------------------------------------------- #
class TestSPMDParity:
    def test_engine_counters_match_bsp(self, rng):
        nranks, n = 4, 120
        vals = [_random_sparse(rng, n, 6) for _ in range(nranks)]

        bsp = BSPCluster(nranks, "comet_effective")
        expected = bsp.sparse_allreduce([v.copy() for v in vals])

        def program(ctx):
            out = yield ctx.allreduce(vals[ctx.rank], comm="sparse")
            return out

        engine = SPMDEngine(nranks, "comet_effective")
        results = engine.run(program)
        for out in results:
            assert out.tobytes() == expected.tobytes()
        for eng_c, bsp_c in zip(engine.counters, bsp.counters):
            assert eng_c.words == bsp_c.words
            assert eng_c.sparse_words == bsp_c.sparse_words
            assert eng_c.saved_words == bsp_c.saved_words

    def test_engine_auto_logs_decision(self, rng):
        vals = [_random_sparse(rng, 100, 3) for _ in range(3)]

        def program(ctx):
            out = yield ctx.allreduce(vals[ctx.rank], comm="auto")
            return out

        engine = SPMDEngine(3, "comet_effective", trace=Trace())
        engine.run(program)
        events = [e for e in engine.trace.events if e.label == "allreduce"]
        assert events and events[0].detail.startswith("sparse nnz=")


# ---------------------------------------------------------------------- #
# fault corruption on the sparse / auto paths of a real solve
# ---------------------------------------------------------------------- #
def _sha(arr) -> str:
    return hashlib.sha256(np.asarray(arr, dtype=np.float64).tobytes()).hexdigest()[:16]


def _solve_problem(density: float) -> L1LeastSquares:
    X, y, _w = make_regression(24, 80, density=density, noise=0.05, rng=11)
    grad0 = X.matvec(y) / 80 if hasattr(X, "matvec") else X @ y / 80
    return L1LeastSquares(X, y, 0.05 * float(np.max(np.abs(grad0))))


_CORRUPTED_COST = {
    "nranks": 4, "flops_per_rank_max": 32964.0, "messages_per_rank_max": 12.0,
    "words_per_rank_max": 2696.0, "flops_total": 130588.0, "words_total": 10784.0,
    "messages_total": 48.0, "sparse_words_total": 10784.0, "saved_words_total": 46816.0,
    "retry_messages_total": 0.0, "retry_words_total": 0.0, "checkpoint_words_total": 0.0,
}


@pytest.mark.faults
class TestSparseCorruption:
    """One rank's bit-flipped contribution on the sparse and auto paths.

    On the sparse path the corruption picks its victim among the rank's
    *stored* values (its support), on the auto->dense path among all ``n``
    entries of the densified buffer. The pins fix both choices through the
    iterates, the charged cost and the ``corrupt:`` trace event of a P=4
    RC-SFISTA solve.
    """

    @pytest.mark.parametrize(
        "density, comm, at_op, w_sha, obj_sha, cost, corrupt_at",
        [
            (0.08, "sparse", 0, "da19d1ab9394d272", "a40a2ba1ff3798e0",
             {**_CORRUPTED_COST, "elapsed": 2.5570032e-05}, 4e-08),
            (0.08, "auto", 0, "da19d1ab9394d272", "a40a2ba1ff3798e0",
             {**_CORRUPTED_COST, "elapsed": 2.5570032e-05}, 4e-08),
            (0.6, "auto", 1, "f85ccf509272bce0", "d01dda287b4bc783",
             {**_CORRUPTED_COST, "elapsed": 3.337439999999999e-05,
              "flops_per_rank_max": 47056.0, "words_per_rank_max": 14400.0,
              "flops_total": 171996.0, "words_total": 57600.0,
              "sparse_words_total": 0.0, "saved_words_total": 0.0},
             6.543999999999999e-06),
        ],
        ids=["sparse", "auto-sparse", "auto-dense"],
    )
    def test_corrupted_solve_pinned(self, density, comm, at_op, w_sha, obj_sha, cost, corrupt_at):
        plan = FaultPlan(corruptions=(PayloadCorruption(rank=1, at_op=at_op, mode="bitflip"),))
        cluster = BSPCluster(4, "comet_paper", trace=Trace(), injector=plan)
        res = rc_sfista_distributed(
            _solve_problem(density), 4, k=2, S=2, b=0.1, epochs=1, iters_per_epoch=12,
            estimator="plain", seed=0, monitor_every=4,
            runtime=RuntimeConfig(comm=comm, cluster=cluster),
        )
        assert _sha(res.w) == w_sha
        assert _sha(res.history.objective_array) == obj_sha
        assert res.cost == cost
        corrupt = [(e.label, e.start, e.detail) for e in cluster.trace.events
                   if e.label.startswith("corrupt:")]
        assert corrupt == [
            ("corrupt:allreduce_G", corrupt_at, "rank 1 contribution corrupted (bitflip)")
        ]

    def test_corruption_changes_the_solve(self):
        clean = rc_sfista_distributed(
            _solve_problem(0.08), 4, k=2, S=2, b=0.1, epochs=1, iters_per_epoch=12,
            estimator="plain", seed=0, monitor_every=4,
            runtime=RuntimeConfig(comm="sparse", cluster=BSPCluster(4, "comet_paper")),
        )
        assert _sha(clean.w) != "da19d1ab9394d272"
