"""The dense sampled-Gram kernel is bit-identical to its previous form.

``sampled_gram`` used to gather a dense column block with ``np.take`` into
an F-ordered workspace block and to symmetrize its product explicitly
(``0.5 * (H + Hᵀ)``, or ``np.add(scratch, scratch.T)`` through a d×d
scratch). It now returns ``X[:, cols]`` and computes one ``A @ Aᵀ`` plus a
scale. This module keeps the previous kernel verbatim as a reference and
checks, bit for bit:

(a) the kernel itself over dense, CSR and CSC inputs, with and without a
    workspace, with a fresh or a packed ``out=`` buffer, column counts
    1/2/7/60 with duplicates and an all-zero column, default or given
    scale;
(b) whole solves: with the reference patched in wherever a solver builds
    a sampled Gram (or right-hand side), iterates, objective histories
    and charged costs equal those of the current kernel.

Nothing here pins a platform-specific hash: both sides run on the same
BLAS, so the comparison is exact on any host.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.objectives import L1LeastSquares
from repro.core.prox_newton import proximal_newton, proximal_newton_distributed
from repro.core.rc_sfista import rc_sfista
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.rc_sfista_spmd import rc_sfista_spmd
from repro.core.sfista_dist import sfista_distributed
from repro.data.synthetic import make_regression
from repro.exceptions import ShapeError
from repro.runtime import RuntimeConfig
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.sparse.ops import GramWorkspace, sampled_gram, sampled_rhs
from repro.sparse.random import random_csr

# By module object: ``repro.core`` re-exports functions that shadow the
# ``rc_sfista``/``prox_newton`` submodule attributes.
_GRAM_CALLERS = [
    importlib.import_module(f"repro.core.{name}")
    for name in ("_dist_common", "prox_newton", "rc_sfista")
]


# ---------------------------------------------------------------------- #
# reference: the previous kernel, verbatim (workspace class renamed)
# ---------------------------------------------------------------------- #
class _RefGramWorkspace:
    def __init__(self, d: int, max_cols: int = 0) -> None:
        d = int(d)
        if d < 1:
            raise ShapeError(f"GramWorkspace needs d >= 1, got {d}")
        self._pool = np.empty(d * int(max_cols), dtype=np.float64)
        self._scratch = np.empty((d, d), dtype=np.float64)
        self.reuses = 0

    def dense_block(self, rows: int, ncols: int, order: str = "C") -> np.ndarray:
        rows, ncols = int(rows), int(ncols)
        need = rows * ncols
        if need > self._pool.size:
            self._pool = np.empty(need, dtype=np.float64)
        else:
            self.reuses += 1
        flat = self._pool[:need]
        if order == "F":
            return flat.reshape(ncols, rows).T
        return flat.reshape(rows, ncols)

    def gram_scratch(self, d: int) -> np.ndarray:
        if self._scratch.shape != (d, d):
            self._scratch = np.empty((d, d), dtype=np.float64)
        else:
            self.reuses += 1
        return self._scratch


def _ref_select_columns_dense(X, cols, workspace=None):
    if isinstance(X, np.ndarray):
        if X.ndim != 2:
            raise ShapeError(f"X must be 2-D, got shape {X.shape}")
        if workspace is not None:
            block = workspace.dense_block(X.shape[0], len(cols), order="F")
            np.take(X, cols, axis=1, out=block)
            return block
        return X[:, cols]
    if isinstance(X, CSRMatrix):
        X = X.to_csc()
    cols = np.asarray(cols, dtype=np.int64)
    if workspace is not None:
        return X.gather_columns_dense(cols, out=workspace.dense_block(X.shape[0], cols.size))
    return X.select_columns(cols).to_dense()


def _ref_sampled_gram(X, cols, *, scale=None, workspace=None, out=None):
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        raise ShapeError("sampled_gram requires at least one sampled column")
    A = _ref_select_columns_dense(X, cols, workspace)
    s = (1.0 / cols.size) if scale is None else float(scale)
    if workspace is None:
        H = A @ A.T
        H *= s
        H = 0.5 * (H + H.T)
        if out is None:
            return H
        np.copyto(out, H)
        return out
    d = A.shape[0]
    scratch = workspace.gram_scratch(d)
    np.matmul(A, A.T, out=scratch)
    scratch *= s
    if out is None:
        out = np.empty((d, d), dtype=np.float64)
    elif out.shape != (d, d) or out.dtype != np.float64:
        raise ShapeError(f"out must be float64 of shape {(d, d)}")
    np.add(scratch, scratch.T, out=out)
    out *= 0.5
    return out


def _ref_sampled_rhs(X, y, cols, *, scale=None, workspace=None, out=None):
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        raise ShapeError("sampled_rhs requires at least one sampled column")
    y = np.asarray(y, dtype=np.float64)
    A = _ref_select_columns_dense(X, cols, workspace)
    if y.ndim != 1 or A.shape[1] != cols.size:
        raise ShapeError("y must be 1-D and consistent with X")
    s = (1.0 / cols.size) if scale is None else float(scale)
    if workspace is None and out is None:
        return s * (A @ y[cols])
    d = A.shape[0]
    if out is None:
        out = np.empty(d, dtype=np.float64)
    elif out.shape != (d,) or out.dtype != np.float64:
        raise ShapeError(f"out must be float64 of shape {(d,)}")
    np.matmul(A, y[cols], out=out)
    out *= s
    return out


# ---------------------------------------------------------------------- #
# (a) the kernel
# ---------------------------------------------------------------------- #
D, M = 40, 300
ZERO_COL = 5


@pytest.fixture(scope="module")
def matrices():
    csr = random_csr(D, M, 0.3, rng=11)
    dense = csr.to_dense()
    dense[:, ZERO_COL] = 0.0
    csr = CSRMatrix.from_dense(dense)
    assert isinstance(csr.to_csc(), CSCMatrix)
    return {"dense": dense, "csr": csr, "csc": csr.to_csc()}


def _columns(ncols: int) -> np.ndarray:
    cols = np.random.default_rng(ncols).integers(0, M, size=ncols)
    if ncols >= 2:
        cols[-1] = cols[0]  # forced duplicate
    if ncols >= 7:
        cols[1] = ZERO_COL
    return cols


def _packed_out(d: int) -> np.ndarray:
    # The solvers' stage-C layout: [H_0 | R_0 | H_1 | R_1] in one flat
    # buffer; H_1 is a reshaped view at a non-zero offset.
    stride = d * d + d
    flat = np.full(2 * stride, np.nan)
    return flat[stride : stride + d * d].reshape(d, d)


@pytest.mark.parametrize("scale", [None, 0.37])
@pytest.mark.parametrize("ncols", [1, 2, 7, 60])
@pytest.mark.parametrize("out_kind", ["none", "packed"])
@pytest.mark.parametrize("use_workspace", [False, True])
@pytest.mark.parametrize("kind", ["dense", "csr", "csc"])
def test_kernel_equals_reference(matrices, kind, use_workspace, out_kind, ncols, scale):
    X = matrices[kind]
    cols = _columns(ncols)
    ref = _ref_sampled_gram(
        X, cols, scale=scale, workspace=_RefGramWorkspace(D, ncols) if use_workspace else None
    )
    workspace = GramWorkspace(D, ncols) if use_workspace else None
    for _pass in range(2):  # the second pass runs on warm workspace buffers
        out = _packed_out(D) if out_kind == "packed" else None
        H = sampled_gram(X, cols, scale=scale, workspace=workspace, out=out)
        if out is not None:
            assert H is out
        assert np.array_equal(H, ref)
        assert np.array_equal(H, H.T)


@pytest.mark.parametrize("ncols", [1, 2, 7, 60])
@pytest.mark.parametrize("use_workspace", [False, True])
@pytest.mark.parametrize("kind", ["dense", "csr", "csc"])
def test_rhs_equals_reference(matrices, kind, use_workspace, ncols):
    X = matrices[kind]
    y = np.random.default_rng(3).standard_normal(M)
    cols = _columns(ncols)
    ref = _ref_sampled_rhs(
        X, y, cols, workspace=_RefGramWorkspace(D, ncols) if use_workspace else None
    )
    got = sampled_rhs(X, y, cols, workspace=GramWorkspace(D, ncols) if use_workspace else None)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("ncols", [50, 300])
@pytest.mark.parametrize("layout", ["C", "F", "strided_view"])
def test_dense_layouts_and_blas_sizes_equal_reference(layout, ncols):
    # d and m̄ past the BLAS blocking sizes, in every layout a caller can
    # hand in (distribute_problem passes column-slice views).
    base = np.random.default_rng(ncols).standard_normal((300, 600))
    X = {
        "C": base,
        "F": np.asfortranarray(base),
        "strided_view": np.repeat(base, 2, axis=1)[:, ::2],
    }[layout]
    cols = np.random.default_rng(1).integers(0, 600, size=ncols)
    for use_workspace in (False, True):
        ref = _ref_sampled_gram(
            X, cols, workspace=_RefGramWorkspace(300, ncols) if use_workspace else None
        )
        got = sampled_gram(X, cols, workspace=GramWorkspace(300, ncols) if use_workspace else None)
        assert np.array_equal(got, ref)
        assert np.array_equal(got, got.T)


def test_out_is_validated(matrices):
    with pytest.raises(ShapeError):
        sampled_gram(matrices["dense"], _columns(7), out=np.empty((D, D + 1)))
    with pytest.raises(ShapeError):
        sampled_gram(matrices["dense"], _columns(7), out=np.empty((D, D), dtype=np.float32))


# ---------------------------------------------------------------------- #
# (b) whole solves with the reference patched in
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dense_problem() -> L1LeastSquares:
    X, y, _w = make_regression(24, 320, density=1.0, noise=0.05, rng=17)
    assert isinstance(X, np.ndarray)
    lam = 0.05 * float(np.max(np.abs(X @ y))) / 320
    return L1LeastSquares(X, y, lam)


def _patch_reference(monkeypatch) -> None:
    """Route every solver's sampled Gram/RHS through the reference.

    The solvers hand the kernels their own :class:`GramWorkspace`; each
    one is mapped to a long-lived reference workspace so the reference
    runs its workspace branch on warm buffers, as it did in place.
    """
    # Keyed by id(); the solver's workspace is kept alive alongside its
    # twin so the id cannot be recycled mid-test.
    twins: dict[int, tuple[GramWorkspace, _RefGramWorkspace]] = {}

    def twin(workspace, X):
        if workspace is None:
            return None
        if id(workspace) not in twins:
            twins[id(workspace)] = (workspace, _RefGramWorkspace(X.shape[0]))
        return twins[id(workspace)][1]

    def gram(X, cols, *, scale=None, workspace=None, out=None):
        return _ref_sampled_gram(X, cols, scale=scale, workspace=twin(workspace, X), out=out)

    def rhs(X, y, cols, *, scale=None, workspace=None, out=None):
        return _ref_sampled_rhs(X, y, cols, scale=scale, workspace=twin(workspace, X), out=out)

    for module in _GRAM_CALLERS:
        monkeypatch.setattr(module, "sampled_gram", gram)
        if hasattr(module, "sampled_rhs"):
            monkeypatch.setattr(module, "sampled_rhs", rhs)


SOLVES = {
    "rc_sfista_dist": lambda p, rt: rc_sfista_distributed(
        p, 4, k=2, S=2, b=0.2, epochs=2, iters_per_epoch=6, seed=3, runtime=rt
    ),
    "sfista_dist": lambda p, rt: sfista_distributed(
        p, 4, b=0.2, epochs=2, iters_per_epoch=6, seed=3, runtime=rt
    ),
    "prox_newton_dist": lambda p, rt: proximal_newton_distributed(
        p, 4, n_outer=2, inner_iters=6, k=2, b=0.2, seed=3, runtime=rt
    ),
    "rc_sfista_spmd": lambda p, rt: rc_sfista_spmd(
        p, 4, k=2, b=0.2, n_iterations=12, seed=3, runtime=rt
    ),
}


def _fingerprint(result):
    return result.w.tobytes(), list(result.history.objectives), result.cost


# rc_sfista_spmd always runs on the SPMD engine and rejects "threads".
@pytest.mark.parametrize(
    ("solver", "backend"),
    [(s, b) for s in sorted(SOLVES) for b in ("bsp", "threads")
     if (s, b) != ("rc_sfista_spmd", "threads")],
)
def test_solves_equal_reference(dense_problem, monkeypatch, solver, backend):
    run = SOLVES[solver]
    current = _fingerprint(run(dense_problem, RuntimeConfig(backend=backend)))
    _patch_reference(monkeypatch)
    reference = _fingerprint(run(dense_problem, RuntimeConfig(backend=backend)))
    assert current[0] == reference[0]
    assert current[1] == reference[1]
    assert current[2] == reference[2]


def test_serial_solves_equal_reference(dense_problem, monkeypatch):
    def runs():
        return (
            rc_sfista(dense_problem, k=2, S=2, b=0.2, epochs=2, iters_per_epoch=6, seed=3),
            proximal_newton(dense_problem, n_outer=3, inner_iters=6, b_hessian=0.2, seed=3),
        )

    current = [_fingerprint(r) for r in runs()]
    _patch_reference(monkeypatch)
    reference = [_fingerprint(r) for r in runs()]
    assert current == reference
