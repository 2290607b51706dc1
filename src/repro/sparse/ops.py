"""Sampled Gram-matrix kernels and flop accounting.

These implement the two quantities RC-SFISTA builds every inner iteration
(Eq. 18 of the paper):

.. math::

    H_n = \\frac{1}{\\bar m} X I_n I_n^T X^T, \\qquad
    R_n = \\frac{1}{\\bar m} X I_n I_n^T y

where ``X`` is the (d × m) data matrix, ``I_n`` selects ``m̄`` sampled
columns, and ``y`` holds the labels. The flop helpers return the *sparse*
operation counts the paper's model charges (Table 1), computed from matrix
metadata so the cost model and the numerics cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.sparse.csr import CSCMatrix, CSRMatrix

__all__ = [
    "GramWorkspace",
    "sampled_gram",
    "sampled_rhs",
    "gram_flops",
    "rhs_flops",
    "spmv_flops",
    "gemv_flops",
    "dense_gram_flops",
]

Matrix = np.ndarray | CSRMatrix | CSCMatrix


class GramWorkspace:
    """Reusable column-block pool for :func:`sampled_gram`/:func:`sampled_rhs`.

    Solvers build the sampled Gram matrix every inner iteration with the
    same ``d`` and (typically) the same sample count ``m̄``. For a sparse
    ``X`` the densified column block can therefore be gathered into one
    pool allocated up front and reused. A dense ``X`` never borrows: fancy
    indexing ``X[:, cols]`` already returns a fresh contiguous block, and
    it is several times faster than ``np.take`` into a borrowed one.
    Construct one workspace per solver run and pass it to the kernels;
    results are bit-identical to the allocating path.

    ``reuses`` counts borrows served without growing the pool — it feeds
    the ``gram_workspace_reuses`` runtime counter (see docs/PERFORMANCE.md).
    """

    def __init__(self, d: int, max_cols: int = 0) -> None:
        d = int(d)
        if d < 1:
            raise ShapeError(f"GramWorkspace needs d >= 1, got {d}")
        self._pool = np.empty(d * int(max_cols), dtype=np.float64)
        self.reuses = 0

    def dense_block(self, rows: int, ncols: int) -> np.ndarray:
        """Borrow a C-contiguous ``(rows, ncols)`` float64 block.

        The block is a reshaped view of a flat pool (grown on demand), so
        its memory layout matches the C-ordered array sparse
        ``to_dense()`` allocates — dgemm summation order follows the
        layout, so this keeps results bit-identical.
        """
        rows, ncols = int(rows), int(ncols)
        need = rows * ncols
        if need > self._pool.size:
            self._pool = np.empty(need, dtype=np.float64)
        else:
            self.reuses += 1
        return self._pool[:need].reshape(rows, ncols)


def _select_columns_dense(
    X: Matrix, cols: np.ndarray, workspace: GramWorkspace | None = None
) -> np.ndarray:
    """Materialize ``X[:, cols]`` densely for Gram formation."""
    if isinstance(X, np.ndarray):
        if X.ndim != 2:
            raise ShapeError(f"X must be 2-D, got shape {X.shape}")
        return X[:, cols]
    if isinstance(X, CSRMatrix):
        X = X.to_csc()  # memoized on the CSR instance
    cols = np.asarray(cols, dtype=np.int64)
    if workspace is not None:
        return X.gather_columns_dense(cols, out=workspace.dense_block(X.shape[0], cols.size))
    return X.select_columns(cols).to_dense()


def sampled_gram(
    X: Matrix,
    cols: np.ndarray,
    *,
    scale: float | None = None,
    workspace: GramWorkspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Dense sampled Gram matrix ``(1/m̄) X_S X_Sᵀ`` with ``S = cols``.

    Parameters
    ----------
    X:
        Data matrix of shape ``(d, m)`` — dense, CSR or CSC.
    cols:
        Sampled column (sample) indices, duplicates allowed.
    scale:
        Override for the ``1/m̄`` normalization (``None`` → ``1/len(cols)``).
    workspace:
        Optional :class:`GramWorkspace`; when given, a sparse ``X``'s
        densified column block is borrowed instead of allocated. Results
        are bit-identical to the allocating path.
    out:
        Optional ``(d, d)`` float64 output buffer, written in place.

    Returns
    -------
    ``(d, d)`` dense array, exactly symmetric and positive semi-definite.
    """
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        raise ShapeError("sampled_gram requires at least one sampled column")
    A = _select_columns_dense(X, cols, workspace)
    s = (1.0 / cols.size) if scale is None else float(scale)
    d = A.shape[0]
    if out is None:
        out = np.empty((d, d), dtype=np.float64)
    elif out.shape != (d, d) or out.dtype != np.float64:
        raise ShapeError(f"out must be float64 of shape {(d, d)}")
    # No symmetrization pass is needed: numpy evaluates A @ A.T (one
    # buffer, one side transposed) with BLAS syrk and copies one triangle
    # onto the other, and its non-BLAS fallback computes (i, j) and (j, i)
    # from the same products in the same order, so sG is exactly
    # symmetric. For such sG, 0.5 * (sG + sGᵀ) = 0.5 * (2 sG) = sG bit for
    # bit (doubling and halving are exact in binary floating point), save
    # that sG + sGᵀ overflows to inf where |sG| > DBL_MAX/2.
    np.matmul(A, A.T, out=out)
    out *= s
    return out


def sampled_rhs(
    X: Matrix,
    y: np.ndarray,
    cols: np.ndarray,
    *,
    scale: float | None = None,
    workspace: GramWorkspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sampled right-hand side ``(1/m̄) X_S y_S``.

    ``workspace``/``out`` mirror :func:`sampled_gram`: borrow a sparse
    ``X``'s column block and write the result in place, bit-identically.
    """
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        raise ShapeError("sampled_rhs requires at least one sampled column")
    y = np.asarray(y, dtype=np.float64)
    A = _select_columns_dense(X, cols, workspace)
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
# flop accounting (sparse-aware, used to charge the α-β-γ model)
# ---------------------------------------------------------------------- #
def _nnz_of_columns(X: Matrix, cols: np.ndarray) -> int:
    """Stored entries of ``X[:, cols]`` without materializing it."""
    cols = np.asarray(cols, dtype=np.int64)
    if isinstance(X, np.ndarray):
        d = X.shape[0]
        return int(d * cols.size)
    if isinstance(X, CSRMatrix):
        # Without a CSC view, estimate via average column fill; exact value
        # needs a column histogram which callers that care precompute.
        avg = X.nnz / X.shape[1] if X.shape[1] else 0.0
        return int(round(avg * cols.size))
    per_col = X.col_nnz()
    return int(per_col[cols].sum())


def gram_flops(X: Matrix, cols: np.ndarray, d: int | None = None) -> int:
    """Flops to form ``X_S X_Sᵀ`` sparsely: ``Σ_s nnz(x_s)²`` multiply-adds.

    The paper's Table 1 models this as ``O(d² m̄ f)``; with uniformly
    distributed non-zeros ``nnz(x_s) ≈ d·f`` and the two agree. We charge
    2 flops per multiply-add.
    """
    cols = np.asarray(cols, dtype=np.int64)
    if isinstance(X, np.ndarray):
        dd = X.shape[0]
        return int(2 * dd * dd * cols.size)
    if isinstance(X, CSCMatrix):
        per_col = X.col_nnz()[cols].astype(np.int64)
        return int(2 * np.sum(per_col * per_col))
    # CSR fallback: average fill model.
    dd = d if d is not None else X.shape[0]
    f = X.density
    return int(round(2 * dd * dd * f * f * cols.size)) if f else 0


def rhs_flops(X: Matrix, cols: np.ndarray) -> int:
    """Flops to form ``X_S y_S`` (2 per stored entry of the sampled block)."""
    return 2 * _nnz_of_columns(X, cols)


def spmv_flops(nnz: int) -> int:
    """Flops for a sparse matrix-vector product with *nnz* stored entries."""
    return 2 * int(nnz)


def gemv_flops(n: int, m: int) -> int:
    """Flops for a dense ``(n × m)`` matrix-vector product."""
    return 2 * int(n) * int(m)


def dense_gram_flops(d: int, mbar: int) -> int:
    """Flops for dense formation of a ``d×d`` Gram from ``d×m̄`` data."""
    return 2 * int(d) * int(d) * int(mbar)
