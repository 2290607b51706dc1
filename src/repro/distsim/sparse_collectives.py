"""Sparse-aware collectives: index+value buffers with exact numerics.

The paper's point is that communication volume dominates proximal Newton at
scale — and the vectors the solvers exchange (gradients under an active
set, sampled-Hessian blocks of a sparse design matrix) are themselves
sparse. SparCML (Renggli et al.) shows that shipping ``(index, value)``
pairs instead of the dense vector cuts the words on the wire to
O(nnz_union), switching back to the dense representation once fill makes
the encoding counterproductive ("stream-and-switch").

This module provides the *numerics* of that subsystem:

* :class:`SparseVector` — an immutable COO vector (sorted unique ``int64``
  indices + ``float64`` values over a logical length ``n``).
* :func:`support_union_size` — one boolean pass over the per-rank
  supports measures the union a sparse allreduce ships.
* :func:`sparse_allreduce_values` — gathers every contribution onto that
  union and reduces the rows with the dense
  :func:`~repro.distsim.collectives.allreduce_values` tournament, so the
  two paths are **bit-identical** on the same inputs, for every allreduce
  algorithm and rank count.

The matching α-β-γ cost formulas live in
:mod:`repro.distsim.collectives` (:func:`sparse_allreduce_cost` et al.);
:class:`~repro.distsim.bsp.BSPCluster` and the SPMD engine glue the two
together and log densification decisions into the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import CommunicatorError, ValidationError
from repro.distsim import collectives as coll
from repro.distsim.collectives import SPARSE_SWITCH_DENSITY

__all__ = [
    "SparseVector",
    "as_sparse_vector",
    "check_contributions",
    "densify",
    "sparse_allreduce_values",
    "sparse_allgather_values",
    "support_union_size",
    "COMM_MODES",
    "resolve_comm_mode",
]

# Values accepted by the solvers' / collectives' ``comm`` knob.
COMM_MODES = ("dense", "sparse", "auto")


@dataclass(frozen=True)
class SparseVector:
    """Immutable sparse vector in coordinate (index+value) form.

    Attributes
    ----------
    n:
        Logical (dense) length.
    indices:
        Sorted, unique ``int64`` positions of the stored entries.
    values:
        ``float64`` stored values. Explicit zeros are kept — they occupy
        wire words exactly like MPI would ship them.
    """

    n: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1:
            raise ValidationError("indices and values must be one-dimensional")
        if indices.size != values.size:
            raise ValidationError(
                f"indices and values disagree in length: {indices.size} vs {values.size}"
            )
        if self.n < 0:
            raise ValidationError(f"vector length must be >= 0, got {self.n}")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n:
                raise ValidationError(f"indices out of range for length {self.n}")
            if np.any(np.diff(indices) <= 0):
                raise ValidationError("indices must be strictly increasing")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_dense(x: np.ndarray) -> "SparseVector":
        """Extract the nonzero support of a dense 1-D array."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 1:
            raise ValidationError(f"from_dense expects a 1-D array, got shape {arr.shape}")
        idx = np.flatnonzero(arr)
        return SparseVector(n=arr.size, indices=idx.astype(np.int64), values=arr[idx])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.float64)
        out[self.indices] = self.values
        return out

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def density(self) -> float:
        return self.nnz / self.n if self.n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseVector(n={self.n}, nnz={self.nnz})"


def as_sparse_vector(value: "SparseVector | np.ndarray") -> SparseVector:
    """Accept either representation; densify nothing, sparsify dense input."""
    if isinstance(value, SparseVector):
        return value
    return SparseVector.from_dense(np.asarray(value, dtype=np.float64))


def check_contributions(
    vectors: Sequence["SparseVector | np.ndarray"], what: str = "sparse allreduce"
) -> tuple[list["SparseVector | np.ndarray"], int]:
    """Validate per-rank contributions without encoding them.

    Dense inputs become 1-D ``float64`` arrays (no copy when they already
    are); :class:`SparseVector` inputs pass through. Returns the list and
    the common logical length ``n``.
    """
    if len(vectors) == 0:
        raise CommunicatorError(f"{what} over zero ranks")
    items = [v if isinstance(v, SparseVector) else np.asarray(v, dtype=np.float64)
             for v in vectors]
    lengths = []
    for v in items:
        if not isinstance(v, SparseVector) and v.ndim != 1:
            raise ValidationError(f"{what} expects 1-D buffers, got shape {v.shape}")
        lengths.append(v.n if isinstance(v, SparseVector) else v.size)
    for i, m in enumerate(lengths):
        if m != lengths[0]:
            raise CommunicatorError(
                f"{what} length mismatch: rank 0 has n={lengths[0]}, rank {i} has n={m}"
            )
    return items, int(lengths[0])


def _support_mask(items: Sequence["SparseVector | np.ndarray"], n: int) -> np.ndarray:
    """One pass over the contributions: ``True`` wherever any rank ships a word.

    A :class:`SparseVector` ships its stored entries (explicit zeros
    included); a dense array ships its nonzeros (NaN counts as nonzero).
    """
    mask = np.zeros(n, dtype=bool)
    nonzero = np.empty(n, dtype=bool)
    for v in items:
        if isinstance(v, SparseVector):
            mask[v.indices] = True
        else:
            np.not_equal(v, 0.0, out=nonzero)
            mask |= nonzero
    return mask


def _gather(v: "SparseVector | np.ndarray", union: np.ndarray) -> np.ndarray:
    """One rank's contribution read at the union positions.

    Positions outside the rank's support read as ``+0.0`` — a dense
    ``-0.0`` is not shipped, so it is rewritten (by assignment, not by
    adding ``0.0``, which would quiet a signalling NaN); stored values
    (explicit ``-0.0`` and every NaN payload included) keep their exact bits.
    """
    if isinstance(v, SparseVector):
        row = np.zeros(union.size)
        row[np.searchsorted(union, v.indices)] = v.values
        return row
    row = np.take(v, union)
    np.copyto(row, 0.0, where=row == 0.0)
    return row


def densify(v: "SparseVector | np.ndarray") -> np.ndarray:
    """The dense buffer a contribution stands for: its support, ``+0.0`` elsewhere."""
    if isinstance(v, SparseVector):
        return v.to_dense()
    out = np.array(v, dtype=np.float64)
    np.copyto(out, 0.0, where=out == 0.0)
    return out


def sparse_allreduce_values(
    vectors: Sequence["SparseVector | np.ndarray"],
    op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
    *,
    union: np.ndarray | None = None,
) -> SparseVector:
    """Reduce per-rank contributions over the union of their supports.

    Each contribution (dense or :class:`SparseVector`) is gathered onto the
    sorted support union ``U`` — missing entries as exact ``+0.0`` — and the
    ``|U|``-long rows go through the dense
    :func:`~repro.distsim.collectives.allreduce_values` tournament: the
    same pairwise order and the same ``combine(x, 0.0)`` at every position
    as the dense reduction of the densified inputs, so the two paths are
    bit-identical (``combine(0, 0) == +0.0`` for sum/max/min/prod).

    The result's support is ``U``; entries that cancel to zero stay stored,
    as an MPI sparse allreduce would keep shipping them. Pass *union* when
    :func:`support_union_size` has already measured it.
    """
    items, n = check_contributions(vectors)
    if union is None:
        union = np.flatnonzero(_support_mask(items, n))
    reduced = coll.allreduce_values([_gather(v, union) for v in items], op)
    return SparseVector(n=n, indices=union, values=reduced)


def sparse_allgather_values(
    vectors: Sequence["SparseVector | np.ndarray"],
) -> list[SparseVector]:
    """Recursive-doubling allgather of per-rank sparse vectors.

    Complements PR 1's stream-and-switch all*reduce* path: no reduction
    happens — every rank ends up holding all ``P`` contributions, in rank
    order, still in index+value form. The exchange is the dissemination
    (Bruck) schedule: in round ``r`` rank ``i`` receives rank
    ``(i + 2^r) mod P``'s current holdings, so holdings double each round
    and ⌈log₂P⌉ rounds suffice for any ``P`` — the round structure
    :func:`~repro.distsim.collectives.sparse_allgather_cost` charges.

    The gathered vectors are the inputs themselves (gather moves data,
    it never rewrites it), so ``sparse_allgather_values(vs)[i].to_dense()``
    equals the dense allgather of ``[v.to_dense() for v in vs]`` exactly.
    """
    items, _ = check_contributions(vectors, "sparse allgather")
    svs = [as_sparse_vector(v) for v in items]
    p = len(svs)
    # holdings[i] maps source rank -> contribution; doubles every round.
    holdings: list[dict[int, SparseVector]] = [{i: svs[i]} for i in range(p)]
    stride = 1
    while stride < p:
        holdings = [
            {**holdings[i], **holdings[(i + stride) % p]} for i in range(p)
        ]
        stride *= 2
    result = [holdings[0][src] for src in range(p)]
    for i in range(p):
        if len(holdings[i]) != p:  # pragma: no cover - schedule invariant
            raise CommunicatorError(f"allgather incomplete on rank {i}")
    return result


def support_union_size(
    vectors: Sequence["SparseVector | np.ndarray"], *, return_union: bool = False
) -> "int | tuple[int, np.ndarray]":
    """Number of entries in the union of the per-rank supports.

    One boolean pass over the contributions; with ``return_union`` the
    sorted union indices come back too, ready for
    :func:`sparse_allreduce_values`.
    """
    items, n = check_contributions(vectors, "support union")
    union = np.flatnonzero(_support_mask(items, n))
    if return_union:
        return int(union.size), union
    return int(union.size)


def resolve_comm_mode(mode: str, *, union_density: float) -> str:
    """Resolve a ``comm`` knob value to the concrete path for one phase.

    ``"auto"`` picks the sparse path while the measured union density is
    below the stream-and-switch threshold
    :data:`~repro.distsim.collectives.SPARSE_SWITCH_DENSITY`, densifying
    above it — the per-phase decision the solvers log into the trace.
    """
    if mode not in COMM_MODES:
        raise ValidationError(f"unknown comm mode {mode!r}; choose from {COMM_MODES}")
    if mode == "auto":
        return "sparse" if union_density < SPARSE_SWITCH_DENSITY else "dense"
    return mode
