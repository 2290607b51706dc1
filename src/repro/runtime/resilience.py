"""Runtime resilience primitives: checkpoints, numerical guards, stats.

The distributed solvers run on a substrate that can fail
(:mod:`repro.distsim.faults`). This module holds the pieces the
:class:`~repro.runtime.driver.ResilientLoop` uses to survive those
failures in-band:

* :class:`Checkpoint` — a deep snapshot of the iterate, momentum and RNG
  state at a round boundary. Restoring it and replaying is *bit-exact*:
  the RNG state makes the replayed rounds draw the same sample sets, so a
  recovered run converges to exactly the fault-free solution.
* :class:`NumericalGuard` — NaN/Inf screening of collective results with
  a configurable policy (``"raise"`` / ``"rollback"`` / ``"recompute"``).
* :class:`RecoveryStats` — counts of checkpoints, rollbacks, recomputes
  and momentum restarts, reported in ``SolveResult.meta["resilience"]``.

Checkpoint and recovery *traffic* is charged by the substrate
(:meth:`repro.distsim.bsp.BSPCluster.checkpoint` /
:meth:`~repro.distsim.bsp.BSPCluster.recover`), tagged into the
``checkpoint_words`` / ``retry_words`` counters so robustness overhead is
visible in the α-β-γ reports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import NumericalFaultError, ValidationError

__all__ = [
    "ON_NAN_POLICIES",
    "Checkpoint",
    "NumericalGuard",
    "RecoveryStats",
    "RollbackRequested",
]

# ``on_nan`` solver knob: None disables screening (legacy behavior).
ON_NAN_POLICIES = ("raise", "rollback", "recompute")


class RollbackRequested(Exception):
    """Internal control-flow signal: a guard chose to roll back.

    Deliberately *not* a :class:`~repro.exceptions.ReproError` — it never
    escapes the solver that raised it.
    """

    def __init__(self, what: str) -> None:
        super().__init__(what)
        self.what = what


@dataclass(frozen=True)
class Checkpoint:
    """Deep snapshot of a solver's replayable state at a round boundary.

    ``arrays`` holds named iterate/momentum vectors (``w``, ``w_prev``,
    optionally ``anchor``/``full_grad``); ``scalars`` the plain-value
    state (momentum ``t_prev``, ``prev_obj``, loop counters);
    ``rng_state`` the numpy bit-generator state, so replayed rounds draw
    identical sample sets.
    """

    arrays: dict[str, np.ndarray]
    scalars: dict[str, Any]
    rng_state: dict[str, Any] | None
    history_len: int

    @classmethod
    def capture(
        cls,
        *,
        arrays: dict[str, np.ndarray],
        scalars: dict[str, Any],
        rng: np.random.Generator | None = None,
        history_len: int = 0,
    ) -> "Checkpoint":
        return cls(
            arrays={k: np.array(v, copy=True) for k, v in arrays.items() if v is not None},
            scalars=dict(scalars),
            rng_state=copy.deepcopy(rng.bit_generator.state) if rng is not None else None,
            history_len=int(history_len),
        )

    def restore_rng(self, rng: np.random.Generator) -> None:
        """Rewind *rng* to the captured state (no-op if none was captured)."""
        if self.rng_state is not None:
            rng.bit_generator.state = copy.deepcopy(self.rng_state)

    def array(self, name: str) -> np.ndarray:
        """A fresh copy of a checkpointed array (missing name is a bug)."""
        if name not in self.arrays:
            raise ValidationError(f"checkpoint has no array {name!r}")
        return self.arrays[name].copy()

    def get(self, name: str) -> np.ndarray | None:
        """Copy of an optional checkpointed array, or None."""
        arr = self.arrays.get(name)
        return None if arr is None else arr.copy()

    @property
    def words(self) -> float:
        """State words to charge when shipping this checkpoint (8-byte)."""
        # Arrays dominate; RNG state and scalars ride along as a fixed
        # small header.
        return float(sum(a.size for a in self.arrays.values()) + 8)


class NumericalGuard:
    """NaN/Inf screen over collective results and monitored objectives.

    ``policy=None`` disables the guard entirely — :meth:`screen` always
    reports clean, preserving the solvers' legacy divergence behavior.
    """

    def __init__(self, policy: str | None) -> None:
        if policy is not None and policy not in ON_NAN_POLICIES:
            raise ValidationError(
                f"on_nan must be one of {ON_NAN_POLICIES} or None, got {policy!r}"
            )
        self.policy = policy

    @property
    def enabled(self) -> bool:
        return self.policy is not None

    def screen(self, value: np.ndarray | float, what: str, stats: "RecoveryStats") -> bool:
        """Check *value*; True means "bad, and the policy is recompute".

        Clean values return False. For bad values: ``"raise"`` raises
        :class:`~repro.exceptions.NumericalFaultError`, ``"rollback"``
        raises :class:`RollbackRequested` (caught by the solver's recovery
        loop), ``"recompute"`` returns True so the caller re-issues the
        producing operation.
        """
        if self.policy is None or bool(np.all(np.isfinite(value))):
            return False
        stats.numerical_faults += 1
        if self.policy == "raise":
            raise NumericalFaultError(
                f"non-finite values detected in {what} (policy 'raise')"
            )
        if self.policy == "rollback":
            raise RollbackRequested(what)
        return True


@dataclass
class RecoveryStats:
    """What the resilient runtime actually did, for ``meta['resilience']``."""

    checkpoints: int = 0
    rollbacks: int = 0
    rank_failures_recovered: int = 0
    numerical_faults: int = 0
    recomputes: int = 0
    momentum_restarts: int = 0
    healed_ranks: list[int] = field(default_factory=list)
    # Real-process elasticity (mp backend): supervised respawns of dead
    # worker processes, and pool shrinks P→P′ with column repartitioning.
    respawns: int = 0
    shrinks: int = 0
    final_nranks: int | None = None

    def as_meta(self) -> dict[str, Any]:
        return {
            "checkpoints": self.checkpoints,
            "rollbacks": self.rollbacks,
            "rank_failures_recovered": self.rank_failures_recovered,
            "numerical_faults": self.numerical_faults,
            "recomputes": self.recomputes,
            "momentum_restarts": self.momentum_restarts,
            "healed_ranks": sorted(set(self.healed_ranks)),
            "respawns": self.respawns,
            "shrinks": self.shrinks,
            "final_nranks": self.final_nranks,
        }
