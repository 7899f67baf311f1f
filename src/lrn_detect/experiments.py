"""End-to-end invariance experiments on dense fixed-point states.

The headline check: the mutual information between the separated regions
of a coarse-grained fixed point equals the Shannon entropy of its block
weights, and a shallow random circuit cannot move it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import apply_brickwork
from .dense import DenseState, materialize_fixed_point, mutual_information
from .criteria import shannon_entropy
from .partition import Partition
from .rg import FixedPointState
from .weights import evaluate_weights

# Largest deviation of I(A:B) from its value before the circuit and from the
# weight entropy for an invariance report to pass.
INVARIANCE_TOL = 1e-8


@dataclass(frozen=True)
class InvarianceReport:
    """Mutual information before/after a shallow circuit vs weight entropy."""

    before: float
    after: float
    shannon: float
    depth: int
    seed: int
    partition: Partition

    @property
    def max_deviation(self) -> float:
        return max(abs(self.before - self.after), abs(self.before - self.shannon))

    @property
    def passed(self) -> bool:
        return self.max_deviation < INVARIANCE_TOL

    def to_json(self) -> dict:
        return {
            "before": self.before,
            "after": self.after,
            "shannon": self.shannon,
            "partition": self.partition.to_json(),
            "seed": self.seed,
            "depth": self.depth,
            "passed": self.passed,
        }


def fixed_point_sweep(
    f: FixedPointState, partition: Partition, circuits
) -> list[InvarianceReport]:
    """Materialize a fixed point once on the partition's ring, then sweep it.

    ``circuits`` are ``(seed, circuit)`` pairs, as ``invariance_sweep``
    takes them, so a caller that sweeps several states builds each circuit
    once.
    """
    state = materialize_fixed_point(f, partition.n_sites)
    probs = evaluate_weights(f.weights, partition.n_sites)
    return invariance_sweep(state, probs, partition, circuits)


def invariance_sweep(
    state: DenseState, probs, partition: Partition, circuits
) -> list[InvarianceReport]:
    """I(A:B) before and after each ``(seed, circuit)``, against the weight entropy.

    ``before`` and the weight entropy depend on the state and the
    partition only, so they are computed once; each circuit costs one
    evolution and one ``after``.  No name holds an evolved state, so it is
    freed before the next circuit runs: beside ``state``, at most one
    evolved state and the work arrays of one kernel are alive.
    """
    before = mutual_information(state, partition.a, partition.b)
    h = shannon_entropy(np.asarray(probs, dtype=float))
    return [
        InvarianceReport(
            before=before,
            after=mutual_information(
                apply_brickwork(state, circuit), partition.a, partition.b
            ),
            shannon=h,
            depth=circuit.depth,
            seed=seed,
            partition=partition,
        )
        for seed, circuit in circuits
    ]
