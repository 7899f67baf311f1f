"""Optional long-running suite: invariance under depth-2 circuits.

Excluded by default (runs ~2 min per case at 2**24 amplitudes); opt in
with ``pytest -m slow``.
"""

import numpy as np
import pytest

from lrn_detect import build_partition, random_brickwork
from lrn_detect.families import dense_pattern_state
from lrn_detect.verify import invariance_sweep


@pytest.mark.slow
def test_depth2_invariance_n24():
    n, depth = 24, 2
    probs = [0.3, 0.7]
    state = dense_pattern_state(["0", "1"], np.sqrt(probs), n)
    partition = build_partition(n, depth)
    assert 4 * depth + 4 <= len(partition.ab) <= 8 * depth
    assert partition.min_region() >= 2 * depth + 2
    circ = random_brickwork(n, depth, seed=1)
    (rep,) = invariance_sweep(state, probs, partition, [(1, circ)])
    assert rep["passed"]
    assert abs(rep["before"] - rep["shannon"]) < 1e-8
