"""Shallow-circuit invariance of the fixed-point mutual information."""

import math

import numpy as np

from lrn_detect import (
    build_partition,
    evaluate_weights,
    materialize_fixed_point,
    random_brickwork,
    rg_fixed_point,
)
from lrn_detect.families import (
    counterexample_probs,
    counterexample_t_star,
    dense_pattern_state,
    ghz_tensor,
    pattern_tensor,
    phase_loop_tensor,
)
from lrn_detect.verify import invariance_sweep


def _sweep(fp, seeds):
    """``invariance_sweep`` of a fixed point on the 16-site, depth-1 ring, one circuit per seed."""
    circuits = [(s, random_brickwork(16, 1, s)) for s in seeds]
    state = materialize_fixed_point(fp, 16)
    return invariance_sweep(state, evaluate_weights(fp.weights, 16), build_partition(16, 1),
                            circuits)


def test_ghz_invariance_i_equals_one():
    fp = rg_fixed_point(ghz_tensor())
    (rep,) = _sweep(fp, [5])
    assert abs(rep["before"] - 1.0) < 1e-10
    assert abs(rep["after"] - 1.0) < 1e-8
    assert abs(rep["shannon"] - 1.0) < 1e-12
    assert rep["passed"]


def test_ghz_family_generic_weight():
    probs = [0.3, 0.7]
    state = dense_pattern_state(["0", "1"], np.sqrt(probs), 16)
    (rep,) = invariance_sweep(
        state, probs, build_partition(16, 1), [(3, random_brickwork(16, 1, 3))]
    )
    assert abs(rep["before"] - rep["shannon"]) < 1e-10
    assert rep["passed"]
    assert abs(rep["shannon"] - 0.8812908992306927) < 1e-12


def test_single_block_zero_mutual_information():
    fp = rg_fixed_point(pattern_tensor([0], [1.0], 2))
    (rep,) = _sweep(fp, [1])
    assert abs(rep["before"]) < 1e-10
    assert abs(rep["after"]) < 1e-8
    assert rep["shannon"] == 0.0
    assert rep["passed"]


def test_phase_loop_invariance():
    fp = rg_fixed_point(phase_loop_tensor(math.pi / 2))
    for rep in _sweep(fp, [0, 1]):
        assert rep["passed"]
        assert abs(rep["shannon"] - rep["before"]) < 1e-10


def test_counterexample_invariance_integer_mi():
    t = counterexample_t_star()
    probs = counterexample_probs(t)
    state = dense_pattern_state(["00", "01", "10", "11"], np.sqrt(probs), 16)
    (rep,) = invariance_sweep(
        state, probs, build_partition(16, 1), [(9, random_brickwork(16, 1, 9))]
    )
    assert rep["passed"]
    assert abs(rep["before"] - 1.0) < 1e-6  # tuned to integer entropy


def test_report_json_fields():
    fp = rg_fixed_point(ghz_tensor())
    (rep,) = _sweep(fp, [2])
    assert set(rep) == {"before", "after", "shannon", "partition", "seed", "depth", "passed"}
    assert rep["depth"] == 1 and rep["seed"] == 2


def test_invariance_sweep_matches_single_seed_experiments():
    # A sweep shares the state, the partition and ``before`` across seeds;
    # every per-seed case of a multi-seed sweep must still equal the case
    # of a one-seed sweep.
    for tensor in (ghz_tensor(), phase_loop_tensor(math.pi / 3)):
        fp = rg_fixed_point(tensor)
        seeds = [4, 5, 6, 7]
        swept = _sweep(fp, seeds)
        assert [rep["seed"] for rep in swept] == seeds
        for rep in swept:
            assert [rep] == _sweep(fp, [rep["seed"]])
    probs = counterexample_probs(counterexample_t_star())
    state = dense_pattern_state(["00", "01", "10", "11"], np.sqrt(probs), 16)
    part = build_partition(16, 1)
    circuits = [(s, random_brickwork(16, 1, s)) for s in (0, 1, 2)]
    swept = invariance_sweep(state, probs, part, circuits)
    for pair, rep in zip(circuits, swept):
        assert [rep] == invariance_sweep(state, probs, part, [pair])


def test_cli_verify_builds_each_fixture_state_once(monkeypatch, capsys):
    # Default verify: two fixed-point fixtures and the four-component state,
    # five seeds each.  One state and one ``before`` per fixture, one
    # ``after`` per seed: 2 materializations and 3 * (1 + 5) = 18 I(A:B) on
    # the 16-site ring (the Clifford suite's I(A:B) are on 3 to 8 qubits).
    from lrn_detect import cli, verify

    calls = {"materialize": 0, "mi": 0}

    def counted(key, fn, counts=lambda *args: True):
        def wrapper(*args, **kwargs):
            calls[key] += counts(*args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "materialize_fixed_point",
                        counted("materialize", verify.materialize_fixed_point))
    monkeypatch.setattr(verify, "mutual_information",
                        counted("mi", verify.mutual_information,
                                lambda state, *regions: state.n_sites == 16))
    assert cli.main(["--pipeline", "verify"]) == 0
    assert calls == {"materialize": 2, "mi": 18}
    capsys.readouterr()
