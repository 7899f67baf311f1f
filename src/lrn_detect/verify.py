"""The ``verify`` pipeline: runtime invariant suites against the dense oracle.

* ``clifford_quantization``  tableau mutual information is an integer and
                             equals the dense state's
* ``invariance``             shallow circuits leave I(A:B) of two fixed
                             points and the four-component state at their
                             weight entropy
* ``flatness``               stabilizer states pass the flatness test; the
                             tuned four-component state fails it
* ``causal_cone``            the boundary-channel formula equals the
                             circuit-evolved state

``cli`` imports this module only when ``verify`` runs, so ``analyze``,
``ghz`` and ``typicality`` never load the RG, dense, circuit, causal-cone
or tableau engines.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import families
from .causal import _reduction_factor, causal_cone_reduce
from .circuits import random_brickwork
from .dense import (
    DenseState,
    _apply_gates,
    _gram_gap,
    _region_factor,
    flatness_check,
    mutual_information,
    reduced_density,
)
from .experiments import fixed_point_sweep, invariance_sweep
from .partition import build_partition
from .rg import rg_fixed_point
from .stabilizer import CLIFFORD_DENSE, StabilizerTableau, random_clifford_circuit

# (sites, circuit depth) of the invariance and causal-cone suites: the
# least ring hosting four regions of 2 * depth + 2 sites at depth 1.
# Depth 2 (24 sites, 2**24 amplitudes) runs under ``pytest -m slow``.
_VERIFY_RING = (16, 1)
# Largest |I_tableau - I_dense| the Clifford suite accepts, in bits.
_CLIFFORD_MI_TOL = 1e-9
# Largest Frobenius distance between the cone suite's channel formula and
# its oracle density.
_CONE_TOL = 1e-10
# Largest entry of sum K†K - 1 the cone suite accepts for a boundary channel.
_CPTP_TOL = 1e-12


def suites(seed: int, trials: int) -> list[dict]:
    """The four suite reports, in report order; sizes scale with ``trials``.

    Each ring circuit is built once: the invariance suite sweeps the first
    ``max(2, trials // 4)`` seeds from ``seed`` and the cone suite all
    ``trials``, so the two share the circuits of the seeds they have in
    common.  The cone suite draws the rest as it goes, and both suites take
    the counterexample's tuned weights from one root search.
    """
    shared = [_ring_circuit(s) for s in range(seed, seed + max(2, trials // 4))]
    rest = map(_ring_circuit, range(seed + len(shared), seed + trials))
    probs = families.counterexample_probs(families.counterexample_t_star())
    return [
        _verify_clifford_quantization(seed, trials * 4),
        _verify_invariance(shared, probs),
        _verify_flatness(seed, trials, probs),
        _verify_causal_cone(itertools.chain(shared, rest)),
    ]


def _ring_circuit(seed: int):
    """``(seed, circuit)``: the seeded random brickwork of ``_VERIFY_RING``."""
    n, depth = _VERIFY_RING
    return seed, random_brickwork(n, depth, seed)


def _verify_clifford_quantization(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        n = int(rng.integers(3, 9))
        circ = random_clifford_circuit(n, int(rng.integers(2, 13)), int(rng.integers(2**31)))
        tab = StabilizerTableau.zero_state(n).apply_circuit(circ)
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = 1.0
        gates = [(CLIFFORD_DENSE[g], targets) for g, targets in circ]
        psi = DenseState(n, 2, _apply_gates(amps, n, 2, gates))
        qubits = list(rng.permutation(n))
        cut = max(1, n // 3)
        a, b = qubits[:cut], qubits[cut : 2 * cut]
        mi_tab = tab.mutual_information(a, b)
        dev = abs(mi_tab - mutual_information(psi, a, b))
        worst = max(worst, dev)
        if dev > _CLIFFORD_MI_TOL or mi_tab != round(mi_tab):
            return {
                "suite": "clifford_quantization",
                "passed": False,
                "trial": t,
                "replay": {"n": n, "seed": seed, "regions": [a, b]},
            }
    return {"suite": "clifford_quantization", "passed": True, "trials": trials,
            "worst_deviation": worst}


def _verify_invariance(circuits: list, probs: list[float]) -> dict:
    """Every fixture under every ``(seed, circuit)``; ``probs`` are the counterexample's."""
    n, depth = _VERIFY_RING
    fixtures = [
        ("ghz_half", families.ghz_tensor()),
        ("phase_loop_pi3", families.phase_loop_tensor(math.pi / 3)),
    ]
    part = build_partition(n, depth)
    results = []
    for name, tensor in fixtures:
        for rep in fixed_point_sweep(rg_fixed_point(tensor), part, circuits):
            results.append({"fixture": name, "seed": rep.seed, **rep.to_json()})
    state = families.dense_pattern_state(["00", "01", "10", "11"], np.sqrt(probs), n)
    for rep in invariance_sweep(state, probs, part, circuits):
        results.append({"fixture": "four_component", "seed": rep.seed, **rep.to_json()})
    passed = all(r["passed"] for r in results)
    out = {"suite": "invariance", "passed": passed, "cases": results}
    if not passed:
        out["replay"] = next(r for r in results if not r["passed"])
    return out


def _verify_causal_cone(circuits) -> dict:
    """One trial per ``(seed, circuit)``; stops at the first failing seed."""
    n, depth = _VERIFY_RING
    state = families.dense_pattern_state(["0", "1"], [math.sqrt(0.3), math.sqrt(0.7)], n)
    part = build_partition(n, depth)
    worst = 0.0
    trials = 0
    for seed, circuit in circuits:
        err, cptp = _cone_trial(state, part, circuit)
        worst = max(worst, err, cptp)
        trials += 1
        if err > _CONE_TOL or cptp > _CPTP_TOL:
            return {"suite": "causal_cone", "passed": False,
                    "replay": {"seed": seed}}
    return {"suite": "causal_cone", "passed": True, "trials": trials, "worst": worst}


def _cone_trial(state: DenseState, part, circuit) -> tuple[float, float]:
    """Distance of the channel formula from its oracle, and the worst CPTP defect.

    Both densities on A∪B are Gram products of factors, and ``_gram_gap``
    measures their Frobenius distance from the two factors, so neither
    density is formed.  The oracle, by linearity of the partial trace: the
    circuit, then u_a and u_b as two more gates, gives
    (u_a ⊗ u_b) rho_ab (u_a ⊗ u_b)†.  The evolved state is freed once its
    factor is copied out, and every array of the trial when it returns.
    """
    n = state.n_sites
    red = causal_cone_reduce(circuit, part)
    sigma_f = _reduction_factor(red, state)
    gates = red.circuit.gates + [(red.u_a, part.a), (red.u_b, part.b)]
    evolved = _apply_gates(state.amplitudes, n, 2, gates)
    rho_f = _region_factor(DenseState(n, 2, evolved), part.ab)
    del evolved  # the factor is a copy
    cptp = max((c.cptp_defect() for c in red.channel_list()), default=0.0)
    return _gram_gap(rho_f, sigma_f), cptp


def _verify_flatness(seed: int, trials: int, probs: list[float]) -> dict:
    """Stabilizer states pass; the counterexample with weights ``probs`` fails."""
    rng = np.random.default_rng(seed)
    for t in range(trials):
        n = int(rng.integers(4, 9))
        circ = random_clifford_circuit(n, 8, int(rng.integers(2**31)))
        tab = StabilizerTableau.zero_state(n).apply_circuit(circ)
        psi = DenseState(n, 2, tab.dense_state())
        qubits = list(rng.permutation(n))
        a, b = sorted(qubits[:2]), sorted(qubits[2:4])
        rho = reduced_density(psi, tuple(a) + tuple(b))
        if not flatness_check(rho, 4):
            return {"suite": "flatness", "passed": False,
                    "replay": {"seed": seed, "trial": t, "n": n}}
    state = families.dense_pattern_state(["00", "01", "10", "11"], np.sqrt(probs), 12)
    rho = reduced_density(state, (0, 1, 2, 3, 6, 7, 8, 9))
    if flatness_check(rho, 16):
        return {"suite": "flatness", "passed": False,
                "replay": {"case": "four_component_should_fail"}}
    return {"suite": "flatness", "passed": True, "trials": trials}
