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

``invariance_sweep`` is the invariance suite's one measurement, and the
tests sweep their own states with it: I(A:B) before and after each
circuit against the weight entropy, within ``INVARIANCE_TOL``.

The suites share nothing but their inputs, so ``suites`` runs the
causal-cone suite in one forked child process while the parent runs the
other three.  The split follows the suites' times: per ``verify`` at the
default window, on one BLAS thread of a 2-core x86 box, the cone suite
took a median 150 ms, invariance 81 ms, Clifford quantization 61 ms and
flatness 19 ms, so the child's one suite and the parent's three (161 ms)
come out nearly even.  The child needs the POSIX ``fork`` start method:
it inherits the shared circuits, and any patch of this module's names,
without pickling them, and only its report or exception is pickled back.

``cli`` imports this module only when ``verify`` runs, so ``analyze``,
``ghz`` and ``typicality`` never load the RG, dense, circuit, causal-cone
or tableau engines.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import multiprocessing

import numpy as np

from . import families
from .causal import _reduction_factor, causal_cone_reduce
from .circuits import apply_brickwork, random_brickwork
from .criteria import shannon_entropy
from .dense import (
    DenseState,
    _apply_gates,
    _gram_gap,
    _region_factor,
    flatness_check,
    materialize_fixed_point,
    mutual_information,
    reduced_density,
)
from .errors import LrnDetectError
from .partition import Partition, build_partition
from .rg import rg_fixed_point
from .stabilizer import CLIFFORD_DENSE, StabilizerTableau, random_clifford_circuit
from .weights import evaluate_weights

# (sites, circuit depth) of the invariance and causal-cone suites: the
# least ring hosting four regions of 2 * depth + 2 sites at depth 1.
# Depth 2 (24 sites, 2**24 amplitudes) runs under ``pytest -m slow``.
_VERIFY_RING = (16, 1)
# Largest deviation of I(A:B) from its value before the circuit and from the
# weight entropy for an invariance case to pass.
INVARIANCE_TOL = 1e-8
# Largest |I_tableau - I_dense| the Clifford suite accepts, in bits.
_CLIFFORD_MI_TOL = 1e-9
# Largest Frobenius distance between the cone suite's channel formula and
# its oracle density.
_CONE_TOL = 1e-10
# Largest entry of sum K†K - 1 the cone suite accepts for a boundary channel.
_CPTP_TOL = 1e-12
# The thread-count setter and getter of the OpenBLAS that numpy's wheels bundle.
_BLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"
_BLAS_GET_THREADS = "scipy_openblas_get_num_threads64_"


def suites(seed: int, trials: int) -> list[dict]:
    """The four suite reports, in report order; sizes scale with ``trials``.

    Each ring circuit is built once: the invariance suite sweeps the first
    ``max(2, trials // 4)`` seeds from ``seed`` and the cone suite all
    ``trials``, so the two share the circuits of the seeds they have in
    common.  The cone suite draws the rest as it goes, and the invariance
    and flatness suites take the counterexample's tuned weights from one
    root search.

    The cone suite, the slowest, runs in one forked child from the shared
    circuits on; the parent runs the other three meanwhile, then waits for
    the child's report.  Both run BLAS at one thread until the child is
    joined (``_one_blas_thread``).  An error raised by a parent suite comes
    first, and the child is killed; an error of the child's suite is raised
    here as it was raised there.  No child outlives the call.
    """
    shared = [_ring_circuit(s) for s in range(seed, seed + max(2, trials // 4))]
    rest = map(_ring_circuit, range(seed + len(shared), seed + trials))
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_cone_child, args=(send, itertools.chain(shared, rest)))
    with _one_blas_thread():
        child.start()
        send.close()  # the child holds the only write end: its exit ends the pipe
        try:
            probs = families.counterexample_probs(families.counterexample_t_star())
            reports = [
                _verify_clifford_quantization(seed, trials * 4),
                _verify_invariance(shared, probs),
                _verify_flatness(seed, trials, probs),
            ]
            ok, cone = _receive(recv, child)
        except BaseException:
            child.kill()
            raise
        finally:
            child.join()
            recv.close()
    if not ok:
        raise cone
    return reports + [cone]


@functools.cache
def _blas_thread_calls():
    """numpy's OpenBLAS ``(set, get)`` thread-count calls; None under another BLAS."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)  # searches its libraries too
    if not hasattr(lib, _BLAS_SET_THREADS):
        return None
    set_threads, get_threads = getattr(lib, _BLAS_SET_THREADS), getattr(lib, _BLAS_GET_THREADS)
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, then restore its count.

    Two processes, each with a BLAS pool as wide as the machine, stall each
    other's spin-waiting workers: on two cores with two BLAS threads, a
    ``verify`` whose child and parent kept them took 4.8 s instead of 0.25 s.
    Under another BLAS the block runs as it is.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _cone_child(send, circuits) -> None:
    """The forked child's target: ``(True, report)`` or ``(False, error)`` to ``send``."""
    try:
        result = (True, _verify_causal_cone(circuits))
    except Exception as exc:  # the parent raises it as its own
        result = (False, exc)
    send.send(result)
    send.close()


def _receive(recv, child) -> tuple:
    """The child's ``(ok, report or error)``; a named error if it ended without one."""
    try:
        return recv.recv()
    except EOFError:
        child.join()
        raise LrnDetectError("the causal-cone suite's process ended without a result",
                             exitcode=child.exitcode) from None


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
        f = rg_fixed_point(tensor)
        # The fixed point's state is an argument only, so it is freed before
        # the next fixture's is materialized.
        cases = invariance_sweep(materialize_fixed_point(f, n),
                                 evaluate_weights(f.weights, n), part, circuits)
        results += [{"fixture": name, **case} for case in cases]
    state = families.dense_pattern_state(["00", "01", "10", "11"], np.sqrt(probs), n)
    cases = invariance_sweep(state, probs, part, circuits)
    results += [{"fixture": "four_component", **case} for case in cases]
    passed = all(r["passed"] for r in results)
    out = {"suite": "invariance", "passed": passed, "cases": results}
    if not passed:
        out["replay"] = next(r for r in results if not r["passed"])
    return out


def invariance_sweep(state: DenseState, probs, partition: Partition, circuits) -> list[dict]:
    """I(A:B) before and after each ``(seed, circuit)``, against the weight entropy.

    One case per circuit, with the keys ``before``, ``after``, ``shannon``,
    ``partition``, ``seed``, ``depth`` and ``passed``: a case passes when
    ``after`` and the weight entropy ``shannon`` both lie within
    ``INVARIANCE_TOL`` of ``before``.  ``before`` and the weight entropy
    depend on the state and the partition only, so they are computed once;
    each circuit costs one evolution and one ``after``.  No name holds an
    evolved state, so it is freed before the next circuit runs: beside
    ``state``, at most one evolved state and the work arrays of one kernel
    are alive.
    """
    before = mutual_information(state, partition.a, partition.b)
    h = shannon_entropy(probs)
    cases = []
    for seed, circuit in circuits:
        after = mutual_information(apply_brickwork(state, circuit), partition.a, partition.b)
        cases.append({
            "before": before,
            "after": after,
            "shannon": h,
            "partition": partition.to_json(),
            "seed": seed,
            "depth": circuit.depth,
            "passed": max(abs(before - after), abs(before - h)) < INVARIANCE_TOL,
        })
    return cases


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
    cptp = max((c.cptp_defect() for c in red.channels.values()), default=0.0)
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
