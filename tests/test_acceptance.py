"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <criterion>: PASS/FAIL`` line (run with
``pytest -s`` to see them on success).  Tolerances are pinned here and
nowhere else; the asymptotic claims behind these checks are certified
only through these finite-size suites.
"""

import math

import numpy as np

from lrn_detect import (
    EXACT_SRN_EXCLUDED,
    LRN_CERTIFIED,
    DenseState,
    MpsTensor,
    WeightSpectrum,
    apply_brickwork,
    block_tensor,
    build_partition,
    causal_cone_reduce,
    flatness_check,
    ghz_classify,
    lrn_entropy_check,
    materialize_fixed_point,
    random_brickwork,
    reduced_density,
    rg_fixed_point,
    srn_ratio_check,
    transfer_matrix,
    typicality_log_ratio,
)
from lrn_detect.families import (
    counterexample_entropy,
    counterexample_exact_weights,
    counterexample_probs,
    counterexample_t_star,
    counterexample_tensor,
    dense_pattern_state,
    ghz_tensor,
    pattern_tensor,
    phase_loop_tensor,
    random_normal_tensor,
)
from lrn_detect import dense, verify
from lrn_detect.causal import _reduction_factor
from lrn_detect.dense import _apply_gates, _gram
from lrn_detect.stabilizer import CLIFFORD_DENSE, StabilizerTableau, random_clifford_circuit
from oracles import FANNES_SLACK, fannes_check, materialize_mps, rg_step, subsystem_entropy

PHASES = (math.pi / 2, math.pi / 3, 2 * math.pi / 5)


def _report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}".rstrip()
    print(line, flush=True)
    assert passed, line


def _dense_from_circuit(n, circuit):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    gates = [(CLIFFORD_DENSE[gate], targets) for gate, targets in circuit]
    return DenseState(n, 2, _apply_gates(amps, n, 2, gates))


def test_criterion_1_ghz_family_classification():
    """Entropy criterion and family label agree on a 101-point weight grid."""
    special = {0, 50, 100}  # alpha^2 in {0, 1/2, 1}
    ok = True
    for k in range(101):
        alpha_sq = k / 100.0
        label = ghz_classify(alpha_sq)
        verdict = lrn_entropy_check(
            WeightSpectrum.constant([math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)]),
            tau_int=1e-6)
        expect_lrn = k not in special
        if (label == "LRN") != expect_lrn:
            ok = False
        if (verdict.status == LRN_CERTIFIED) != expect_lrn:
            ok = False
    _report("1 ghz-family-classification", ok)


def test_criterion_2_counterexample():
    """Tuned integer entropy, symbolic sqrt(3) exclusion, flatness split."""
    t_star = counterexample_t_star()
    ok = abs(t_star - 0.023) < 1e-3
    ok &= abs(counterexample_entropy(t_star) - 1.0) < 1e-6

    verdict = srn_ratio_check(counterexample_exact_weights())
    ok &= verdict.status == EXACT_SRN_EXCLUDED
    off = verdict.evidence.get("offending_pair", {})
    ok &= off.get("ratio") == "3^(1/2)"
    ok &= abs(off.get("value", 0.0) - math.sqrt(3)) < 1e-9

    state = dense_pattern_state(
        ["00", "01", "10", "11"], np.sqrt(counterexample_probs(t_star)), 12
    )
    rho = reduced_density(state, (0, 1, 2, 3, 6, 7, 8, 9))
    assert dense.FLATNESS_TAU == 1e-9
    ok &= not flatness_check(rho, 16)

    rng = np.random.default_rng(2024)
    stab_flat = 0
    for _ in range(100):
        n = int(rng.integers(5, 11))
        circ = random_clifford_circuit(n, int(rng.integers(4, 13)), int(rng.integers(2**31)))
        tab = StabilizerTableau.zero_state(n).apply_circuit(circ)
        psi = DenseState(n, 2, tab.dense_state())
        qubits = list(rng.permutation(n))
        a, b = qubits[:2], qubits[2:4]
        rho_ab = reduced_density(psi, tuple(a) + tuple(b))
        if flatness_check(rho_ab, 4):
            stab_flat += 1
    ok &= stab_flat == 100
    _report("2 counterexample-state", ok, f"t*={t_star:.6f} stab_flat={stab_flat}/100")


def test_criterion_3_stabilizer_quantization():
    """10^3 random Clifford circuits: integer entropies matching dense."""
    rng = np.random.default_rng(1337)
    worst = 0.0
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        depth = int(rng.integers(1, 25))
        circ = random_clifford_circuit(n, depth, int(rng.integers(2**31)))
        tab = StabilizerTableau.zero_state(n).apply_circuit(circ)
        psi = _dense_from_circuit(n, circ)
        qubits = list(rng.permutation(n))
        k = max(1, n // 3)
        a, b = qubits[:k], qubits[k : 2 * k]
        for region in (a, b, a + b):
            s_tab = tab.entropy(region)
            s_dense = subsystem_entropy(psi, region)
            dev = abs(s_tab - s_dense)
            worst = max(worst, dev)
            if dev > 1e-9 or s_tab != int(s_tab) or s_tab < 0:
                failures += 1
        mi = tab.mutual_information(a, b)
        if not (isinstance(mi, int) and mi >= 0):
            failures += 1
    _report("3 stabilizer-quantization", failures == 0, f"worst={worst:.2e}")


def test_criterion_4_shallow_circuit_invariance():
    """I(A:B) equals the weight entropy and survives depth-1 circuits."""
    n, depth = 16, 1
    assert verify.INVARIANCE_TOL == 1e-8
    cases = []
    for k in range(21):
        alpha_sq = k / 20.0
        probs = [alpha_sq, 1.0 - alpha_sq]
        state = dense_pattern_state(["0", "1"], np.sqrt(probs), n)
        cases.append((f"ghz_{k}", state, probs))
    for phi in PHASES:
        fp = rg_fixed_point(phase_loop_tensor(phi))
        state = materialize_fixed_point(fp, n)
        from lrn_detect import evaluate_weights

        probs = list(evaluate_weights(fp.weights, n))
        cases.append((f"loop_{phi:.3f}", state, probs))
    t_star = counterexample_t_star()
    probs = counterexample_probs(t_star)
    cases.append(
        ("four_component",
         dense_pattern_state(["00", "01", "10", "11"], np.sqrt(probs), n),
         probs)
    )

    worst = 0.0
    failures = 0
    partition = build_partition(n, depth)
    assert 4 * depth + 4 <= len(partition.ab) <= 8 * depth
    assert partition.min_region() >= 2 * depth + 2
    for name, state, probs in cases:
        # One ``before`` per state, one ``after`` per seed.
        circuits = [(seed, random_brickwork(n, depth, seed)) for seed in range(20)]
        for rep in verify.invariance_sweep(state, probs, partition, circuits):
            dev = max(abs(rep["before"] - rep["after"]), abs(rep["before"] - rep["shannon"]))
            worst = max(worst, dev)
            if not rep["passed"]:
                failures += 1
    _report(
        "4 shallow-circuit-invariance",
        failures == 0,
        f"cases={len(cases)}x20 worst={worst:.2e}",
    )


def test_criterion_5_causal_cone_reduction():
    """Channel formula matches the direct construction; channels CPTP."""
    n, depth = 16, 1
    state = dense_pattern_state(["0", "1"], [math.sqrt(0.3), math.sqrt(0.7)], n)
    partition = build_partition(n, depth)
    worst_frob = 0.0
    worst_cptp = 0.0
    for seed in range(10):
        circ = random_brickwork(n, depth, seed)
        red = causal_cone_reduce(circ, partition)
        sigma = _gram(_reduction_factor(red, state))
        rho_ab = reduced_density(apply_brickwork(state, circ), partition.a + partition.b)
        u = np.kron(red.u_a, red.u_b)
        worst_frob = max(
            worst_frob, float(np.linalg.norm(sigma - u @ rho_ab @ u.conj().T))
        )
        worst_cptp = max(
            worst_cptp, max((c.cptp_defect() for c in red.channels.values()), default=0.0)
        )
    _report(
        "5 causal-cone-reduction",
        worst_frob < 1e-10 and worst_cptp < 1e-12,
        f"frob={worst_frob:.2e} cptp={worst_cptp:.2e}",
    )


def test_criterion_6_mps_structure():
    """Blocking homomorphism, spectrum squaring, fixed-point materialization."""
    rng = np.random.default_rng(55)
    ok = True
    worst_block = 0.0
    for d in (2, 3):
        for chi in (2, 3, 4):
            for q in (2, 3, 4):
                mats = rng.standard_normal((d, chi, chi)) + 1j * rng.standard_normal(
                    (d, chi, chi)
                )
                t = MpsTensor(mats / (d * chi))
                lhs = transfer_matrix(block_tensor(t, q))
                rhs = np.linalg.matrix_power(transfer_matrix(t), q)
                worst_block = max(worst_block, float(np.max(np.abs(lhs - rhs))))
    ok &= worst_block < 1e-10

    worst_square = 0.0
    for seed in range(4):
        t = random_normal_tensor(2, int(rng.integers(2, 4)), seed=100 + seed)
        lhs = np.linalg.eigvals(transfer_matrix(rg_step(t).tensor))
        rhs = np.linalg.eigvals(transfer_matrix(t)) ** 2
        remaining = list(rhs)
        for x in lhs:
            j = int(np.argmin(np.abs(np.array(remaining) - x)))
            worst_square = max(worst_square, abs(remaining[j] - x))
            remaining.pop(j)
    ok &= worst_square < 1e-8

    fixtures = [ghz_tensor(), pattern_tensor([0], [1.0], 2)]
    fixtures += [phase_loop_tensor(phi) for phi in PHASES]
    fixtures.append(counterexample_tensor())
    worst_overlap = 1.0
    for t in fixtures:
        fp = rg_fixed_point(t)
        sizes = range(2, 11) if t.phys_dim == 2 else (2, 4, 6, 8, 10)
        for n in sizes:
            link = materialize_fixed_point(fp, n)
            trace = materialize_mps(t, n)
            worst_overlap = min(worst_overlap, abs(np.vdot(link.amplitudes, trace.amplitudes)))
    ok &= worst_overlap >= 1.0 - 1e-8

    worst_ratio = 0.0
    for phi in PHASES:
        t = phase_loop_tensor(phi)
        for n in range(1, 11):
            psi = materialize_mps(t, n)
            ratio = psi.amplitudes[-1] / psi.amplitudes[0]
            worst_ratio = max(worst_ratio, abs(ratio - 2 * math.cos(phi * n)))
    ok &= worst_ratio < 1e-10

    _report(
        "6 mps-structure",
        ok,
        f"block={worst_block:.2e} square={worst_square:.2e} "
        f"overlap={worst_overlap:.12f} ratio={worst_ratio:.2e}",
    )


def test_criterion_7_fannes_inequality():
    """Continuity bound never violated on random density pairs."""
    rng = np.random.default_rng(77)
    violations = 0
    assert FANNES_SLACK == 1e-12
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        dim = 2**k
        m1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = m1 @ m1.conj().T
        rho /= np.trace(rho).real
        sigma = m2 @ m2.conj().T
        sigma /= np.trace(sigma).real
        if not fannes_check(rho, sigma, n_qubits=k):
            violations += 1
    _report("7 fannes-inequality", violations == 0, f"violations={violations}/1000")


def test_criterion_8_typicality_calculator():
    """Log-ratio strictly decreasing and negative across N = 20..40."""
    vals = [typicality_log_ratio(n) for n in range(20, 41)]
    ok = all(v < 0.0 for v in vals)
    ok &= all(b < a for a, b in zip(vals, vals[1:]))
    _report("8 typicality-calculator", ok, f"range=[{vals[0]:.3e}, {vals[-1]:.3e}]")
