"""Tableau Clifford evolution, canonical forms, integer entropies."""

import numpy as np
import pytest

from lrn_detect import DenseState, PauliString, StabilizerTableau
from lrn_detect.dense import _apply_gates
from lrn_detect.errors import (
    DependentGenerators,
    OverlappingRegions,
    TargetOutOfRange,
)
from lrn_detect.stabilizer import CLIFFORD_DENSE, random_clifford_circuit
from oracles import subsystem_entropy


def dense_from_circuit(n, circuit):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    gates = [(CLIFFORD_DENSE[gate], targets) for gate, targets in circuit]
    return DenseState(n, 2, _apply_gates(amps, n, 2, gates))


def test_hadamard_takes_z_to_x():
    t = StabilizerTableau.zero_state(1).apply_gate("H", 0)
    assert t.to_text() == "+X"


def test_bell_generators():
    t = StabilizerTableau.zero_state(2).apply_gate("H", 0).apply_gate("CNOT", (0, 1))
    assert sorted(t.canonicalize().to_text().split("\n")) == ["+XX", "+ZZ"]


def test_s_fixes_z_and_rotates_x():
    t = StabilizerTableau.zero_state(1).apply_gate("S", 0)
    assert t.to_text() == "+Z"
    x_row = PauliString.from_text("+X")
    t2 = StabilizerTableau(1, (x_row.x,), (x_row.z,), (x_row.phase,)).apply_gate("S", 0)
    assert t2.to_text() == "+Y"


def test_gate_target_validation():
    t = StabilizerTableau.zero_state(2)
    with pytest.raises(TargetOutOfRange):
        t.apply_gate("H", 5)
    with pytest.raises(TargetOutOfRange):
        t.apply_gate("CNOT", (1, 1))
    with pytest.raises(TargetOutOfRange):
        t.apply_gate("Q", 0)


def test_canonicalize_idempotent_and_row_order_free():
    circ = random_clifford_circuit(6, 10, seed=4)
    t = StabilizerTableau.zero_state(6).apply_circuit(circ)
    canon = t.canonicalize()
    assert canon.canonicalize() == canon
    swapped = StabilizerTableau(
        n=t.n,
        xs=t.xs[::-1],
        zs=t.zs[::-1],
        phases=t.phases[::-1],
    )
    assert swapped.canonicalize() == canon


def test_canonicalize_stabilizes_same_dense_state():
    circ = random_clifford_circuit(8, 12, seed=12)
    t = StabilizerTableau.zero_state(8).apply_circuit(circ)
    psi = dense_from_circuit(8, circ)
    for g in t.canonicalize().generators():
        assert np.max(np.abs(g.dense_apply(psi.amplitudes) - psi.amplitudes)) < 1e-10


def test_entropy_zero_state():
    t = StabilizerTableau.zero_state(5)
    for region in ({0}, {1, 3}, {0, 1, 2, 3, 4}):
        assert t.entropy(region) == 0


def test_entropy_ghz4():
    t = StabilizerTableau.zero_state(4).apply_gate("H", 0)
    for q in (1, 2, 3):
        t = t.apply_gate("CNOT", (0, q))
    assert t.entropy({0, 1}) == 1
    # dense oracle: reduced eigenvalues (1/2, 1/2)
    psi = dense_from_circuit(4, [("H", (0,)), ("CNOT", (0, 1)), ("CNOT", (0, 2)), ("CNOT", (0, 3))])
    assert abs(subsystem_entropy(psi, {0, 1}) - 1.0) < 1e-12


def test_entropy_matches_dense_many_regions():
    rng = np.random.default_rng(3)
    circ = random_clifford_circuit(10, 14, seed=77)
    t = StabilizerTableau.zero_state(10).apply_circuit(circ)
    psi = dense_from_circuit(10, circ)
    for _ in range(50):
        k = int(rng.integers(1, 10))
        region = list(rng.choice(10, size=k, replace=False))
        assert abs(t.entropy(region) - subsystem_entropy(psi, region)) < 1e-9


def test_mutual_information_product_state():
    t = StabilizerTableau.zero_state(6)
    assert t.mutual_information({0, 1}, {3, 4}) == 0


def test_mutual_information_ghz8():
    t = StabilizerTableau.zero_state(8).apply_gate("H", 0)
    for q in range(1, 8):
        t = t.apply_gate("CNOT", (0, q))
    assert t.mutual_information({0, 1}, {4, 5}) == 1


def test_mutual_information_bell_chain():
    # Bell pairs on links (2i+1, 2i+2): regions aligned to whole pairs see I=0.
    n = 8
    t = StabilizerTableau.zero_state(n)
    for i in range(n // 2):
        a, b = (2 * i + 1) % n, (2 * i + 2) % n
        t = t.apply_gate("H", a).apply_gate("CNOT", (a, b))
    assert t.mutual_information({2, 3}, {5, 6}) == 0


def test_mutual_information_region_validation():
    t = StabilizerTableau.zero_state(4)
    with pytest.raises(OverlappingRegions):
        t.mutual_information({0, 1}, {1, 2})
    with pytest.raises(OverlappingRegions):
        t.mutual_information({0, 1}, {2, 3})


def test_quantization_fuzz_sample():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        circ = random_clifford_circuit(n, int(rng.integers(1, 17)), int(rng.integers(2**31)))
        t = StabilizerTableau.zero_state(n).apply_circuit(circ)
        # full-system entropy is zero after any unitary
        assert t.entropy(range(n)) == 0
        qubits = list(rng.permutation(n))
        k = max(1, n // 3)
        a, b = qubits[:k], qubits[k : 2 * k]
        mi = t.mutual_information(a, b)
        assert isinstance(mi, int) and mi >= 0
        # subadditivity
        assert t.entropy(set(a) | set(b)) <= t.entropy(a) + t.entropy(b)


def test_gate_then_canonicalize_commutes():
    circ = random_clifford_circuit(5, 6, seed=31)
    t = StabilizerTableau.zero_state(5).apply_circuit(circ)
    left = t.apply_gate("H", 2).canonicalize()
    right = t.canonicalize().apply_gate("H", 2).canonicalize()
    assert left == right


def test_text_round_trip_bit_exact():
    circ = random_clifford_circuit(7, 9, seed=8)
    t = StabilizerTableau.zero_state(7).apply_circuit(circ).canonicalize()
    again = StabilizerTableau.from_text(t.to_text())
    assert again == t


def test_dependent_generators_rejected():
    with pytest.raises(DependentGenerators):
        StabilizerTableau(2, (0, 0), (1, 1), (0, 0))  # same row twice
    with pytest.raises(DependentGenerators):
        # X1 and Z1 anticommute
        StabilizerTableau(2, (1, 0), (0, 1), (0, 0))


def test_pauli_product_phases():
    x = PauliString.from_text("+X")
    z = PauliString.from_text("+Z")
    y = PauliString.from_text("+Y")
    assert y.mul(y).to_text() == "+I"
    assert x.mul(x).to_text() == "+I"
    # X Z = -iY and Z X = +iY: verify the phases densely on both orders.
    basis = np.eye(2, dtype=complex)
    xz = np.column_stack([x.mul(z).dense_apply(basis[:, j]) for j in range(2)])
    zx = np.column_stack([z.mul(x).dense_apply(basis[:, j]) for j in range(2)])
    assert np.allclose(xz, -1j * CLIFFORD_DENSE["Y"])
    assert np.allclose(zx, 1j * CLIFFORD_DENSE["Y"])


def test_apply_circuit_equals_gate_by_gate_and_dense():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(3, 13))
        circ = random_clifford_circuit(n, int(rng.integers(1, 9)), int(rng.integers(2**31)))
        t = StabilizerTableau.zero_state(n).apply_circuit(circ)
        folded = StabilizerTableau.zero_state(n)
        for gate, targets in circ:
            folded = folded.apply_circuit([(gate, targets)])
        assert t == folded
        psi = dense_from_circuit(n, circ)
        for g in t.generators():
            assert np.max(np.abs(g.dense_apply(psi.amplitudes) - psi.amplitudes)) < 1e-10


def test_apply_circuit_validates_the_result_once(monkeypatch):
    calls = {"n": 0}
    original = StabilizerTableau.__post_init__

    def counted(self):
        calls["n"] += 1
        original(self)

    start = StabilizerTableau.zero_state(10)
    monkeypatch.setattr(StabilizerTableau, "__post_init__", counted)
    circ = random_clifford_circuit(10, 12, seed=5)
    assert len(circ) > 100
    start.apply_circuit(circ)
    assert calls["n"] <= 1
    calls["n"] = 0
    start.apply_gate("H", 3)
    assert calls["n"] <= 1


@pytest.mark.parametrize("position", [0, 7, -1])
@pytest.mark.parametrize(
    "bad",
    [("H", (5,)), ("H", (-1,)), ("CNOT", (1, 1)), ("CZ", (0,)), ("S", (0, 1)), ("Q", (0,))],
)
def test_apply_circuit_rejects_a_bad_gate_anywhere(bad, position):
    circ = random_clifford_circuit(4, 4, seed=9)
    assert len(circ) > 8
    circ.insert(position if position >= 0 else len(circ), bad)
    with pytest.raises(TargetOutOfRange):
        StabilizerTableau.zero_state(4).apply_circuit(circ)


def test_entropy_reads_numpy_integer_sites_past_bit_63():
    # A GHZ state on 70 qubits: every nonempty proper region has entropy 1.
    circuit = [("H", (0,))] + [("CNOT", (q, q + 1)) for q in range(69)]
    tab = StabilizerTableau.zero_state(70).apply_circuit(circuit)
    for region in ([64], [3, 66], list(range(60, 70)), list(range(1, 70))):
        assert tab.entropy(np.array(region, dtype=np.int64)) == tab.entropy(region) == 1
    assert tab.mutual_information(np.arange(64, 67), np.arange(0, 3)) == 1
