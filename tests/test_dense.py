"""Dense reference engine: states, entropies, distances, flatness."""

import functools
import itertools
import math

import numpy as np
import pytest

from lrn_detect import (
    DenseState,
    apply_brickwork,
    build_partition,
    flatness_check,
    materialize_fixed_point,
    mutual_information,
    partial_transpose,
    random_brickwork,
    reduced_density,
    rg_fixed_point,
)
from lrn_detect import dense
from lrn_detect.circuits import BrickworkCircuit, _haar_gates
from lrn_detect.dense import (
    _PIVOT_ENTROPY_BOUND,
    _PIVOT_FLOOR,
    RHO_CAP,
    SUPPORT_TOL,
    _apply_gates,
    _entropy,
    _gram,
    _gram_entropy,
    _gram_gap,
    _hermitize,
    _smaller_gram,
)
from lrn_detect.errors import (
    BadFactorization,
    DimensionMismatch,
    GeometryMismatch,
    SizeCap,
    ZeroState,
)
from lrn_detect.families import (
    counterexample_probs,
    counterexample_t_star,
    dense_pattern_state,
    ghz_tensor,
    pattern_tensor,
    phase_loop_tensor,
    random_normal_tensor,
)
from oracles import (
    NotPSD,
    adjoint,
    binary_entropy,
    fannes_check,
    materialize_mps,
    subsystem_entropy,
    trace_distance_mixed,
    trace_distance_pure,
    von_neumann_entropy,
)


def random_density(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_materialize_product_state():
    psi = materialize_mps(pattern_tensor([0], [1.0], 2), 5)
    expect = np.zeros(32)
    expect[0] = 1.0
    assert np.allclose(psi.amplitudes, expect)


def test_materialize_ghz4():
    psi = materialize_mps(ghz_tensor(), 4)
    expect = np.zeros(16, dtype=complex)
    expect[0] = expect[-1] = 1 / math.sqrt(2)
    assert np.allclose(psi.amplitudes, expect)


def test_materialize_phase_loop_n3():
    # |000> + 2 cos(3 phi) |111>, phi = pi/3: amplitude ratio -2.
    psi = materialize_mps(phase_loop_tensor(math.pi / 3), 3)
    amps = psi.amplitudes * math.sqrt(5)
    assert abs(amps[0] - 1.0) < 1e-12
    assert abs(amps[-1] + 2.0) < 1e-12
    assert np.max(np.abs(amps[1:-1])) < 1e-12


def test_materialize_caps_and_zero():
    with pytest.raises(SizeCap):
        materialize_mps(pattern_tensor([0], [1.0], 2), 40)
    # phase pair that cancels at odd sizes: zero state
    t = pattern_tensor([0, 0], [1.0, -1.0], d=2)
    with pytest.raises(ZeroState):
        materialize_mps(t, 3)


def test_reduced_density_ghz():
    psi = materialize_mps(ghz_tensor(), 4)
    rho = reduced_density(psi, (0, 1))
    assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]))
    # product state: rank-1 projector
    rho_p = reduced_density(materialize_mps(pattern_tensor([0], [1.0], 2), 4), (1, 2))
    assert abs(np.trace(rho_p @ rho_p).real - 1.0) < 1e-12


def test_bell_reduced_is_maximally_mixed():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    rho = reduced_density(DenseState(2, 2, amps), (0,))
    assert np.allclose(rho, np.eye(2) / 2)


def test_von_neumann_entropy_and_mi():
    psi = materialize_mps(ghz_tensor(), 8)
    rho = reduced_density(psi, (0, 1))
    assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12
    assert abs(mutual_information(psi, {0, 1}, {4, 5}) - 1.0) < 1e-12
    # pure state entropy 0
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    with pytest.raises(NotPSD):
        von_neumann_entropy(np.diag([1.1, -0.1]))


def test_mi_ghz_family_binary_entropy():
    state = dense_pattern_state(["0", "1"], [math.sqrt(0.3), math.sqrt(0.7)], 8)
    got = mutual_information(state, {0, 1}, {4, 5})
    assert abs(got - binary_entropy(0.3)) < 1e-12


def test_trace_distance_pure():
    psi = materialize_mps(ghz_tensor(), 4)
    # identical states: zero up to sqrt-of-roundoff amplification
    assert trace_distance_pure(psi, psi) < 1e-7
    a = DenseState(1, 2, np.array([1.0, 0.0], dtype=complex))
    b = DenseState(1, 2, np.array([0.0, 1.0], dtype=complex))
    assert abs(trace_distance_pure(a, b) - 1.0) < 1e-15
    c = DenseState(1, 2, np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))
    assert abs(trace_distance_pure(a, c) - 1 / math.sqrt(2)) < 1e-12


def test_trace_distance_mixed_and_fannes_closed_form():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    delta = trace_distance_mixed(rho, sigma)
    assert abs(delta - 0.5) < 1e-12
    # |dS| = 1 <= 0.5 * 1 + H_bin(0.5) = 1.5
    assert fannes_check(rho, sigma, n_qubits=1)


def test_fannes_check_decomposes_each_density_once(count_linalg):
    rng = np.random.default_rng(12)
    rho, sigma = random_density(4, rng), random_density(4, rng)
    calls = count_linalg("eigvalsh")
    assert fannes_check(rho, sigma, n_qubits=2)
    assert calls["eigvalsh"] == [4, 4, 4]  # rho, sigma and their difference


def test_fannes_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        rho, sigma = random_density(2**k, rng), random_density(2**k, rng)
        assert fannes_check(rho, sigma, n_qubits=k)


def test_contractivity_of_partial_trace():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = DenseState._owning(a, 4, 2)
        phi = DenseState._owning(b, 4, 2)
        full = trace_distance_pure(psi, phi)
        red = trace_distance_mixed(
            reduced_density(psi, (0, 1)), reduced_density(phi, (0, 1))
        )
        assert red <= full + 1e-10


def test_partial_transpose_and_flatness():
    # maximally mixed: flat
    rho = np.eye(4) / 4.0
    assert flatness_check(rho, 2)
    with pytest.raises(BadFactorization):
        partial_transpose(np.eye(6), 4)
    # Bell state: partial transpose has eigenvalues +-1/2: flat
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    rho_b = np.outer(amps, amps.conj())
    assert flatness_check(rho_b, 2)
    # non-stabilizer weights: not flat
    t = counterexample_t_star()
    state = dense_pattern_state(
        ["00", "01", "10", "11"], np.sqrt(counterexample_probs(t)), 12
    )
    rho_ab = reduced_density(state, (0, 1, 2, 3, 6, 7, 8, 9))
    assert not flatness_check(rho_ab, 16)


def test_flatness_matches_power_proportionality():
    rng = np.random.default_rng(23)
    for _ in range(40):
        rho = random_density(8, rng)
        pt = partial_transpose(rho, 2)
        flat = flatness_check(rho, 2)
        m2 = pt @ pt
        m4 = m2 @ m2
        nu = np.vdot(m4, m2).real / max(np.vdot(m4, m4).real, 1e-300)
        residual = np.linalg.norm(m2 - nu * m4) / max(np.linalg.norm(m2), 1e-300)
        assert flat == (residual < 1e-9)
    # and on a state where flatness holds exactly
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    rho_b = np.outer(amps, amps.conj())
    pt = partial_transpose(rho_b, 2)
    m2, m4 = pt @ pt, (pt @ pt) @ (pt @ pt)
    nu = np.vdot(m4, m2).real / np.vdot(m4, m4).real
    assert np.linalg.norm(m2 - nu * m4) < 1e-12


def test_brickwork_identity_and_inverse():
    state = dense_pattern_state(["0", "1"], [0.6, 0.8], 8)
    d2 = 4
    ident_layers = (((0, np.eye(d2, dtype=complex)), (2, np.eye(d2, dtype=complex)),
                     (4, np.eye(d2, dtype=complex)), (6, np.eye(d2, dtype=complex))),)
    circ_id = BrickworkCircuit(n_sites=8, local_dim=2, layers=ident_layers)
    out = apply_brickwork(state, circ_id)
    assert np.allclose(out.amplitudes, state.amplitudes)
    # CNOT-like permutation layer on |0...0>
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    zeros = materialize_mps(pattern_tensor([0], [1.0], 2), 8)
    perm_layers = (((0, cnot), (2, cnot), (4, cnot), (6, cnot)),)
    out = apply_brickwork(zeros, BrickworkCircuit(8, 2, perm_layers))
    assert np.allclose(out.amplitudes, zeros.amplitudes)
    # random circuit then its adjoint
    circ = random_brickwork(8, 3, seed=2)
    back = apply_brickwork(apply_brickwork(state, circ), adjoint(circ))
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10


def test_brickwork_geometry_checks():
    circ = random_brickwork(8, 1, seed=0)
    with pytest.raises(GeometryMismatch):
        apply_brickwork(dense_pattern_state(["0"], [1.0], 6), circ)
    with pytest.raises(GeometryMismatch):
        BrickworkCircuit(4, 2, (((0, np.eye(4) * 2.0),),))  # not unitary


def test_gate_loop_wraps_ring():
    # swap across the ring boundary (sites 7, 0)
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    amps = np.zeros(2**8, dtype=complex)
    amps[1] = 1.0  # site 7 set to |1>
    out = _apply_gates(amps, 8, 2, [(swap, (7, 0))])
    idx = np.argmax(np.abs(out))
    assert idx == 2**7  # now site 0 carries the excitation


def test_qudit_brickwork_and_mi():
    # native d = 3 sites: unitary layers keep the norm, MI well defined
    state = dense_pattern_state(["0", "2"], [0.6, 0.8], 6)
    assert state.local_dim == 3
    circ = random_brickwork(6, 2, seed=4, local_dim=3)
    out = apply_brickwork(state, circ)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
    back = apply_brickwork(out, adjoint(circ))
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10
    mi = mutual_information(state, {0}, {3})
    assert abs(mi - binary_entropy(0.36)) < 1e-12


def _trace_product_amplitudes(t, n):
    """Oracle: ``tr(A[i1] ... A[iN])`` word by word, site 0 most significant."""
    amps = []
    for word in itertools.product(range(t.phys_dim), repeat=n):
        m = np.eye(t.bond_dim, dtype=complex)
        for i in word:
            m = m @ t.matrices[i]
        amps.append(np.trace(m))
    return np.array(amps)


@pytest.mark.parametrize("d,chi", [(2, 8), (3, 4)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_materialize_mps_matches_trace_products(d, chi, n):
    t = random_normal_tensor(d, chi, seed=10 * n + d)
    raw = _trace_product_amplitudes(t, n)
    psi = materialize_mps(t, n)
    assert np.max(np.abs(psi.amplitudes - raw / np.linalg.norm(raw))) < 1e-12


def test_materialize_mps_peak_memory_is_bounded(monkeypatch, traced_peak):
    t = random_normal_tensor(2, 8, seed=5)
    psi, peak = traced_peak(lambda: materialize_mps(t, 14))
    assert psi.amplitudes.nbytes == 2**14 * 16  # a 0.25 MiB state
    assert peak <= 2 * 2**20
    # The cap covers the half-ring products, not only the amplitudes.
    monkeypatch.setattr(dense, "AMP_CAP", 2**10)
    with pytest.raises(SizeCap):
        materialize_mps(t, 10)


def _svd_entropy(psi, region):
    """Oracle: entropy from the singular values of the region/rest matrix."""
    n, d = psi.n_sites, psi.local_dim
    rest = [q for q in range(n) if q not in region]
    arr = psi.amplitudes.reshape([d] * n).transpose(list(region) + rest)
    sv = np.linalg.svd(arr.reshape(d ** len(region), -1), compute_uv=False)
    p = sv * sv
    p = p[p > 1e-12]
    return float(-np.sum(p * np.log2(p)))


@pytest.mark.parametrize("d", [2, 3])
def test_subsystem_entropy_matches_svd_oracle(d):
    rng = np.random.default_rng(40 + d)
    n = 7 if d == 2 else 5
    raw = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    sites = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n)]
    states = {
        "random": DenseState._owning(raw, n, d),
        "product": DenseState._owning(functools.reduce(np.kron, sites), n, d),
        "ghz": dense_pattern_state(["0", str(d - 1)], [1.0, 1.0], n),
    }
    assert states["ghz"].local_dim == d
    # Every proper region, so both sides of every cut.
    for k in range(1, n):
        for region in itertools.combinations(range(n), k):
            for name, psi in states.items():
                got = subsystem_entropy(psi, region)
                assert abs(got - _svd_entropy(psi, region)) < 1e-12, (name, region)
                if name == "ghz":
                    assert abs(got - 1.0) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 8), (3, 6)])
def test_apply_brickwork_builds_one_state(d, n, monkeypatch):
    state = dense_pattern_state(["0", str(d - 1)], [0.6, 0.8], n)
    circ = random_brickwork(n, 3, seed=11, local_dim=d)
    gate_by_gate = state
    for layer in circ.layers:
        for s, gate in layer:
            amps = _apply_gates(gate_by_gate.amplitudes, n, d, [(gate, (s, (s + 1) % n))])
            gate_by_gate = DenseState(n, d, amps)
    built = {"n": 0}
    original = DenseState.__post_init__

    def counted(self):
        built["n"] += 1
        original(self)

    monkeypatch.setattr(DenseState, "__post_init__", counted)
    out = apply_brickwork(state, circ)
    assert built["n"] == 1
    assert np.max(np.abs(out.amplitudes - gate_by_gate.amplitudes)) < 1e-13


def test_apply_brickwork_peak_memory_is_bounded(traced_peak):
    # Each gate reads the state and writes one new array; no third copy.
    n = 16
    state = dense_pattern_state(["0", "1"], [0.6, 0.8], n)
    for offset in (0, 1):  # offset 1 adds one axis rotation and the final transpose
        circ = random_brickwork(n, 1, seed=3, first_offset=offset)
        out, peak = traced_peak(lambda: apply_brickwork(state, circ))
        assert out.amplitudes.nbytes == 2**20  # a 1 MiB state
        assert peak <= 2 * 2**20 + 64 * 2**10, offset


def test_reduced_density_peak_memory_is_bounded(traced_peak):
    # 8 of 16 sites that do not lead: one transposed copy of the 1 MiB
    # state, the 1 MiB density and one block of conjugated rows; a whole
    # conjugate copy would add another 1 MiB.
    n = 16
    rng = np.random.default_rng(4)
    raw = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi = DenseState._owning(raw, n, 2)
    rho, peak = traced_peak(lambda: reduced_density(psi, build_partition(n, 1).ab))
    assert rho.nbytes == 2**20
    assert peak <= 2.5 * 2**20


@pytest.mark.parametrize("shape", [(256, 256), (16, 4096), (256, 16), (64, 64), (100, 7)])
def test_gram_matches_the_plain_product(shape):
    rng = np.random.default_rng(shape[0])
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for arr in (m, m.T):  # the transposed view is what _smaller_gram passes
        want = arr @ arr.conj().T
        assert np.max(np.abs(_gram(arr) - want)) <= 1e-13 * np.max(np.abs(want))


def test_flatness_check_peak_memory_is_bounded(traced_peak):
    # A 256 x 256 (1 MiB) density: its partial transpose, whose Hermitian
    # part is taken in place one strip of rows at a time; a whole conjugate
    # copy (2.13 MiB in all) would break the bound.
    rho = random_density(256, np.random.default_rng(6))
    _, peak = traced_peak(lambda: flatness_check(rho, 16))
    assert peak <= 1.5 * 2**20


@pytest.mark.parametrize("dim_a", [1, 4, 16])
def test_flatness_check_leaves_its_input_alone(dim_a):
    # At dim_a = 1 the partial transpose is the identity map: it must still
    # be a fresh array, since flatness_check writes into it.
    rho = random_density(16, np.random.default_rng(dim_a))
    before = rho.copy()
    rho.setflags(write=False)
    flatness_check(rho, dim_a)
    assert np.array_equal(rho, before)
    assert not np.shares_memory(partial_transpose(rho, dim_a), rho)


def test_random_brickwork_matches_per_gate_draws():
    # Oracle: one Gaussian draw and one QR per gate, gate after gate.
    def per_gate(n, depth, seed, d):
        rng = np.random.default_rng(seed)
        first = int(rng.integers(0, 2))
        layers = []
        for layer_idx in range(depth):
            offset = (first + layer_idx) % 2
            layer = []
            for k in range(n // 2):
                z = rng.standard_normal((d * d, d * d))
                z = z + 1j * rng.standard_normal((d * d, d * d))
                q, r = np.linalg.qr(z)
                ph = np.diag(r)
                layer.append(((offset + 2 * k) % n, q * (ph / np.abs(ph))))
            layers.append(layer)
        return layers

    for n, depth, d, seed in itertools.product((16, 8, 7, 3), (1, 2, 3), (2, 3), range(3)):
        circ = random_brickwork(n, depth, seed, local_dim=d)
        expect = per_gate(n, depth, seed, d)
        assert len(circ.layers) == len(expect)
        for got, want in zip(circ.layers, expect):
            assert len(got) == len(want) == n // 2
            for (s, gate), (t, oracle) in zip(got, want):
                assert s == t and np.array_equal(gate, oracle), (n, depth, d, seed)


def _embedded_unitary(gate, sites, n, d):
    """``gate ⊗ 1`` on ``sites`` (in their order) as a d**n matrix.

    The Kronecker product acts in the basis ordered (sites, rest); the
    natural basis index of every digit string is relabelled into it.
    """
    rest = [q for q in range(n) if q not in sites]
    full = np.kron(gate, np.eye(d ** len(rest)))
    digits = np.array(list(itertools.product(range(d), repeat=n)))
    idx = digits[:, list(sites) + rest] @ (d ** np.arange(n - 1, -1, -1))
    return full[np.ix_(idx, idx)]


@pytest.mark.parametrize("d,n,targets", [
    (2, 5, [(0, 3), (3, 1), (4, 0), (1, 4, 2), (2,), (4, 3, 0)]),
    (3, 4, [(0, 2), (3, 1), (2, 0, 3), (1,), (3, 0)]),
])
def test_gate_loop_matches_kronecker_embedding(d, n, targets):
    rng = np.random.default_rng(10 * d + n)
    raw = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    psi = DenseState._owning(raw, n, d)
    gates = [(_haar_gates(1, d ** len(t), rng)[0], t) for t in targets]
    expect = psi.amplitudes
    step = psi
    for gate, t in gates:
        expect = _embedded_unitary(gate, t, n, d) @ expect
        step = DenseState(n, d, _apply_gates(step.amplitudes, n, d, [(gate, t)]))
        assert np.max(np.abs(step.amplitudes - expect)) < 1e-13, t
    # The whole list in one loop: intermediate layouts stay permuted views.
    assert np.max(np.abs(_apply_gates(psi.amplitudes, n, d, gates) - expect)) < 1e-13
    # Targets are read as numpy reads axes: negative ones count from the end.
    gate = gates[0][0]
    assert np.array_equal(_apply_gates(psi.amplitudes, n, d, [(gate, (-1, 0))]),
                          _apply_gates(psi.amplitudes, n, d, [(gate, (n - 1, 0))]))
    # Out-of-range and repeated targets are named errors, not numpy's.
    for bad in [(0, n), (1, 1), (-n - 1, 0), (0, -n)]:
        with pytest.raises(DimensionMismatch):
            _apply_gates(psi.amplitudes, n, d, [(gate, bad)])
    with pytest.raises(DimensionMismatch):
        _apply_gates(psi.amplitudes, n, d, [(np.eye(d**2), (0, 1, 2))])
    with pytest.raises(DimensionMismatch):
        _apply_gates(psi.amplitudes, n, d, [(np.eye(d**2), (0, 1)), (np.eye(d), (0, 1))])


def _rotating_frame_gates(psi, gates):
    """Oracle: the gate loop with every gate, one-site ones too, as ``arr.T @ gate.T``."""
    n, d = psi.n_sites, psi.local_dim
    arr = psi.amplitudes
    order = list(range(n))
    for gate, t in gates:
        t = list(t)
        k = len(t)
        if order[:k] != t:
            p = order.index(t[0])
            rotated = order[p:] + order[:p]
            if rotated[:k] == t:
                arr = arr.reshape(d**p, -1).T.reshape(d**k, -1)
                order = rotated
            else:
                rest = [q for q in order if q not in t]
                axes = [order.index(q) for q in t + rest]
                arr = arr.reshape([d] * n).transpose(axes).reshape(d**k, -1)
                order = t + rest
        arr = arr.reshape(d**k, -1).T @ gate.T
        order = order[k:] + t
    return arr.reshape([d] * n).transpose(sorted(range(n), key=order.__getitem__)).reshape(-1)


@pytest.mark.parametrize("d,n", [(2, 3), (2, 7), (2, 12), (2, 16), (3, 3), (3, 6), (3, 9)])
def test_one_site_gates_match_the_rotating_frame(d, n):
    # Circuits that mix one- and two-site gates: a layer of one-site gates
    # in site order (each keeps the rotating product), then one-site gates
    # on random sites and on the second target of a two-site gate.
    rng = np.random.default_rng(100 * d + n)
    raw = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    psi = DenseState._owning(raw, n, d)
    gates = [(_haar_gates(1, d, rng)[0], (q,)) for q in range(n)]
    for _ in range(24):
        if rng.uniform() < 0.5:
            gates.append((_haar_gates(1, d, rng)[0], (int(rng.integers(n)),)))
        else:
            a = int(rng.integers(n))
            b = (a + 1 + int(rng.integers(n - 1)) * (rng.uniform() < 0.3)) % n
            gates.append((_haar_gates(1, d * d, rng)[0], (a, b)))
            if rng.uniform() < 0.5:
                gates.append((_haar_gates(1, d, rng)[0], (b,)))
    got = _apply_gates(psi.amplitudes, n, d, gates)
    assert np.max(np.abs(got - _rotating_frame_gates(psi, gates))) < 1e-13


def _eigvalsh_entropy(m):
    """Oracle: entropy from a full ``eigvalsh`` of the Gram matrix ``m m†``."""
    p = np.linalg.eigvalsh(m @ m.conj().T)
    p = p[p > 1e-12]
    return float(-np.sum(p * np.log2(p)))


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """Records the size of every ``eigvalsh`` call."""
    sizes = []
    original = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return sizes


def test_pivot_entropy_bound_is_audenaert_fannes_at_the_cap():
    t = _PIVOT_FLOOR
    assert _PIVOT_ENTROPY_BOUND == pytest.approx(
        t * math.log2(RHO_CAP - 1) + binary_entropy(t), rel=1e-12
    )
    assert _PIVOT_ENTROPY_BOUND < 1e-13


def _gram_entropy_cases():
    """``{name: (m, sizes the helper's one eigenproblem may have)}``."""
    rng = np.random.default_rng(17)
    dim = 256

    def gaussian(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def random_factor(rows, cols, rank):
        m = gaussian((rows, rank)) @ gaussian((rank, cols))
        return m / np.linalg.norm(m)

    # Eigenvalues on both sides of the pivot floor (relative 1e-15), none
    # within reach of the 1e-12 entropy cut.
    tail = [1e-9, 1e-11, 1e-13, 1e-14, 3e-15, 1e-16, 1e-17, 1e-19]
    spectrum = [*rng.dirichlet(np.ones(6)) * (1.0 - sum(tail)), *tail]
    u, v = (np.linalg.qr(gaussian((k, k)))[0][:, :len(spectrum)] for k in (64, 80))
    near_deficient = (u * np.sqrt(spectrum)) @ v.conj().T

    return {
        "full_rank": (random_factor(dim, dim, dim), {dim}),
        "full_rank_odd": (random_factor(37, 40, 37), {37}),
        "rank_1": (random_factor(dim, dim, 1), {1}),
        "rank_2": (random_factor(dim, dim, 2), {2}),
        "rank_64": (random_factor(dim, dim, 64), {64}),
        "tall": (random_factor(300, 24, 24), {24}),
        "wide": (random_factor(20, 300, 20), {20}),
        "tall_low_rank": (random_factor(300, 120, 5), {5}),
        "wide_low_rank": (random_factor(90, 400, 7), {7}),
        # Six leading and five tail eigenvalues lie above the floor: fewer
        # than 11 steps would leave over 1e-15 in the Schur complement.
        "near_deficient": (near_deficient, {11, 12}),
        "zero": (np.zeros((8, 5), dtype=complex), {0}),
    }


def test_gram_entropy_matches_full_eigvalsh(eigvalsh_sizes):
    cases = _gram_entropy_cases()
    for name, (m, sizes) in cases.items():
        eigvalsh_sizes.clear()
        got = _gram_entropy(m)
        assert len(eigvalsh_sizes) == 1 and eigvalsh_sizes[0] in sizes, name
        assert abs(got - _eigvalsh_entropy(m)) <= _PIVOT_ENTROPY_BOUND, name
    assert _gram_entropy(cases["zero"][0]) == 0.0


def _gram_entropy_full_buffer(m):
    """Reference: ``_gram_entropy`` with all rows of L allocated before the first pivot."""
    if m.shape[0] > m.shape[1]:
        m = m.T
    dim = m.shape[0]
    resid = np.sum(m.real**2 + m.imag**2, axis=1)
    stop = _PIVOT_FLOOR * resid.sum()
    rows = np.empty((dim // 2 + 1, dim), dtype=complex)
    k = 0
    while resid.sum() > stop:
        if 2 * k > dim:
            return _entropy(np.linalg.eigvalsh(_smaller_gram(m)))
        j = int(np.argmax(resid))
        col = m @ m[j].conj() - rows[:k, j].conj() @ rows[:k]
        rows[k] = col / math.sqrt(resid[j])
        resid -= rows[k].real ** 2 + rows[k].imag ** 2
        resid[j] = 0.0
        k += 1
    return _entropy(np.linalg.eigvalsh(rows[:k] @ rows[:k].conj().T))


def test_gram_entropy_growing_buffer_is_bit_equal_to_the_full_one():
    rng = np.random.default_rng(18)
    cases = {name: m for name, (m, _) in _gram_entropy_cases().items()}
    for rank in (3, 5, 9, 17):  # one pivot past a power of two
        g = rng.standard_normal((130, rank)) + 1j * rng.standard_normal((130, rank))
        cases[f"rank_{rank}"] = g @ rng.standard_normal((rank, 150))
    for name, m in cases.items():
        assert _gram_entropy(m) == _gram_entropy_full_buffer(m), name


def test_gram_entropy_memory_follows_the_rank(traced_peak):
    # The rows of L were allocated for half the dimension before the first
    # pivot: 2.04 MiB here for two pivots, 128 MiB at RHO_CAP.
    rng = np.random.default_rng(19)
    m = rng.standard_normal((512, 2)) @ rng.standard_normal((2, 512)) + 0j
    m /= np.linalg.norm(m)
    entropy, peak = traced_peak(lambda: _gram_entropy(m))
    assert entropy == pytest.approx(_eigvalsh_entropy(m), abs=1e-12)
    assert peak <= 0.25 * 2**20


def _three_entropy_mi(psi, region_a, region_b):
    """Oracle: I(A:B) from three independent subsystem entropies."""
    a, b = set(region_a), set(region_b)
    return (subsystem_entropy(psi, a) + subsystem_entropy(psi, b)
            - subsystem_entropy(psi, a | b))


@pytest.mark.parametrize("d", [2, 3])
def test_mutual_information_matches_three_entropy_oracle(d):
    rng = np.random.default_rng(60 + d)
    n = 6 if d == 2 else 5
    raw = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    sites = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n)]
    states = {
        "random": DenseState._owning(raw, n, d),
        "product": DenseState._owning(functools.reduce(np.kron, sites), n, d),
        "ghz": dense_pattern_state(["0", str(d - 1)], [1.0, 1.0], n),
    }
    # Every assignment of each site to A, B or neither: empty regions,
    # A∪B equal to every site, and B larger than its complement included.
    for labels in itertools.product(range(3), repeat=n):
        a = [q for q in range(n) if labels[q] == 1]
        b = [q for q in range(n) if labels[q] == 2]
        for name, psi in states.items():
            got = mutual_information(psi, a, b)
            assert abs(got - _three_entropy_mi(psi, a, b)) < 1e-12, (name, a, b)
            if name == "product":
                assert abs(got) < 1e-12
            elif name == "ghz" and a and b:  # one shared bit; two if A∪B is pure
                assert abs(got - (1.0 if len(a) + len(b) < n else 2.0)) < 1e-12
    psi = states["random"]
    assert abs(mutual_information(psi, [], [0, 1])) < 1e-12
    half = list(range(n // 2))
    assert abs(mutual_information(psi, half, range(n // 2, n))
               - 2 * subsystem_entropy(psi, half)) < 1e-12
    for bad in [({0, 1}, {1, 2}), ({0}, {n}), ({-1}, {2}), ({0}, {n + 3, 1})]:
        with pytest.raises(DimensionMismatch):
            mutual_information(psi, *bad)


def test_mutual_information_fixed_point_after_brickwork(eigvalsh_sizes):
    n = 16
    part = build_partition(n, 1)
    state = materialize_fixed_point(rg_fixed_point(phase_loop_tensor(math.pi / 3)), n)
    for seed in range(3):
        psi = apply_brickwork(state, random_brickwork(n, 1, seed))
        eigvalsh_sizes.clear()
        got = mutual_information(psi, part.a, part.b)
        # Marginals of 4 sites, then the rank of rho_AB rather than 256.
        assert eigvalsh_sizes[:2] == [16, 16]
        assert eigvalsh_sizes[2] <= 64
        assert abs(got - _three_entropy_mi(psi, part.a, part.b)) < 1e-12


@pytest.mark.parametrize("big", ["a", "b"])
def test_mutual_information_memory_follows_the_smaller_side(big, traced_peak):
    # One region holds 10 of 14 sites: its own 1024 x 1024 reduced density
    # (or the per-A blocks of B's) would dwarf the 0.25 MiB state.
    rng = np.random.default_rng(8)
    raw = rng.standard_normal(2**14) + 1j * rng.standard_normal(2**14)
    psi = DenseState._owning(raw, 14, 2)
    a, b = [0], list(range(1, 11))
    if big == "a":
        a, b = b, a
    got, peak = traced_peak(lambda: mutual_information(psi, a, b))
    assert peak <= 2 * 2**20
    assert abs(got - _three_entropy_mi(psi, a, b)) < 1e-12


@pytest.mark.parametrize(
    "shape", [(256, 256), (256, 16), (16, 4096), (64, 64), (104, 200), (1, 5)],
    ids=["square", "tall", "wide", "one-block", "odd", "row"],
)
def test_gram_is_the_plain_product_bit_for_bit(shape):
    # Only the column blocks on and below the diagonal are formed; each is
    # the same BLAS sum as in the whole product, and the mirror makes the
    # output exactly Hermitian.  The odd shape's sides are multiples of 8,
    # so that a threaded BLAS splits the plain product on kernel tile
    # edges as well; at 100 x 300 two threads split it elsewhere and its
    # last bits move, while one thread still matches.
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for arr in (m, m.T):
        got = _gram(arr)
        assert np.array_equal(got, arr @ arr.conj().T)
        assert np.array_equal(got, got.conj().T)


def test_gram_of_a_wide_factor_conjugates_one_block_of_rows(traced_peak):
    # S(A)'s 16 x 4096 cut of a 1 MiB state: a few rows are conjugated at a
    # time, not the whole state, as a fixed 64-row block would.
    rng = np.random.default_rng(3)
    m = rng.standard_normal((16, 4096)) + 1j * rng.standard_normal((16, 4096))
    got, peak = traced_peak(lambda: _gram(m))
    assert np.array_equal(got, m @ m.conj().T)
    assert peak <= 0.5 * 2**20


@pytest.mark.parametrize("rows,cols_f,cols_g",
                         [(256, 256, 256), (256, 256, 100), (100, 7, 300), (1, 5, 3)])
def test_gram_gap_matches_the_formed_difference(rows, cols_f, cols_g):
    rng = np.random.default_rng(rows + cols_g)
    f = rng.standard_normal((rows, cols_f)) + 1j * rng.standard_normal((rows, cols_f))
    g = rng.standard_normal((rows, cols_g)) + 1j * rng.standard_normal((rows, cols_g))
    f_cols = np.asfortranarray(f)  # the same factor, column-major
    for a, b in ((f, g), (g, f), (f_cols, g)):
        want = np.linalg.norm(a @ a.conj().T - b @ b.conj().T)
        assert abs(_gram_gap(a, b) - want) <= 1e-12 * max(want, np.linalg.norm(a) ** 2)
    assert _gram_gap(f, f) == 0.0
    with pytest.raises(DimensionMismatch):
        _gram_gap(f, g[:-1])


@pytest.mark.parametrize("dim", [256, 100, 1])
def test_hermitize_is_the_formed_hermitian_part_in_place(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    want = (a + a.conj().T) / 2
    assert _hermitize(a) is a
    assert a.tobytes() == want.tobytes()


def test_mutual_information_keeps_one_transposed_copy(traced_peak):
    # The 16-site fixed point that verify evolves: the (A, B, rest) copy of
    # the 1 MiB state and blocks.  S(A)'s conjugate copy and the per-A Gram
    # stack each added another 1 MiB (2.06 MiB in all).
    n = 16
    part = build_partition(n, 1)
    state = materialize_fixed_point(rg_fixed_point(phase_loop_tensor(math.pi / 3)), n)
    psi = apply_brickwork(state, random_brickwork(n, 1, 0))
    got, peak = traced_peak(lambda: mutual_information(psi, part.a, part.b))
    assert abs(got - _three_entropy_mi(psi, part.a, part.b)) < 1e-12
    assert peak <= 1.75 * 2**20


def _old_materialize_fixed_point(f, n):
    """The accumulate-then-copy materialization this module used to ship."""
    d = f.blocks[0].tensor.phys_dim
    if d**n > dense.AMP_CAP:
        raise SizeCap(f"{d}**{n} amplitudes exceed the cap")
    total = np.zeros(d**n, dtype=complex)
    for weight, block in zip(f.weights.amplitudes(n), f.blocks):
        t = block.tensor
        chi = t.bond_dim
        lam = np.asarray(block.schmidt_weights, dtype=float)
        if (chi * chi) ** n > dense.AMP_CAP:
            raise SizeCap("link construction exceeds the amplitude cap")
        with np.errstate(divide="ignore"):
            inv_root = np.where(lam > SUPPORT_TOL, 1.0 / np.sqrt(np.maximum(lam, 1e-300)), 0.0)
        v = (t.matrices * inv_root[None, None, :]).reshape(d, chi * chi)
        omega = np.diag(np.sqrt(lam)).astype(complex)
        full = omega
        for _ in range(n - 1):
            full = np.multiply.outer(full, omega)
        perm = []
        for i in range(n):
            perm.append(2 * n - 1 if i == 0 else 2 * i - 1)
            perm.append(2 * i)
        arr = full.transpose(perm)
        for i in range(n):
            rest = [chi] * (2 * (n - 1 - i)) + [d] * i
            out = (v @ arr.reshape(chi * chi, -1)).reshape([d] + rest)
            arr = np.moveaxis(out, 0, -1)
        total += weight * arr.reshape(-1)
    return DenseState._owning(total, n, d)


@pytest.mark.parametrize("name", ["ghz", "loop", "chi2"])
def test_materialize_fixed_point_is_the_old_sum_bit_for_bit(name):
    tensor = {
        "ghz": ghz_tensor(),
        "loop": phase_loop_tensor(math.pi / 3),
        "chi2": random_normal_tensor(2, 2, seed=42),  # one block, d = 4, chi = 2
    }[name]
    fp = rg_fixed_point(tensor)
    for n in range(2, 17):
        try:
            want = _old_materialize_fixed_point(fp, n).amplitudes
        except SizeCap:  # the chi-2 links pass the cap beyond n = 12
            with pytest.raises(SizeCap):
                materialize_fixed_point(fp, n)
            continue
        assert materialize_fixed_point(fp, n).amplitudes.tobytes() == want.tobytes(), n


def test_materialize_fixed_point_peak_memory_is_bounded(traced_peak):
    # The ghz fixed point at n = 16: the 1 MiB sum, the last link stage
    # (0.5 MiB) and one chunk; a block copy and its scaled copy beside the
    # sum (3.02 MiB in all) would break the bound.
    fp = rg_fixed_point(ghz_tensor())
    psi, peak = traced_peak(lambda: materialize_fixed_point(fp, 16))
    assert psi.amplitudes.nbytes == 2**20
    assert peak <= 2.25 * 2**20
