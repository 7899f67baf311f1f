"""Peripheral spectra, correlation lengths, normality certificates."""

import math

import numpy as np
import pytest

from lrn_detect import MpsTensor, is_normal, transfer_matrix
from lrn_detect.errors import NonDiagonalizablePeripheral
from lrn_detect.families import (
    alternating_tensor,
    counterexample_tensor,
    ghz_tensor,
    pattern_tensor,
    phase_loop_tensor,
    random_normal_tensor,
)
from lrn_detect.spectral import (
    TAU_RESIDUAL,
    TAU_SPEC,
    rotate_to_hermitian,
    transfer_spectral,
)
from oracles import complex_spectral, correlation_length


def test_ghz_peripheral_pair():
    s = transfer_spectral(ghz_tensor())
    assert len(s.peripheral) == 2
    assert np.allclose(s.peripheral, [1.0, 1.0])
    assert s.multi_block


def _scrambled_gauge_pair():
    """A normal block beside its e^{0.7i} copy, behind a random gauge.

    The peripheral transfer eigenvalues are 1 (twice) and e^{+-0.7i}.
    """
    rng = np.random.default_rng(11)
    t = random_normal_tensor(2, 2, seed=4).matrices
    mats = np.zeros((2, 4, 4), dtype=complex)
    mats[:, :2, :2] = t
    mats[:, 2:, 2:] = np.exp(0.7j) * t
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 10 * np.eye(4)
    return MpsTensor(np.einsum("ab,ibc,cd->iad", np.linalg.inv(x), mats, x))


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: phase_loop_tensor(0.9), 5),
        (alternating_tensor, 2),
        (ghz_tensor, 2),
        (_scrambled_gauge_pair, 4),
    ],
    ids=["phase_loop", "alternating", "ghz", "scrambled_gauge_pair"],
)
def test_biorthonormal_pairing(make, k):
    e = transfer_matrix(make())
    s = complex_spectral(e)
    assert len(s.peripheral) == k
    gram = s.left_vecs.conj().T @ s.right_vecs
    assert np.allclose(gram, np.eye(k), atol=1e-9)
    # Column j is a left eigenvector for peripheral[j]: l^H E = lambda l^H.
    for j, lam in enumerate(s.peripheral):
        l_h = s.left_vecs[:, j].conj()
        assert np.allclose(l_h @ e, lam * l_h, atol=1e-9)


def test_normal_tensor_unique_peripheral():
    t = random_normal_tensor(2, 3, seed=5)
    s = transfer_spectral(t)
    assert len(s.peripheral) == 1


def test_correlation_length_values():
    # No subleading eigenvalue at all.
    assert correlation_length(transfer_spectral(pattern_tensor([0], [1.0], 2))) == 0.0
    # Second block decaying with weight exp(-1/2): transfer eigenvalue exp(-1).
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0] = np.diag([1.0, 0.0])
    mats[1] = np.diag([0.0, math.exp(-0.5)])
    xi = correlation_length(transfer_spectral(MpsTensor(mats)))
    assert abs(xi - 1.0) < 1e-12
    # Degenerate peripheral space: infinite, flagged multi-block.
    assert correlation_length(transfer_spectral(ghz_tensor())) == math.inf


def test_defective_peripheral_rejected():
    jordan = np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex)
    with pytest.raises(NonDiagonalizablePeripheral):
        transfer_spectral(MpsTensor(jordan))


def test_is_normal_product():
    wit = is_normal(pattern_tensor([0], [1.0], 2))
    assert wit
    assert np.allclose(wit.right_fixed_point, [[1.0]])


def test_is_normal_rejects_ghz_and_phase_loop():
    assert not is_normal(ghz_tensor())
    wit = is_normal(phase_loop_tensor(1.3))
    assert not wit
    assert len(wit.peripheral) == 5


def test_is_normal_rejects_triangular_junk():
    # Upper-triangular tensor: invariant subspace, fixed point not full rank.
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0] = np.array([[1.0, 0.7], [0.0, 0.5]])
    mats[1] = np.array([[0.0, 0.2], [0.0, 0.3]])
    assert not is_normal(MpsTensor(mats))


def test_random_normal_tensor_certifies():
    tensors = [random_normal_tensor(2, 2, seed=seed) for seed in range(3)]
    # Normality is scale-invariant: a tiny transfer radius changes nothing.
    tensors.append(random_normal_tensor(2, 3, seed=6).scaled(1e-5))
    for t in tensors:
        wit = is_normal(t)
        assert wit
        ev = np.linalg.eigvalsh(wit.right_fixed_point)
        assert ev[0] > 0


# --- inverse iteration against a dense eig oracle -----------------------------


def _gauge(rng, chi):
    return rng.standard_normal((chi, chi)) + 1j * rng.standard_normal((chi, chi)) + 3 * np.eye(chi)


def _close_phase_pair():
    """A normal block beside its e^{1e-6 i} copy: a cluster of four close,
    distinct peripheral eigenvalues 1, 1, e^{+-1e-6 i}."""
    t = random_normal_tensor(2, 3, seed=21).matrices
    mats = np.zeros((2, 6, 6), dtype=complex)
    mats[:, :3, :3] = t
    mats[:, 3:, 3:] = np.exp(1e-6j) * t
    return MpsTensor(mats).gauged(_gauge(np.random.default_rng(21), 6))


def _oracle_peripheral(e):
    """Peripheral eigenvalues of ``e`` read from a full dense ``eig``."""
    evals = np.linalg.eig(e)[0]
    radius = np.max(np.abs(evals))
    return evals[np.abs(evals) >= radius * (1.0 - TAU_SPEC)]


_ORACLE_CASES = {
    "ghz": ghz_tensor,
    "product": lambda: pattern_tensor([0], [1.0], 2),
    "loop_pi3": lambda: phase_loop_tensor(math.pi / 3),
    "loop_incommensurate": lambda: phase_loop_tensor(math.sqrt(2.0)),
    "loop_7_997": lambda: phase_loop_tensor(2 * math.pi * 7 / 997),
    "alternating": alternating_tensor,
    "counterexample": counterexample_tensor,
    "close_phase_pair": _close_phase_pair,
    **{f"normal_d{d}_chi{chi}": (lambda d=d, chi=chi: random_normal_tensor(d, chi, seed=chi))
       for d in (2, 3) for chi in (2, 5, 9, 16)},
}


def _assert_matches_oracle(e):
    s = complex_spectral(e)
    expected = _oracle_peripheral(e)
    k = len(expected)
    assert len(s.peripheral) == k
    # Same peripheral multiset: every oracle eigenvalue has its own partner.
    dist = np.abs(expected[:, None] - s.peripheral[None, :])
    for _ in range(k):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        assert dist[i, j] < 1e-9 * s.radius
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    assert np.allclose(s.left_vecs.conj().T @ s.right_vecs, np.eye(k), atol=1e-9)
    bound = TAU_RESIDUAL * np.linalg.norm(e)
    for j, lam in enumerate(s.peripheral):
        r, l_h = s.right_vecs[:, j], s.left_vecs[:, j].conj()
        assert np.linalg.norm(e @ r - lam * r) <= bound * np.linalg.norm(r)
        assert np.linalg.norm(l_h @ e - lam * l_h) <= bound * np.linalg.norm(l_h)


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_inverse_iteration_matches_dense_eig(name):
    _assert_matches_oracle(transfer_matrix(_ORACLE_CASES[name]()))


@pytest.mark.parametrize("seed", range(6))
def test_inverse_iteration_matches_dense_eig_on_composites(seed, copy_composite):
    # Random block phases: the peripheral spectrum holds the degenerate
    # eigenvalue one, the copy's phase and its conjugate.
    rng = np.random.default_rng(seed)
    tensor = copy_composite(rng, 2 + seed % 2, [2, 3], np.exp(2j * math.pi * rng.uniform()))
    _assert_matches_oracle(transfer_matrix(tensor))


def test_close_phase_pair_is_one_resolved_cluster():
    s = transfer_spectral(_close_phase_pair())
    phases = np.sort(np.angle(s.peripheral))
    assert np.allclose(phases, [-1e-6, 0.0, 0.0, 1e-6], atol=1e-12)


def _jordan_beside(neighbour, coupled):
    """Transfer-like matrix with a triple eigenvalue one, scrambled.

    ``coupled`` makes the triple one Jordan block.  ``neighbour`` is one
    more eigenvalue, here just inside the peripheral cut, and a decaying
    bulk keeps the matrix from being all cluster.
    """
    rng = np.random.default_rng(5)
    core = np.eye(3, dtype=complex)
    if coupled:
        core += np.diag([1.0, 1.0], 1)
    bulk = 0.5 * rng.uniform(size=12) * np.exp(2j * math.pi * rng.uniform(size=12))
    m = np.zeros((16, 16), dtype=complex)
    m[:3, :3] = core
    m[3, 3] = neighbour
    m[4:, 4:] = np.diag(bulk)
    x = _gauge(rng, 16)
    return x @ m @ np.linalg.inv(x)


def test_jordan_block_beside_a_non_peripheral_eigenvalue():
    inside = 1.0 - 3 * TAU_SPEC  # non-peripheral, but near enough to join the block
    with pytest.raises(NonDiagonalizablePeripheral):
        complex_spectral(_jordan_beside(inside, coupled=True))
    # The same spectrum without the Jordan coupling resolves: the neighbour
    # shares the block but stays outside the peripheral set.
    e = _jordan_beside(inside, coupled=False)
    s = complex_spectral(e)
    assert np.allclose(s.peripheral, [1.0, 1.0, 1.0], atol=1e-9)
    assert np.allclose(s.left_vecs.conj().T @ s.right_vecs, np.eye(3), atol=1e-9)
    bound = TAU_RESIDUAL * np.linalg.norm(e)
    assert np.all(np.linalg.norm(e @ s.right_vecs - s.right_vecs, axis=0) <= bound)


def test_lone_peripheral_eigenvalue_beside_slow_modes():
    # The peripheral 1 has two non-peripheral neighbours 1e-4 away, one just
    # inside TAU_CLUSTER: the shift sits 1e-10 from the 1, so each sweep
    # shrinks the error by about 1e-6 and the neighbours stay out.
    rng = np.random.default_rng(7)
    bulk = 0.5 * rng.uniform(size=13) * np.exp(2j * math.pi * rng.uniform(size=13))
    near = (1 - 1e-6) * np.exp(np.array([0.9e-4j, -1.5e-4j]))
    x = _gauge(rng, 16)
    e = x @ np.diag(np.concatenate([[1.0], near, bulk])) @ np.linalg.inv(x)
    _assert_matches_oracle(e)


def test_zero_tensor_has_no_peripheral_cluster():
    s = transfer_spectral(MpsTensor(np.zeros((2, 3, 3))))
    assert s.radius == 0.0
    assert s.peripheral.size == 0
    assert s.right_vecs.shape == s.left_vecs.shape == (9, 0)
    assert not is_normal(MpsTensor(np.zeros((2, 3, 3))))


@pytest.mark.parametrize("m", [
    -np.eye(2), -1j * np.eye(3), np.diag([-2.0, -1.0]), 1j * np.diag([-2.0, -1.0]),
], ids=["minus_identity", "minus_i_identity", "negative_diag", "rotated_negative_diag"])
def test_rotate_to_hermitian_returns_positive_representative(m):
    h, ev = rotate_to_hermitian(m)
    assert np.allclose(h, np.abs(np.diagonal(m)) * np.eye(len(m)))
    assert np.allclose(ev, np.linalg.eigvalsh(h))


@pytest.mark.parametrize("m, expected", [
    (np.diag([-2.0, 1.0]), np.diag([2.0, -1.0])),
    (np.diag([-1.0, 2.0]), np.diag([-1.0, 2.0])),
    (np.diag([-1.0, 1.0]), np.diag([-1.0, 1.0])),
])
def test_rotate_to_hermitian_keeps_indefinite_orientation(m, expected):
    # As before the sign fix: the larger eigenvalue magnitude ends up
    # positive, and a tie keeps the input's sign.
    h, ev = rotate_to_hermitian(m)
    assert np.array_equal(h, expected)
    assert np.allclose(ev, np.linalg.eigvalsh(expected))


# --- transfer spectra from the real form ----------------------------------------


def _real_form_cases():
    cases = {name: make for name, make in _ORACLE_CASES.items() if not name.startswith("normal")}
    for k in range(12):
        d, chi = 2 + k % 2, 2 + k % 7
        cases[f"normal_{k}_d{d}_chi{chi}"] = (
            lambda d=d, chi=chi, k=k: random_normal_tensor(d, chi, seed=100 + k))
    return cases


def _assert_real_form_spectrum(tensor):
    s = transfer_spectral(tensor)
    e = transfer_matrix(tensor)
    expected = np.linalg.eigvals(e)
    assert s.eigenvalues.dtype == complex and len(s.eigenvalues) == len(expected)
    # Same multiset: every complex eigenvalue has its own real-form partner.
    dist = np.abs(expected[:, None] - s.eigenvalues[None, :])
    for _ in range(len(expected)):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        assert dist[i, j] <= 1e-12 * s.radius
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    # A real matrix has exact conjugate pairs.
    assert np.array_equal(np.sort_complex(s.eigenvalues), np.sort_complex(s.eigenvalues.conj()))
    # The peripheral cut is the generic path's.
    assert len(s.peripheral) == len(complex_spectral(e).peripheral)


@pytest.mark.parametrize("name", list(_real_form_cases()))
def test_transfer_spectral_matches_complex_eigvals(name):
    _assert_real_form_spectrum(_real_form_cases()[name]())


@pytest.mark.parametrize("seed", range(20))
def test_transfer_spectral_matches_complex_eigvals_on_composites(seed, composite_draw):
    _assert_real_form_spectrum(composite_draw(seed))


@pytest.mark.parametrize("chi", [1, 2, 3, 5])
def test_real_form_is_the_hermitian_basis_similarity(chi):
    # Oracle: U^H E U with the orthonormal Hermitian basis written out entry
    # by entry; the real form is its conjugate by D^1/2, D = diag(|v_j|^2).
    from lrn_detect.spectral import _real_form

    e = transfer_matrix(random_normal_tensor(2, chi, seed=chi))
    n = chi * chi
    u = np.zeros((n, n), dtype=complex)
    norms = np.ones(n)
    for a in range(chi):
        for b in range(chi):
            j, t = a * chi + b, b * chi + a
            if a == b:
                u[j, j] = 1.0
            elif a < b:
                u[j, j] = u[t, j] = 1.0 / math.sqrt(2.0)
                norms[j] = 2.0
            else:
                u[t, j], u[j, j] = 1j / math.sqrt(2.0), -1j / math.sqrt(2.0)
                norms[j] = 2.0
    assert np.allclose(u.conj().T @ u, np.eye(n), atol=1e-15)
    oracle = u.conj().T @ e @ u
    assert np.max(np.abs(oracle.imag)) < 1e-14
    scale = np.sqrt(norms)
    assert np.allclose(_real_form(e, chi), oracle.real * scale[None, :] / scale[:, None],
                       atol=1e-14)
