"""Peripheral spectra, correlation lengths, normality certificates."""

import math

import numpy as np
import pytest

from lrn_detect import (
    MpsTensor,
    correlation_length,
    is_normal,
    spectral,
    transfer_matrix,
)
from lrn_detect.errors import NonDiagonalizablePeripheral
from lrn_detect.families import (
    alternating_tensor,
    ghz_tensor,
    phase_loop_tensor,
    product_tensor,
    random_normal_tensor,
)


def test_ghz_peripheral_pair():
    s = spectral(transfer_matrix(ghz_tensor()))
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
    e = transfer_matrix(make()).matrix
    s = spectral(e)
    assert len(s.peripheral) == k
    gram = s.left_vecs.conj().T @ s.right_vecs
    assert np.allclose(gram, np.eye(k), atol=1e-9)
    # Column j is a left eigenvector for peripheral[j]: l^H E = lambda l^H.
    for j, lam in enumerate(s.peripheral):
        l_h = s.left_vecs[:, j].conj()
        assert np.allclose(l_h @ e, lam * l_h, atol=1e-9)


def test_normal_tensor_unique_peripheral():
    t = random_normal_tensor(2, 3, seed=5)
    s = spectral(transfer_matrix(t))
    assert len(s.peripheral) == 1


def test_correlation_length_values():
    # No subleading eigenvalue at all.
    assert correlation_length(spectral(transfer_matrix(product_tensor()))) == 0.0
    # Second block decaying with weight exp(-1/2): transfer eigenvalue exp(-1).
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0] = np.diag([1.0, 0.0])
    mats[1] = np.diag([0.0, math.exp(-0.5)])
    xi = correlation_length(spectral(transfer_matrix(MpsTensor(mats))))
    assert abs(xi - 1.0) < 1e-12
    # Degenerate peripheral space: infinite, flagged multi-block.
    assert correlation_length(spectral(transfer_matrix(ghz_tensor()))) == math.inf


def test_defective_peripheral_rejected():
    jordan = np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex)
    with pytest.raises(NonDiagonalizablePeripheral):
        spectral(transfer_matrix(MpsTensor(jordan)))


def test_is_normal_product():
    wit = is_normal(product_tensor())
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
