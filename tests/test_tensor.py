"""Site tensors, transfer operators, and blocking."""

import numpy as np
import pytest

from lrn_detect import MpsTensor, block_tensor, mixed_transfer_matrix, transfer_matrix
from lrn_detect.errors import DimensionMismatch, SizeCap
from lrn_detect.families import ghz_tensor, pattern_tensor, phase_loop_tensor


def crandn(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_tensor_validation():
    with pytest.raises(DimensionMismatch):
        MpsTensor(np.zeros((2, 2, 3)))
    with pytest.raises(DimensionMismatch):
        MpsTensor(np.array([[[np.inf]]]))
    t = pattern_tensor([0], [1.0], 2)
    assert t.phys_dim == 2 and t.bond_dim == 1


def test_transfer_product_state_is_scalar_one():
    t = pattern_tensor([0], [1.0], 2)
    assert np.allclose(transfer_matrix(t), [[1.0]])


def test_transfer_ghz_is_diagonal():
    # Hand expansion: sum_i kron(A_i, conj(A_i)) for diag(1,0), diag(0,1).
    m = transfer_matrix(ghz_tensor())
    assert np.allclose(m, np.diag([1.0, 0.0, 0.0, 1.0]))


def test_transfer_phase_loop_peripheral_set():
    phi = 0.77
    m = transfer_matrix(phase_loop_tensor(phi))
    evals = np.linalg.eigvals(m)
    evals = evals[np.argsort(-np.abs(evals))]
    top = evals[:5]
    expected = np.array(
        [1.0, 1.0, 1.0, np.exp(2j * phi), np.exp(-2j * phi)], dtype=complex
    )
    assert np.allclose(sorted(np.abs(evals[5:])), 0.0, atol=1e-12)
    assert np.allclose(
        sorted(top, key=lambda z: (round(z.real, 9), round(z.imag, 9))),
        sorted(expected, key=lambda z: (round(z.real, 9), round(z.imag, 9))),
    )


def test_block_q1_is_identity():
    t = ghz_tensor()
    assert block_tensor(t, 1) is t


def test_block_ghz_two_sites():
    b = block_tensor(ghz_tensor(), 2)
    assert b.phys_dim == 4
    # Only the 00 and 11 composite indices survive the diagonal product.
    assert np.allclose(b.matrices[0], np.diag([1.0, 0.0]))
    assert np.allclose(b.matrices[3], np.diag([0.0, 1.0]))
    assert np.allclose(b.matrices[1], 0.0)
    assert np.allclose(b.matrices[2], 0.0)


@pytest.mark.parametrize("d,chi,q", [(2, 2, 2), (3, 4, 3), (2, 3, 4), (3, 2, 4)])
def test_blocking_homomorphism_random(d, chi, q):
    rng = np.random.default_rng(101 + d + 10 * chi + 100 * q)
    t = MpsTensor(crandn((d, chi, chi), rng) / (d * chi))
    lhs = transfer_matrix(block_tensor(t, q))
    rhs = np.linalg.matrix_power(transfer_matrix(t), q)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * chi * chi


def test_block_cap():
    with pytest.raises(SizeCap):
        block_tensor(ghz_tensor(), 13)  # 2**13 above the default cap


def test_mixed_transfer_requires_equal_phys_dim():
    with pytest.raises(DimensionMismatch):
        mixed_transfer_matrix(ghz_tensor(), MpsTensor(np.zeros((3, 1, 1))))


def test_blocking_exact_chi3_q3():
    rng = np.random.default_rng(321)
    t = MpsTensor(crandn((2, 3, 3), rng) / 6.0)
    lhs = transfer_matrix(block_tensor(t, 3))
    rhs = np.linalg.matrix_power(transfer_matrix(t), 3)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_transfer_cap_precedes_allocation(traced_peak):
    from lrn_detect.tensor import TRANSFER_CAP

    rng = np.random.default_rng(65)
    big = MpsTensor(crandn((2, 65, 65), rng))  # chi**2 = 4225 > TRANSFER_CAP
    small = MpsTensor(crandn((2, 64, 64), rng))
    assert 64**2 == TRANSFER_CAP

    def both_capped():
        with pytest.raises(SizeCap):
            transfer_matrix(big)
        with pytest.raises(SizeCap):
            mixed_transfer_matrix(big, small)

    _, peak = traced_peak(both_capped)
    assert peak < 2**20  # the uncapped matrix would take 272 MiB
    assert mixed_transfer_matrix(small, MpsTensor(crandn((2, 1, 1), rng))).shape == (64, 64)


@pytest.mark.parametrize("make", [ghz_tensor, lambda: phase_loop_tensor(1.0)],
                         ids=["ghz", "phase_loop_1"])
def test_decomposition_builds_no_checked_tensor(make, monkeypatch):
    # The input is checked once, where it is built; the tensors the
    # decomposition derives from it are not converted or scanned again.
    from lrn_detect import canonical_decompose

    t = make()
    scans = []
    check = MpsTensor.__post_init__

    def counted(self):
        scans.append(self)
        check(self)

    monkeypatch.setattr(MpsTensor, "__post_init__", counted)
    canonical_decompose(t)
    assert len(scans) == 0
    MpsTensor(t.matrices)
    assert len(scans) == 1  # the counter sees the public constructor


def test_scaled_and_gauged_refuse_non_finite_caller_input():
    t = phase_loop_tensor(1.0)
    x = np.eye(t.bond_dim, dtype=complex)
    x[0, -1] = np.nan
    with pytest.raises(DimensionMismatch):
        t.scaled(np.nan)
    with pytest.raises(DimensionMismatch):
        t.scaled(complex(1.0, np.inf))
    with pytest.raises(DimensionMismatch):
        t.gauged(x)
    with pytest.raises(DimensionMismatch):
        t.gauged(np.eye(t.bond_dim), x)
    with pytest.raises(DimensionMismatch):
        t.gauged(np.ones((t.bond_dim, 2)), np.ones((1, t.bond_dim)))
    derived = t.gauged(np.eye(t.bond_dim)).scaled(2.0)
    assert np.array_equal(derived.matrices, 2.0 * t.matrices)
    assert not derived.matrices.flags.writeable
