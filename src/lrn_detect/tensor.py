"""Local tensors of translation-invariant MPS and their transfer operators.

A state family is defined by a single tensor ``A`` with ``d`` physical
levels and bond dimension ``chi``; the amplitude of a configuration on a
ring of ``N`` sites is ``tr(A[i1] @ ... @ A[iN])``.  The transfer operator
``sum_i A[i] (x) conj(A[i])`` controls all spectral questions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SizeCap

# Largest physical dimension of a blocked tensor: guards against
# exponential blow-up when grouping sites.
PHYS_DIM_CAP = 4096
# Largest transfer-operator dimension (chi**2 <= 4096, i.e. chi <= 64): a
# dense transfer matrix then holds at most 2**24 complex entries (256 MiB).
TRANSFER_CAP = 4096


@dataclass(frozen=True)
class MpsTensor:
    """Site tensor of a translation-invariant MPS.

    ``matrices`` has shape ``(d, chi, chi)``; ``matrices[i]`` is the bond
    matrix for physical level ``i``.  Instances are immutable values.
    """

    matrices: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionMismatch(
                f"expected shape (d, chi, chi), got {mats.shape}"
            )
        if mats.shape[0] < 1 or mats.shape[1] < 1:
            raise DimensionMismatch("d and chi must be at least 1")
        if not np.all(np.isfinite(mats)):
            raise DimensionMismatch("tensor entries must be finite")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def phys_dim(self) -> int:
        return self.matrices.shape[0]

    @property
    def bond_dim(self) -> int:
        return self.matrices.shape[1]

    def scaled(self, factor: complex) -> "MpsTensor":
        return MpsTensor(self.matrices * factor)

    def gauged(self, x: np.ndarray, x_inv: np.ndarray | None = None) -> "MpsTensor":
        """Similarity transform A[i] -> x^-1 A[i] x (same state family)."""
        if x_inv is None:
            x_inv = np.linalg.inv(x)
        return MpsTensor(np.einsum("ab,ibc,cd->iad", x_inv, self.matrices, x))


@dataclass(frozen=True)
class TransferOperator:
    """Matrix form of the mixed bond-space map generated by a tensor.

    ``matrix[(a, a'), (b, b')] = sum_i A[i][a, b] * conj(A[i][a', b'])``
    with row/column pairs flattened in C order, i.e. the literal Kronecker
    sum ``sum_i kron(A[i], conj(A[i]))``.
    """

    matrix: np.ndarray
    source: MpsTensor = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def transfer_matrix(a: MpsTensor) -> TransferOperator:
    """Transfer operator of ``a`` as a dense chi^2 x chi^2 matrix.

    Raises:
        SizeCap: if chi^2 exceeds ``TRANSFER_CAP``; checked before the
            matrix is formed.
    """
    mats = a.matrices
    chi = a.bond_dim
    _check_transfer_dim(chi * chi)
    m = np.einsum("iab,icd->acbd", mats, mats.conj()).reshape(chi * chi, chi * chi)
    return TransferOperator(matrix=m, source=a)


def mixed_transfer_matrix(a: MpsTensor, b: MpsTensor) -> np.ndarray:
    """``sum_i kron(A[i], conj(B[i]))`` for two tensors with equal d.

    Bond dimensions may differ; the result is (chi_a*chi_b) square.  The
    same ``TRANSFER_CAP`` as for ``transfer_matrix`` applies.
    """
    if a.phys_dim != b.phys_dim:
        raise DimensionMismatch(
            f"physical dimensions differ: {a.phys_dim} vs {b.phys_dim}"
        )
    ca, cb = a.bond_dim, b.bond_dim
    _check_transfer_dim(ca * cb)
    return np.einsum("iab,icd->acbd", a.matrices, b.matrices.conj()).reshape(
        ca * cb, ca * cb
    )


def _check_transfer_dim(dim: int) -> None:
    if dim > TRANSFER_CAP:
        raise SizeCap(
            f"transfer-operator dimension {dim} exceeds cap {TRANSFER_CAP}"
        )


def block_tensor(a: MpsTensor, q: int) -> MpsTensor:
    """Group ``q`` adjacent sites into one effective site.

    The new tensor has physical dimension ``d**q`` (indices ordered with the
    leftmost original site slowest) and the same bond dimension; its transfer
    operator is the q-th power of the original one.

    Raises:
        SizeCap: if ``d**q`` exceeds ``PHYS_DIM_CAP``; checked before the
            blocked tensor is formed.
    """
    if q < 1:
        raise DimensionMismatch("blocking order q must be >= 1")
    if a.phys_dim**q > PHYS_DIM_CAP:
        raise SizeCap(
            f"blocked physical dimension {a.phys_dim}**{q} exceeds cap {PHYS_DIM_CAP}"
        )
    if q == 1:
        return a
    mats = a.matrices
    out = mats
    for _ in range(q - 1):
        # out[(... j), a, c] = sum_b out[..., a, b] mats[j, b, c]
        out = np.einsum("pab,jbc->pjac", out, mats).reshape(
            -1, a.bond_dim, a.bond_dim
        )
    return MpsTensor(out)
