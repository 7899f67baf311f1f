"""Local tensors of translation-invariant MPS and their transfer operators.

A state family is defined by a single tensor ``A`` with ``d`` physical
levels and bond dimension ``chi``; the amplitude of a configuration on a
ring of ``N`` sites is ``tr(A[i1] @ ... @ A[iN])``.  The transfer operator
``sum_i A[i] (x) conj(A[i])`` controls all spectral questions.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @classmethod
    def _derived(cls, mats: np.ndarray) -> "MpsTensor":
        """A tensor the package computed from checked ones: no conversion, no scan.

        ``mats`` is a fresh complex ``(d, chi, chi)`` array with d, chi >= 1;
        it is marked read-only.  Finite inputs can still overflow a product:
        ``transfer_spectral`` refuses a non-finite transfer matrix with
        ``ScaleOutOfRange`` before any eigensolver runs, and a finite
        transfer matrix implies finite entries, since its entry
        ``((a, a), (b, b))`` is ``sum_i |A[i][a, b]|**2``.
        """
        mats.setflags(write=False)
        t = object.__new__(cls)
        object.__setattr__(t, "matrices", mats)
        return t

    @property
    def phys_dim(self) -> int:
        return self.matrices.shape[0]

    @property
    def bond_dim(self) -> int:
        return self.matrices.shape[1]

    def scaled(self, factor: complex) -> "MpsTensor":
        if not np.isfinite(factor):
            raise DimensionMismatch(f"scale factor must be finite, got {factor!r}")
        return MpsTensor._derived(self.matrices * factor)

    def gauged(self, x: np.ndarray, x_inv: np.ndarray | None = None) -> "MpsTensor":
        """Similarity transform A[i] -> x^-1 A[i] x (same state family).

        With an isometry ``x`` and its adjoint as ``x_inv``, it compresses onto span(x).
        """
        if x_inv is None:
            x_inv = np.linalg.inv(x)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x_inv))):
            raise DimensionMismatch("gauge matrices must be finite")
        mats = np.einsum("ab,ibc,cd->iad", x_inv, self.matrices, x)
        if mats.shape[1] != mats.shape[2] or mats.shape[1] < 1:
            raise DimensionMismatch(f"gauge maps onto shape {mats.shape[1:]}, not (k, k)")
        return MpsTensor._derived(mats)


def transfer_matrix(a: MpsTensor) -> np.ndarray:
    """Transfer operator of ``a`` as a dense chi^2 x chi^2 matrix.

    ``m[(a, a'), (b, b')] = sum_i A[i][a, b] * conj(A[i][a', b'])`` with
    row/column pairs flattened in C order, i.e. the literal Kronecker sum
    ``sum_i kron(A[i], conj(A[i]))``.

    Raises:
        SizeCap: if chi^2 exceeds ``TRANSFER_CAP``; checked before the
            matrix is formed.
    """
    return mixed_transfer_matrix(a, a)


def mixed_transfer_matrix(a: MpsTensor, b: MpsTensor) -> np.ndarray:
    """``sum_i kron(A[i], conj(B[i]))`` for two tensors with equal d.

    Bond dimensions may differ; the result is (chi_a*chi_b) square.  The
    same ``TRANSFER_CAP`` as for ``transfer_matrix`` applies.
    """
    if a.phys_dim != b.phys_dim:
        raise DimensionMismatch(
            f"physical dimensions differ: {a.phys_dim} vs {b.phys_dim}"
        )
    dim = a.bond_dim * b.bond_dim
    if dim > TRANSFER_CAP:
        raise SizeCap(f"transfer-operator dimension {dim} exceeds cap {TRANSFER_CAP}")
    return np.einsum("iab,icd->acbd", a.matrices, b.matrices.conj()).reshape(dim, dim)


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
    return MpsTensor._derived(_word_products(a, q))


def _word_products(a: MpsTensor, k: int) -> np.ndarray:
    """Products ``A[i1] ... A[ik]`` for every word, the first site most significant.

    Shape ``(d**k, chi, chi)``; k = 0 gives the identity.  No size cap:
    callers check theirs first.
    """
    mats, chi = a.matrices, a.bond_dim
    if k == 0:
        return np.eye(chi, dtype=complex)[None]
    out = mats
    for _ in range(k - 1):
        # out[(... j), a, c] = sum_b out[..., a, b] mats[j, b, c]
        out = np.einsum("pab,jbc->pjac", out, mats).reshape(-1, chi, chi)
    return out
