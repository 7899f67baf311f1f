"""Spectra of transfer operators: peripheral data, normality, correlation length."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionFailure, NonDiagonalizablePeripheral
from .tensor import MpsTensor, TransferOperator, transfer_matrix

# Relative width of the peripheral cut: |lambda| >= radius * (1 - TAU_SPEC).
TAU_SPEC = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Eigendata of a transfer operator.

    ``eigenvalues`` is the full spectrum sorted by descending modulus.
    ``peripheral`` collects the eigenvalues whose modulus is at least
    ``radius * (1 - TAU_SPEC)``; ``right_vecs``/``left_vecs`` hold one column
    per peripheral eigenvalue, scaled so the left-right pairing is the
    identity on the peripheral space.  The cut is relative, so the data of
    a matrix also describe every positive rescaling of it (eigenvalues
    scale, the peripheral set and the vectors do not).
    """

    eigenvalues: np.ndarray
    peripheral: np.ndarray
    right_vecs: np.ndarray
    left_vecs: np.ndarray

    @property
    def radius(self) -> float:
        return float(abs(self.eigenvalues[0])) if self.eigenvalues.size else 0.0

    @property
    def subleading_modulus(self) -> float:
        """Largest modulus outside the peripheral cluster (0 if none)."""
        k = len(self.peripheral)
        if k >= len(self.eigenvalues):
            return 0.0
        return float(abs(self.eigenvalues[k]))

    @property
    def multi_block(self) -> bool:
        return len(self.peripheral) > 1


def spectral(t: TransferOperator | np.ndarray) -> SpectralData:
    """Full eigendecomposition with a biorthonormalized peripheral block.

    The peripheral cluster is every eigenvalue of modulus at least
    ``radius * (1 - TAU_SPEC)``, a cut relative to the spectral radius.

    Raises:
        NonDiagonalizablePeripheral: if the peripheral space carries a
            nontrivial Jordan block (left/right pairing is singular).  The
            exception carries the sorted spectrum.
    """
    m = t.matrix if isinstance(t, TransferOperator) else np.asarray(t, dtype=complex)

    evals, rvecs = np.linalg.eig(m)
    order = np.argsort(-np.abs(evals), kind="stable")
    evals, rvecs = evals[order], rvecs[:, order]
    radius = abs(evals[0])

    cut = radius * (1.0 - TAU_SPEC)
    k = int(np.sum(np.abs(evals) >= cut)) if radius > 0 else 1
    peripheral = evals[:k]

    # Left eigenvectors from the adjoint; eigenvalues there are conjugated.
    levals, lvecs = np.linalg.eig(m.conj().T)
    lorder = np.argsort(-np.abs(levals), kind="stable")
    levals, lvecs = levals[lorder], lvecs[:, lorder]
    kl = int(np.sum(np.abs(levals) >= cut)) if radius > 0 else 1
    if kl != k:
        raise NonDiagonalizablePeripheral(
            f"peripheral multiplicities disagree between sides ({k} vs {kl})",
            spectrum=evals,
        )

    r_per = rvecs[:, :k] / np.linalg.norm(rvecs[:, :k], axis=0)
    l_per = lvecs[:, :k] / np.linalg.norm(lvecs[:, :k], axis=0)
    gram = l_per.conj().T @ r_per
    # A defective peripheral block leaves the unit-column pairing singular
    # (LAPACK hands back near-parallel or mutually orthogonal junk vectors).
    if k:
        sv = np.linalg.svd(gram, compute_uv=False)
        if sv[-1] < 1e-8:
            raise NonDiagonalizablePeripheral(
                "peripheral left/right pairing is numerically singular",
                spectrum=evals,
            )
    # The dual basis of r_per within span(l_per), whatever its column
    # order: column j is the left eigenvector paired with peripheral[j].
    l_norm = l_per @ np.linalg.inv(gram).conj().T

    return SpectralData(
        eigenvalues=evals,
        peripheral=peripheral,
        right_vecs=r_per,
        left_vecs=l_norm,
    )


def correlation_length(s: SpectralData) -> float:
    """Decay length set by the subleading transfer eigenvalue.

    Returns 0 when there is no subleading eigenvalue, a finite length for
    a unique peripheral eigenvalue, and ``inf`` for a degenerate peripheral
    space (multi-block tensor; the caller should report it as such).
    """
    if s.multi_block:
        return math.inf
    lam2 = s.subleading_modulus / s.radius if s.radius > 0 else 0.0
    if lam2 <= 0.0:
        return 0.0
    return -1.0 / math.log(lam2)


def rotate_to_hermitian(m: np.ndarray) -> np.ndarray | None:
    """Strip the global phase of a matrix proportional to a Hermitian one.

    Returns the Hermitian representative with nonnegative trace direction,
    or None if ``m`` is not proportional to any Hermitian matrix.  The
    tolerance is loose: eigenvectors of strongly non-normal transfer
    operators can carry sqrt(eps)-scale junk even when the underlying
    fixed point is exactly Hermitian, while genuinely unrotatable
    matrices miss by O(1).
    """
    hc = (m + m.conj().T) / 2.0
    ac = (m - m.conj().T) / 2.0j
    h = hc if np.linalg.norm(hc) >= np.linalg.norm(ac) else ac
    nh = np.linalg.norm(h)
    if nh == 0.0:
        return None
    coeff = np.vdot(h, m) / np.vdot(h, h)
    if np.linalg.norm(m - coeff * h) > 1e-6 * np.linalg.norm(m):
        return None
    ev = np.linalg.eigvalsh(h)
    if abs(ev[0]) > abs(ev[-1]):
        h = -h
    return h


@dataclass(frozen=True)
class NormalityWitness:
    """Outcome of a normality test, truthy iff the tensor is normal.

    The witness carries the positive fixed points of the transfer channel
    and of its adjoint (when they exist), the peripheral eigenvalues and
    ``lambda2``, the largest modulus outside the peripheral cluster relative
    to the spectral radius (0 if there is none).  Like the verdict, they
    hold for every gauge and positive rescaling of the tensor.
    """

    normal: bool
    reason: str
    peripheral: np.ndarray
    lambda2: float
    right_fixed_point: np.ndarray | None = None
    left_fixed_point: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.normal

    def fixed_point_gauge(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauge to the fixed-point frame and the Schmidt weights there.

        Returns ``(x, lam)``: conjugating the tensor by ``x``
        (``A -> inv(x) A x``) makes the left fixed point the identity and
        the right one ``diag(lam)``.  ``lam`` is the spectrum of
        ``sqrt(L) R sqrt(L)``, descending with unit sum; these are the
        Schmidt weights of the entangled pairs of the coarse-graining fixed
        point, so they depend on the witness only.

        Raises:
            DecompositionFailure: if the witness does not certify normality.
        """
        if not self.normal:
            raise DecompositionFailure(
                f"fixed-point gauge needs a normal tensor: {self.reason}",
                spectrum=self.peripheral,
            )
        lev, lvec = np.linalg.eigh(self.left_fixed_point)
        l_isqrt = lvec @ np.diag(1.0 / np.sqrt(lev)) @ lvec.conj().T
        l_sqrt = lvec @ np.diag(np.sqrt(lev)) @ lvec.conj().T
        rev, rvec = np.linalg.eigh(l_sqrt @ self.right_fixed_point @ l_sqrt)
        order = np.argsort(-rev)
        rev, rvec = rev[order], rvec[:, order]
        # Both fixed points are positive definite; clip round-off.
        lam = np.clip(rev, 0.0, None)
        return l_isqrt @ rvec, lam / float(np.sum(lam))


def normality_witness(s: SpectralData) -> NormalityWitness:
    """Normality verdict read from the spectral data of a transfer matrix.

    The verdict is that of ``is_normal`` on any tensor whose transfer
    matrix ``s`` describes, at any positive scale.
    """
    if s.radius == 0.0:
        return NormalityWitness(False, "zero spectral radius", s.peripheral, 0.0)
    lam2 = s.subleading_modulus / s.radius
    if s.multi_block:
        return NormalityWitness(
            False,
            f"{len(s.peripheral)} peripheral eigenvalues",
            s.peripheral,
            lam2,
        )
    chi = math.isqrt(s.right_vecs.shape[0])
    fps = []
    for vec in (s.right_vecs[:, 0], s.left_vecs[:, 0]):
        h = rotate_to_hermitian(vec.reshape(chi, chi))
        if h is None:
            return NormalityWitness(
                False, "fixed point not proportional to a Hermitian matrix",
                s.peripheral, lam2,
            )
        ev = np.linalg.eigvalsh(h)
        if ev[0] < -TAU_SPEC * max(abs(ev[-1]), 1.0):
            return NormalityWitness(False, "fixed point indefinite", s.peripheral, lam2)
        if ev[0] <= TAU_SPEC * abs(ev[-1]):
            return NormalityWitness(
                False, "fixed point lacks full support", s.peripheral, lam2,
                right_fixed_point=h if len(fps) == 0 else fps[0],
            )
        fps.append(h / np.trace(h).real)
    return NormalityWitness(
        True, "unique peripheral eigenvalue, full-support fixed points",
        s.peripheral, lam2, right_fixed_point=fps[0], left_fixed_point=fps[1],
    )


def is_normal(a: MpsTensor) -> NormalityWitness:
    """Test irreducibility plus uniqueness of the peripheral eigenvalue.

    A tensor passes iff the transfer channel and its adjoint both have a
    full-support positive fixed point and the peripheral eigenvalue is
    unique.  Scale-invariant: the peripheral cluster is cut relative to the
    spectral radius (``|lambda| >= radius * (1 - TAU_SPEC)``) and the fixed
    points are read from eigenvectors, which rescaling leaves unchanged.
    """
    return normality_witness(spectral(transfer_matrix(a)))
