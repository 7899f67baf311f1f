"""Spectra of transfer operators: peripheral data and normality certificates."""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DecompositionFailure,
    NonDiagonalizablePeripheral,
    ScaleOutOfRange,
)
from .tensor import MpsTensor, transfer_matrix

# Relative width of the peripheral cut: |lambda| >= radius * (1 - TAU_SPEC).
TAU_SPEC = 1e-9
# Peripheral eigenvalues closer than this, relative to the radius, share one
# shift and one block of inverse iteration.
TAU_CLUSTER = 1e-4
# Largest accepted eigenpair residual ||E r - lambda r|| / ||r||, relative to
# the Frobenius norm of E (and likewise for left vectors).
TAU_RESIDUAL = 1e-10
# Most inverse-iteration sweeps per block.
MAX_SWEEPS = 8
# Outward move of each group's shift, relative to the radius.
_SHIFT = 1e-10
# Largest predicted error factor per inverse-iteration sweep: a block grows
# until its members are this much closer to the shift than any other
# eigenvalue.
_RATE = 1e-3
# Residual, relative to ||E||_F, at which a further sweep cannot help.
_FLOOR = 1e-14
# Frobenius norms whose square is a normal float.  numpy sums squares, so
# outside this range the norm, the scale of every residual, over- or
# underflows.
NORM_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))
# Least singular value of the unit-column left/right peripheral pairing; a
# smaller one marks a defective (Jordan) peripheral block.
TAU_PAIRING = 1e-8
# Largest residual of a fixed point from its Hermitian fit, relative to its
# norm, for ``rotate_to_hermitian`` to accept the fit.
TAU_HERMITIAN = 1e-6


@dataclass(frozen=True)
class SpectralData:
    """Spectrum of a transfer operator and its peripheral eigenvectors.

    ``eigenvalues`` is the full spectrum sorted by descending modulus.
    ``peripheral`` collects the eigenvalues whose modulus is at least
    ``radius * (1 - TAU_SPEC)`` (none when the radius is zero);
    ``right_vecs``/``left_vecs`` hold one column per peripheral eigenvalue,
    scaled so the left-right pairing is the identity on the peripheral
    space; no other eigenvector is computed.  The cut is relative, so the
    data of a matrix also describe every positive rescaling of it
    (eigenvalues scale, the peripheral set and the vectors do not).
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


def transfer_spectral(a: MpsTensor) -> SpectralData:
    """Spectrum of the transfer matrix of ``a`` and its peripheral eigenvectors.

    The eigenvalues come from one real ``eigvals``.  The transfer channel
    ``X -> sum_i A[i] X A[i]^H`` maps Hermitian matrices to Hermitian
    matrices, so in a basis of Hermitian matrices (``_real_form``) it is a
    real matrix similar to the transfer matrix.  A real ``eigvals`` is two
    to three times cheaper than the complex one at chi 5-16, and returns
    exact conjugate pairs.  A 1 x 1 transfer matrix needs no solver: its
    entry is its spectrum and one is both of its eigenvectors.

    The peripheral cluster is every eigenvalue of modulus at least
    ``radius * (1 - TAU_SPEC)``, a cut relative to the spectral radius; a
    zero radius leaves none.  Its right and left eigenvectors come from
    shifted inverse iteration on the complex transfer matrix
    (``_peripheral_vectors``), which factorizes it once per group of nearby
    peripheral eigenvalues rather than diagonalizing it twice: a real
    iteration would resolve a degenerate peripheral space in another basis.

    Raises:
        SizeCap: if the transfer matrix exceeds ``tensor.TRANSFER_CAP``.
        NonDiagonalizablePeripheral: if the peripheral space carries a
            nontrivial Jordan block (left/right pairing is singular, or
            inverse iteration stalls above ``TAU_RESIDUAL``).  The
            exception carries the sorted spectrum.
        ConvergenceFailure: if inverse iteration is still short of
            ``TAU_RESIDUAL`` after ``MAX_SWEEPS`` sweeps.
        ScaleOutOfRange: if the transfer matrix is nonzero and its norm is
            outside ``NORM_RANGE``, or an entry is not finite; carries the
            norm.
    """
    e = transfer_matrix(a)
    scale = _checked_norm(e)
    return _spectral_data(e, _eigvals(_real_form(e, a.bond_dim)), scale)


def _eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``m``; a 1 x 1 matrix is its own spectrum, with no solver."""
    return m.reshape(1) if m.shape[0] == 1 else np.linalg.eigvals(m)


def _checked_norm(m: np.ndarray) -> float:
    """``||m||_F``, checked to lie in ``NORM_RANGE`` unless ``m`` is zero.

    Checked before any eigensolver runs: an entry that overflowed makes
    ``eigvals`` fail, and a norm that under- or overflows makes every
    residual measured against it meaningless.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        scale = float(np.linalg.norm(m))
    lo, hi = NORM_RANGE
    if not lo <= scale <= hi and (scale != 0.0 or np.any(m)):
        raise ScaleOutOfRange(
            f"matrix of Frobenius norm {scale:.3g} is outside the range "
            f"[{lo:.3g}, {hi:.3g}] of floating-point spectral work",
            norm=scale, spectrum=None,
        )
    return scale


def _real_form(e: np.ndarray, chi: int) -> np.ndarray:
    """A real matrix similar to ``e``, for ``e`` Hermiticity-preserving.

    Column ``a * chi + b`` of ``V`` is the C-order vectorization of the
    Hermitian matrix ``E_aa`` on the diagonal, ``E_ab + E_ba`` above it and
    ``i (E_ba - E_ab)`` below it, so each basis element sits at the
    position of its entry.  The columns are orthogonal with squared norms
    ``D`` (one on the diagonal, two off it), and the result is
    ``D^-1 V^H e V``: the real matrix of ``e`` in the orthonormal basis
    ``V D^-1/2``, conjugated by ``D^1/2``.  Both factors are gathers of
    mirrored positions, and the halving is exact: the entries of a
    diagonal ``e`` reach the result unrounded, where the orthonormal basis
    would scale them by ``sqrt(1/2)**2``, which is not exactly 1/2.  The
    imaginary round-off of the product is dropped.  For chi 1 that leaves
    the real part of the one entry.
    """
    if chi == 1:
        return e.real
    diag, upper, lower = _positions(chi)
    v = np.empty_like(e)
    eu, el = e[:, upper], e[:, lower]
    v[:, diag] = e[:, diag]
    v[:, upper] = eu + el
    v[:, lower] = 1j * (eu - el)
    out = np.empty(e.shape)
    vu, vl = v[upper], v[lower]
    out[diag] = v[diag].real
    out[upper] = 0.5 * (vu + vl).real
    out[lower] = 0.5 * (vu - vl).imag
    return out


@functools.cache
def _positions(chi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C-order positions of the diagonal, the upper triangle and its mirror.

    The arrays are shared by every call for ``chi``, so they are read-only.
    """
    rows, cols = np.triu_indices(chi, 1)
    out = (np.arange(chi) * (chi + 1), rows * chi + cols, cols * chi + rows)
    for a in out:
        a.setflags(write=False)
    return out


def _spectral_data(m: np.ndarray, evals: np.ndarray, scale: float) -> SpectralData:
    """SpectralData of ``m`` given its eigenvalues in any order and ``||m||_F``."""
    evals = np.asarray(evals, dtype=complex)
    evals = evals[np.argsort(-np.abs(evals), kind="stable")]
    radius = abs(evals[0])
    if radius == 0.0:
        empty = np.zeros((m.shape[0], 0), dtype=complex)
        return SpectralData(eigenvalues=evals, peripheral=evals[:0],
                            right_vecs=empty, left_vecs=empty)
    k = int(np.sum(np.abs(evals) >= radius * (1.0 - TAU_SPEC)))
    if m.shape[0] == 1:  # a scalar is its own eigenvector on both sides
        one = np.ones((1, 1), dtype=complex)
        return SpectralData(eigenvalues=evals, peripheral=evals, right_vecs=one,
                            left_vecs=one)
    rvecs, lvecs = _peripheral_vectors(m, evals, k, scale)

    r_per = rvecs / np.linalg.norm(rvecs, axis=0)
    l_per = lvecs / np.linalg.norm(lvecs, axis=0)
    gram = l_per.conj().T @ r_per
    # A defective peripheral block leaves the unit-column pairing singular
    # (the Ritz vectors of a Jordan block are nearly parallel).
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] < TAU_PAIRING:
        raise NonDiagonalizablePeripheral(
            "peripheral left/right pairing is numerically singular",
            spectrum=evals,
        )
    # The dual basis of r_per within span(l_per), whatever its column
    # order: column j is the left eigenvector paired with peripheral[j].
    l_norm = l_per @ np.linalg.inv(gram).conj().T

    return SpectralData(
        eigenvalues=evals,
        peripheral=evals[:k],
        right_vecs=r_per,
        left_vecs=l_norm,
    )


def _clusters(values: np.ndarray, width: float) -> list[np.ndarray]:
    """Single-linkage groups of ``values``: indices linked within ``width``.

    A value joins a group when it lies within ``width`` of a member, so no
    value outside a group is that close to it.
    """
    free = np.ones(len(values), dtype=bool)
    out = []
    for j in range(len(values)):
        if not free[j]:
            continue
        free[j] = False
        members = [j]
        for i in members:  # grows while it is walked
            near = np.flatnonzero(free & (np.abs(values - values[i]) <= width))
            free[near] = False
            members.extend(near.tolist())
        out.append(np.array(sorted(members)))
    return out


def _block(evals: np.ndarray, group: np.ndarray, radius: float):
    """Shift and inverse-iteration block for the peripheral group ``group``.

    The shift ``sigma`` has the phase of the group's mean and modulus
    ``radius`` plus the larger of ``_SHIFT * radius`` and the group's
    spread about its mean, so it lies outside every eigenvalue's modulus
    and about equally close to each member.  The block is the ``c``
    eigenvalues nearest ``sigma``: the fewest that hold the group and put
    the farthest of them at most ``_RATE`` times as far from ``sigma`` as
    the nearest eigenvalue left out, which is the factor by which each
    sweep shrinks the error.  Returns ``(sigma, members)``, members sorted.
    """
    center = np.mean(evals[group])
    spread = float(np.max(np.abs(evals[group] - center)))
    sigma = center / abs(center) * (radius + max(_SHIFT * radius, spread))
    dist = np.abs(evals - sigma)
    order = np.argsort(dist, kind="stable")
    rank = np.empty(len(evals), dtype=int)
    rank[order] = np.arange(len(evals))
    c = int(np.max(rank[group])) + 1
    while c < len(evals) and dist[order[c - 1]] > _RATE * dist[order[c]]:
        c += 1
    return sigma, np.sort(order[:c])


def _match(targets: np.ndarray, ritz: np.ndarray) -> np.ndarray:
    """Index of a distinct Ritz value for each target, nearest pairs first."""
    dist = np.abs(targets[:, None] - ritz[None, :])
    pick = np.empty(len(targets), dtype=int)
    for _ in range(len(targets)):
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        pick[i] = j
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return pick


def _orthonormal(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the columns of ``x`` (full column rank)."""
    if x.shape[1] == 1:
        return x / np.linalg.norm(x)
    return np.linalg.qr(x)[0]


def _start_block(n: int, c: int) -> np.ndarray:
    """Deterministic generic n x c start block for inverse iteration.

    Entry j (row-major, from 1) is ``exp(2 pi i phi j^2)``, phi the golden
    ratio.  This chirp is a Vandermonde matrix with distinct nodes between
    two diagonals of unit phases, so it has full rank and no zero entry.
    It stands in for a seeded random block without importing
    ``numpy.random``, which costs about 20 ms per process.
    """
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    j = np.arange(1, n * c + 1, dtype=float)
    return np.exp(2j * math.pi * golden * j * j).reshape(n, c)


def _peripheral_vectors(m: np.ndarray, evals: np.ndarray, k: int, scale: float):
    """Right and left eigenvectors of ``m`` for ``evals[:k]``.

    ``evals`` is the spectrum of ``m`` sorted by descending modulus, with a
    nonzero first entry, and ``scale`` is ``||m||_F``.  Returns ``(right, left)``, one column per
    eigenvalue, with ``left^H right`` the identity on every block.

    Peripheral eigenvalues within ``TAU_CLUSTER * radius`` of each other
    form a group.  Each group gets one shift ``sigma`` just outside the
    spectral disc, so the shifted matrix is regular even when an eigenvalue
    is exact (``ghz``, the phase loops), and one block: the eigenvalues
    nearest ``sigma``, grown until the predicted error factor per sweep is
    at most ``_RATE`` (``_block``).  The block may take in non-peripheral
    neighbours; their vectors are computed and dropped.  Each block gets
    one inverse of ``m - sigma``, whose adjoint serves the left side.  A
    block that reaches into another group also solves for that group's
    eigenvalues; the later solve overwrites them.
    Block inverse iteration runs from a deterministic start of the block's
    width (``_start_block``) and re-orthonormalizes after each sweep; the
    oblique compression ``C = (W^H V)^-1 W^H m V`` (its ``eig`` when the
    block has more than one member) then yields right Ritz vectors ``V y``
    and their duals.  The wanted eigenvalues take the nearest Ritz pairs.
    Sweeps go on until the worst residual ``||m r - theta r|| / ||r||`` (or
    its left twin) reaches round-off or no longer halves; the pairs are
    accepted if it is then within ``TAU_RESIDUAL * ||m||_F``.

    Raises:
        NonDiagonalizablePeripheral: if a block is defective: its left
            and right vectors pair singularly, or the iteration stalls
            above the bound.
        ScaleOutOfRange: if applying the resolvent overflows, which a
            radius far below one makes it do; carries the spectrum and
            ``scale``.
        ConvergenceFailure: if the residual still halves but misses the
            bound after ``MAX_SWEEPS`` sweeps; carries the last residual
            relative to ``||m||_F``.
    """
    n = m.shape[0]
    radius = abs(evals[0])
    right = np.empty((n, k), dtype=complex)
    left = np.empty((n, k), dtype=complex)
    for group in _clusters(evals[:k], TAU_CLUSTER * radius):
        sigma, members = _block(evals, group, radius)
        c = len(members)
        wanted = members[members < k]
        shifted = m.copy()
        shifted.flat[:: n + 1] -= sigma
        resolvent = np.linalg.inv(shifted)
        del shifted
        v = w = _start_block(n, c)
        residual = math.inf
        for _ in range(MAX_SWEEPS):
            try:  # the resolvent grows as the inverse of the radius
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    v = _orthonormal(resolvent @ v)
                    w = _orthonormal((w.conj().T @ resolvent).conj().T)
            except FloatingPointError as exc:
                raise ScaleOutOfRange(
                    f"inverse iteration at spectral radius {radius:.3g} left "
                    f"the floating-point range: {exc}",
                    spectrum=evals, norm=scale,
                ) from None
            mv = m @ v
            try:
                pairing_inv = np.linalg.inv(w.conj().T @ v)
                ritz = pairing_inv @ (w.conj().T @ mv)
                if c == 1:
                    theta, y, duals = ritz[0], np.ones((1, 1)), pairing_inv.conj().T
                else:
                    theta, y = np.linalg.eig(ritz)
                    pick = _match(evals[wanted], theta)
                    # Rows of inv(y) are the left eigenvectors of the compression.
                    duals = pairing_inv.conj().T @ np.linalg.inv(y)[pick].conj().T
                    theta, y = theta[pick], y[:, pick]
            except np.linalg.LinAlgError:
                raise NonDiagonalizablePeripheral(
                    "left and right peripheral vectors pair singularly",
                    spectrum=evals,
                ) from None
            r, l = v @ y, w @ duals
            res_r = np.linalg.norm(mv @ y - r * theta, axis=0)
            res_l = np.linalg.norm(l.conj().T @ m - theta[:, None] * l.conj().T, axis=1)
            previous, residual = residual, float(np.max(np.concatenate([
                res_r / np.linalg.norm(r, axis=0), res_l / np.linalg.norm(l, axis=0),
            ]))) / scale
            if residual <= _FLOOR or not residual < 0.5 * previous:
                break  # round-off, or the floor that round-off allows here
        else:
            if not residual <= TAU_RESIDUAL:
                raise ConvergenceFailure(
                    f"inverse iteration on a peripheral block of {c} missed "
                    f"the residual bound after {MAX_SWEEPS} sweeps",
                    last_residual=residual,
                )
        if not residual <= TAU_RESIDUAL:
            # The shift and block make a semisimple block converge by at
            # least _RATE per sweep, down to about eps times its condition
            # number.  Stalling above the bound means a Jordan block, whose
            # chain the resolvent amplifies by powers of the shift distance
            # until round-off swamps the iteration.
            raise NonDiagonalizablePeripheral(
                f"inverse iteration on a peripheral block of {c} stalls at "
                f"residual {residual:.3g}: numerically defective",
                spectrum=evals,
            )
        right[:, wanted] = r
        left[:, wanted] = l
    return right, left


def rotate_to_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Strip the global phase of a matrix proportional to a Hermitian one.

    Returns ``(h, eigenvalues)``: the Hermitian representative whose
    extreme eigenvalues have a nonnegative sum (so a definite matrix comes
    back positive definite) and its eigenvalues, ascending.  Returns None
    if ``m`` is not proportional to any Hermitian matrix.  The
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
    if np.linalg.norm(m - coeff * h) > TAU_HERMITIAN * np.linalg.norm(m):
        return None
    ev = np.linalg.eigvalsh(h)
    if ev[0] + ev[-1] < 0.0:
        return -h, -ev[::-1]
    return h, ev


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
        if self.left_fixed_point.shape[0] == 1:  # a scalar needs no gauge
            return np.ones((1, 1), dtype=complex), np.ones(1)
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
    matrix ``s`` describes, at any positive scale.  A unique peripheral
    eigenvalue is required; the fixed points are then the peripheral
    eigenvectors stripped of their phase, and each needs a full-support
    positive spectrum (one ``eigvalsh`` each).  A chi-1 tensor with a
    nonzero transfer radius is normal by arithmetic: its fixed points are
    ``[[1]]`` and ``lambda2`` is 0, and no eigensolver runs.
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
    if chi == 1:  # a nonzero scalar: both fixed points are the number one
        fps = [np.ones((1, 1), dtype=complex)] * 2
    else:
        fps = []
        for vec in (s.right_vecs[:, 0], s.left_vecs[:, 0]):
            rotated = rotate_to_hermitian(vec.reshape(chi, chi))
            if rotated is None:
                return NormalityWitness(
                    False, "fixed point not proportional to a Hermitian matrix",
                    s.peripheral, lam2,
                )
            h, ev = rotated
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
    return normality_witness(transfer_spectral(a))
