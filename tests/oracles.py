"""Test oracles: independent routes to facts the package computes another way.

No pipeline runs these: trace-product states and entropies, the iterated RG
flow, gauge detection of two given tensors, spectra by a complex ``eigvals``,
and trace distances with the Fannes continuity bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lrn_detect import dense, tensor
from lrn_detect.canonical import GaugeRelation, _gauge_relation
from lrn_detect.circuits import BrickworkCircuit
from lrn_detect.dense import DenseState, _entropy, _hermitize, _smaller_gram
from lrn_detect.errors import DecompositionFailure, DimensionMismatch, LrnDetectError, SizeCap
from lrn_detect.spectral import SpectralData, _checked_norm, _spectral_data, is_normal
from lrn_detect.tensor import MpsTensor, block_tensor, mixed_transfer_matrix

# Relative singular value below which a two-site map has no support; values
# within a decade of it are reported, not rounded into or out of the rank.
TAU_RANK = 1e-10
# Frobenius norm below which a mixed transfer operator counts as zero.
TAU_ORTHOGONAL = 1e-10
# Largest entrywise miss of the reconstruction ``exp(i phase) x b inv(x)``,
# relative to the entry scale of ``a``, for ``gauge_equivalent`` to accept.
TAU_GAUGE = 1e-8
# Largest |trace - 1| of a matrix that ``_check_density`` accepts.
TRACE_TOL = 1e-8
_PSD_TOL = 1e-9
# Round-off allowance added to the right side of the Fannes bound.
FANNES_SLACK = 1e-12


class RankTolerance(LrnDetectError):
    """Singular values cluster at the rank cutoff; rank is ambiguous.

    Carries the singular values.
    """


class NotNormalInput(LrnDetectError):
    """Operation requires normal tensors."""


class NotPSD(LrnDetectError):
    """Matrix has an eigenvalue below the PSD tolerance."""


def materialize_mps(a: MpsTensor, n: int) -> DenseState:
    """Amplitudes ``tr(A[i1] ... A[iN])``, normalized.

    The ring is cut into two halves whose bond-matrix products are traced
    against each other, so the largest intermediate holds
    ``d**ceil(N/2) * chi**2`` entries rather than ``d**N * chi**2``.

    Raises:
        SizeCap: if the amplitude count or a half's products exceed
            ``dense.AMP_CAP``.
        ZeroState: if every trace vanishes at this N.
    """
    if n < 1:
        raise DimensionMismatch("need at least one site")
    d, chi = a.phys_dim, a.bond_dim
    if d**n > dense.AMP_CAP:
        raise SizeCap(f"{d}**{n} amplitudes exceed the cap {dense.AMP_CAP}")
    half = (n + 1) // 2
    if d**half * chi * chi > dense.AMP_CAP:
        raise SizeCap(
            f"{d}**{half} half-ring products of bond dimension {chi} exceed "
            f"the cap {dense.AMP_CAP}"
        )
    left, right = tensor._word_products(a, half), tensor._word_products(a, n - half)
    # tr(L R) = sum_ab L[a, b] R[b, a], for every pair of half-ring words.
    right_t = right.transpose(0, 2, 1).reshape(len(right), -1)
    amps = left.reshape(len(left), -1) @ right_t.T
    return DenseState._owning(amps.reshape(-1), n, d)


def subsystem_entropy(psi: DenseState, region) -> float:
    """Entanglement entropy of a region of a pure state.

    Computed from the eigenvalues of the reduced density ``m @ m†`` of the
    smaller side, where ``m`` is the bipartition matrix (pure states have
    equal entropy on both sides of a cut).  They are the squared singular
    values of ``m``, at the cost of a small Hermitian eigenproblem.
    """
    region = tuple(sorted(set(region)))
    n, d = psi.n_sites, psi.local_dim
    if any(not 0 <= r < n for r in region):
        raise DimensionMismatch(f"bad region {region}")
    rest = [q for q in range(n) if q not in region]
    arr = psi.amplitudes.reshape([d] * n).transpose(list(region) + rest)
    m = arr.reshape(d ** len(region), -1)
    return _entropy(np.linalg.eigvalsh(_smaller_gram(m)))


@dataclass(frozen=True)
class RgStep:
    """Result of one coarse-graining step.

    ``isometry`` maps the effective site into the two-site space
    (``isometry.conj().T @ isometry == I``); ``tensor`` is the positive
    factor reshaped to a site tensor with physical dimension equal to the
    rank of the two-site map.
    """

    isometry: np.ndarray
    tensor: MpsTensor


def rg_step(a: MpsTensor) -> RgStep:
    """Block two sites and polar-split the result.

    The two-site tensor ``M`` (a map from bond-pair space to physical-pair
    space) splits as ``M = V C`` with ``V`` an isometry onto the image and
    ``C`` the positive factor expressed in its own right-singular basis.
    The flow squares the transfer spectrum.

    Raises:
        RankTolerance: when singular values cluster at the rank cutoff
            ``TAU_RANK``, so the effective dimension would be a coin flip.
            Reported, never guessed.
        SizeCap: when the doubled physical dimension exceeds
            ``tensor.PHYS_DIM_CAP``.
    """
    d, chi = a.phys_dim, a.bond_dim
    two_site = block_tensor(a, 2)
    m = two_site.matrices.reshape(d * d, chi * chi)
    u, sv, vh = np.linalg.svd(m, full_matrices=False)
    if sv[0] <= 0.0:
        raise DecompositionFailure("two-site tensor vanishes identically")
    rel = sv / sv[0]
    in_band = (rel > TAU_RANK * 0.1) & (rel < TAU_RANK * 10.0)
    if np.any(in_band):
        raise RankTolerance(
            "singular values cluster at the rank cutoff",
            singular_values=sv,
        )
    rank = int(np.sum(rel > TAU_RANK))
    v = u[:, :rank]
    a_prime = (sv[:rank, None] * vh[:rank]).reshape(rank, chi, chi)
    return RgStep(isometry=v, tensor=MpsTensor(a_prime))


def local_orthogonal(a: MpsTensor, b: MpsTensor) -> bool:
    """True iff the mixed transfer operator vanishes in Frobenius norm.

    Local orthogonality of two site tensors makes the generated states
    orthogonal at every system size.
    """
    m = mixed_transfer_matrix(a, b)
    return float(np.linalg.norm(m)) < TAU_ORTHOGONAL


def gauge_equivalent(a: MpsTensor, b: MpsTensor) -> GaugeRelation | None:
    """Detect gauge equivalence of two normal tensors.

    The mixed transfer operator of two radius-one normal tensors has
    spectral radius one exactly when the tensors are related by a gauge
    transform with a phase; the top eigenvector then factors as
    ``x @ r_b`` with ``r_b`` the right fixed point of ``b``.

    Returns the phase and gauge matrix, or None when the families are
    inequivalent (or the reconstruction misses ``TAU_GAUGE``).
    """
    wit_a, wit_b = is_normal(a), is_normal(b)
    if not (wit_a and wit_b):
        raise NotNormalInput("gauge equivalence is defined for normal tensors only")
    # A normal tensor's unique peripheral eigenvalue sits on the radius.
    return _gauge_relation(
        a, b, abs(wit_a.peripheral[0]), abs(wit_b.peripheral[0]),
        wit_b.right_fixed_point, TAU_GAUGE,
    )


def complex_spectral(m: np.ndarray) -> SpectralData:
    """``transfer_spectral``'s data for any square complex matrix, by a complex ``eigvals``."""
    return _spectral_data(m, np.linalg.eigvals(m), _checked_norm(m))


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


def adjoint(circuit: BrickworkCircuit) -> BrickworkCircuit:
    """The inverse circuit: layers in reverse order, each gate conjugate-transposed."""
    return BrickworkCircuit(
        n_sites=circuit.n_sites,
        local_dim=circuit.local_dim,
        layers=tuple(
            tuple((s, g.conj().T) for s, g in layer)
            for layer in reversed(circuit.layers)
        ),
    )


def _psd_spectrum(rho: np.ndarray) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of ``rho``, checked PSD."""
    evals = np.linalg.eigvalsh(_hermitize(np.array(rho, dtype=np.result_type(rho, 0.5))))
    if evals[0] < -_PSD_TOL:
        raise NotPSD(f"eigenvalue {evals[0]} below the PSD tolerance")
    return evals


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 entropy of a density matrix, dropping eigenvalues below ``dense._EIG_FLOOR``."""
    return _entropy(_psd_spectrum(rho))


def trace_distance_pure(psi: DenseState, phi: DenseState) -> float:
    ov = abs(np.vdot(psi.amplitudes, phi.amplitudes))
    return math.sqrt(max(0.0, 1.0 - min(ov, 1.0) ** 2))


def _check_density(rho: np.ndarray) -> np.ndarray:
    """Spectrum of a density matrix, checked PSD and of unit trace."""
    evals = _psd_spectrum(rho)
    if abs(float(np.sum(evals)) - 1.0) > TRACE_TOL:
        raise NotPSD(f"trace {float(np.sum(evals))} differs from 1")
    return evals


def _half_trace_norm(rho: np.ndarray, sigma: np.ndarray) -> float:
    if rho.shape != sigma.shape:
        raise DimensionMismatch("density matrices differ in shape")
    diff = _hermitize(rho - sigma)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def trace_distance_mixed(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference of two density matrices."""
    rho, sigma = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    _check_density(rho)
    _check_density(sigma)
    return _half_trace_norm(rho, sigma)


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def fannes_check(rho, sigma, n_qubits: int) -> bool:
    """Entropy continuity bound: |S(rho) - S(sigma)| <= d*|R| + H_bin(d)."""
    rho, sigma = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    gap = abs(_entropy(_check_density(rho)) - _entropy(_check_density(sigma)))
    delta = _half_trace_norm(rho, sigma)
    return gap <= delta * n_qubits + binary_entropy(delta) + FANNES_SLACK
