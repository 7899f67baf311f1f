"""Real-space renormalization of TI MPS tensors and their fixed points.

One step groups two sites and splits the two-site tensor ``M`` (a map from
bond-pair space to physical-pair space) as ``M = V C`` with ``V`` an
isometry onto the image and ``C`` the positive factor expressed in its own
right-singular basis.  The flow squares the transfer spectrum, so the
subleading modulus collapses doubly exponentially toward the fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .canonical import CanonicalForm, canonical_decompose
from .errors import ConvergenceFailure, DecompositionFailure, RankTolerance, SizeCap
from .spectral import normality_witness, spectral
from .tensor import MpsTensor, block_tensor, transfer_matrix
from .weights import WeightSpectrum

DEFAULT_RG_TOL = 1e-12
DEFAULT_MAX_ITER = 60
DEFAULT_TAU_RANK = 1e-10


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


def rg_step(
    a: MpsTensor,
    tau_rank: float = DEFAULT_TAU_RANK,
    phys_dim_cap: int = 4096,
) -> RgStep:
    """Block two sites and polar-split the result.

    Raises:
        RankTolerance: when singular values cluster at the rank cutoff, so
            the effective dimension would be a coin flip.  Reported, never
            guessed.
        SizeCap: when the doubled physical dimension exceeds the cap.
    """
    d, chi = a.phys_dim, a.bond_dim
    if d * d > phys_dim_cap:
        raise SizeCap(f"two-site physical dimension {d * d} exceeds cap {phys_dim_cap}")
    two_site = block_tensor(a, 2, phys_dim_cap)
    m = two_site.matrices.reshape(d * d, chi * chi)
    u, sv, vh = np.linalg.svd(m, full_matrices=False)
    if sv[0] <= 0.0:
        raise DecompositionFailure("two-site tensor vanishes identically")
    rel = sv / sv[0]
    in_band = (rel > tau_rank * 0.1) & (rel < tau_rank * 10.0)
    if np.any(in_band):
        raise RankTolerance(
            "singular values cluster at the rank cutoff",
            singular_values=sv,
        )
    rank = int(np.sum(rel > tau_rank))
    v = u[:, :rank]
    a_prime = (sv[:rank, None] * vh[:rank]).reshape(rank, chi, chi)
    return RgStep(isometry=v, tensor=MpsTensor(a_prime))


@dataclass(frozen=True)
class FixedPointBlock:
    """Converged flow of one surviving block.

    ``tensor`` is the converged block tensor gauged so the left fixed point
    is the identity and the right one is the diagonal of ``schmidt_weights``
    (descending, unit sum).  ``history`` records ``(lambda2, phys_dim)`` per
    iteration, starting with the input tensor.
    """

    label: str
    schmidt_weights: np.ndarray
    tensor: MpsTensor
    iterations: int
    final_lambda2: float
    history: tuple[tuple[float, int], ...] = field(default=(), repr=False)

    @property
    def link_dim(self) -> int:
        return int(self.schmidt_weights.size)


@dataclass(frozen=True)
class FixedPointState:
    """Coarse-grained fixed point of a decomposable tensor.

    One block per surviving gauge group, plus the merged weight spectrum.
    ``site_structure`` lists the (left, right) qudit dimension hosted at
    each site by every block.
    """

    blocks: tuple[FixedPointBlock, ...]
    weights: WeightSpectrum
    canonical: CanonicalForm = field(repr=False)

    @property
    def site_structure(self) -> tuple[tuple[int, int], ...]:
        return tuple((b.link_dim, b.link_dim) for b in self.blocks)


def rg_fixed_point(
    a: MpsTensor,
    tol: float = DEFAULT_RG_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    tau_rank: float = DEFAULT_TAU_RANK,
    tau_spec: float = 1e-9,
    tau_block: float = 1e-10,
    q_max: int = 8,
) -> FixedPointState:
    """Flow every surviving block to its fixed point.

    Each gauge group's representative is iterated until the subleading
    transfer modulus drops below ``tol``; the Schmidt weights are then read
    from the diagonal right fixed point in the CF II gauge.  They equal the
    closed form ``CanonicalForm.schmidt_weights()`` up to round-off; the
    flow is kept for the converged tensors and as that closed form's
    oracle.  The weight spectrum is inherited from the canonical
    decomposition (group weights combine block coefficients and gauge
    phases).

    Raises:
        ConvergenceFailure: carrying the last subleading modulus when a
            block does not converge within ``max_iter`` steps.
    """
    cf = canonical_decompose(
        a, tau_block=tau_block, tau_spec=tau_spec, q_max=q_max
    )
    blocks = []
    for label, members in cf.surviving_groups().items():
        # Pre-gauge to the frame with identity left fixed point: the flow
        # then iterates a unital channel, which keeps the extracted block's
        # conditioning from polluting the converged eigenvectors.  The
        # witness's lambda2 holds for every gauge and scale, so the flow
        # factorizes only the tensors its steps make.
        rep = members[0]
        x, lam = rep.witness.fixed_point_gauge()
        t = rep.tensor.gauged(x)
        lam2 = rep.witness.lambda2
        history = [(lam2, t.phys_dim)]
        it = 0
        while lam2 >= tol:
            if it >= max_iter:
                raise ConvergenceFailure(
                    f"block {label} stuck at subleading modulus {lam2:.3e} "
                    f"after {max_iter} steps",
                    last_residual=lam2,
                )
            t = rg_step(t, tau_rank=tau_rank).tensor
            s = spectral(transfer_matrix(t), tau_spec)
            t = t.scaled(1.0 / math.sqrt(s.radius))
            lam2 = s.subleading_modulus / s.radius
            it += 1
            history.append((lam2, t.phys_dim))
        if it:
            # CF II gauge: L = identity, R = diag(schmidt weights).  Without
            # a step, the pre-gauge is that gauge already.
            x, lam = normality_witness(s).fixed_point_gauge()
            t = t.gauged(x)
        blocks.append(
            FixedPointBlock(
                label=label,
                schmidt_weights=lam,
                tensor=t,
                iterations=it,
                final_lambda2=lam2,
                history=tuple(history),
            )
        )
    return FixedPointState(blocks=tuple(blocks), weights=cf.weight_spectrum, canonical=cf)
