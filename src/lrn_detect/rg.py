"""Real-space renormalization of TI MPS tensors and their fixed points.

One step groups two sites and splits the two-site tensor ``M`` (a map from
bond-pair space to physical-pair space) as ``M = V C`` with ``V`` an
isometry onto the image and ``C`` the positive factor expressed in its own
right-singular basis.  The flow squares the transfer spectrum, so the
subleading modulus collapses doubly exponentially toward the fixed point.

The fixed point of a normal block is known in closed form (a product of
entangled pairs), so ``rg_fixed_point`` reads it from the canonical form
rather than iterating ``rg_step``; the iterated flow is the tests' oracle.
A block's whole flow trace follows from its first subleading modulus
``lambda2`` (``lambda2**(2**k)`` after ``k`` steps), which ``analyze``
reports per fixed-point block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import canonical_decompose
from .errors import DecompositionFailure, RankTolerance
from .tensor import MpsTensor, block_tensor
from .weights import WeightSpectrum

# Subleading transfer modulus below which a block keeps its own tensor.
RG_TOL = 1e-12
# Relative singular value below which a two-site map has no support; values
# within a decade of it are reported, not rounded into or out of the rank.
TAU_RANK = 1e-10


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


@dataclass(frozen=True)
class FixedPointBlock:
    """Fixed point of the flow of one surviving block.

    ``tensor`` is the fixed-point block tensor gauged so the left fixed
    point is the identity and the right one is the diagonal of
    ``schmidt_weights`` (descending, unit sum).
    """

    label: str
    schmidt_weights: np.ndarray
    tensor: MpsTensor


@dataclass(frozen=True)
class FixedPointState:
    """Coarse-grained fixed point of a decomposable tensor.

    One block per surviving gauge group, plus the merged weight spectrum.
    """

    blocks: tuple[FixedPointBlock, ...]
    weights: WeightSpectrum


def _pair_tensor(lam: np.ndarray) -> MpsTensor:
    """Fixed-point tensor of a normal block with Schmidt weights ``lam``.

    ``A^{(ab)} = sqrt(lam[a]) |a><b|`` with physical index ``a*chi + b``: a
    product of entangled pairs, each site holding the right half of one
    pair and the left half of the next.  Its transfer matrix is ``|R)(L|``
    with ``L = 1`` and ``R = diag(lam)``, the CF II gauge.
    """
    chi = lam.size
    a, b = np.divmod(np.arange(chi * chi), chi)
    mats = np.zeros((chi * chi, chi, chi), dtype=complex)
    mats[a * chi + b, a, b] = np.sqrt(lam)[a]
    return MpsTensor(mats)


def rg_fixed_point(a: MpsTensor) -> FixedPointState:
    """Fixed point of the RG flow of every surviving block, in closed form.

    The flow squares the transfer spectrum, so a block with subleading
    modulus ``lambda2`` reaches ``lambda2**(2**k)`` after ``k`` steps.  Its
    limit is the product of entangled pairs whose Schmidt weights are the
    spectrum of ``sqrt(L) R sqrt(L)``, read from the representative's
    normality witness (``CanonicalForm.schmidt_weights()``).  A block whose
    ``lambda2`` is already below ``RG_TOL`` keeps its own tensor in the
    CF II gauge; every other block gets the pair tensor of its weights.
    The weight spectrum is inherited from the canonical decomposition
    (group weights combine block coefficients and gauge phases).  No
    transfer matrix is factorized beyond those of ``canonical_decompose``.
    """
    cf = canonical_decompose(a)
    blocks = []
    for label, members in cf.surviving_groups().items():
        rep = members[0]
        x, lam = rep.witness.fixed_point_gauge()
        # CF II gauge: L = identity, R = diag(schmidt weights).
        t = rep.tensor.gauged(x) if rep.witness.lambda2 < RG_TOL else _pair_tensor(lam)
        blocks.append(FixedPointBlock(label=label, schmidt_weights=lam, tensor=t))
    return FixedPointState(blocks=tuple(blocks), weights=cf.weight_spectrum)
