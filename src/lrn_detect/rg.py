"""Fixed points of the real-space RG flow of TI MPS tensors, in closed form.

One RG step groups two sites and keeps the support of the two-site map, so
the flow squares the transfer spectrum and the subleading modulus collapses
doubly exponentially toward the fixed point.  The fixed point of a normal
block is known in closed form (a product of entangled pairs), so
``rg_fixed_point`` reads it from the canonical form; no step is iterated
here (the tests iterate one as their oracle).
A block's whole flow trace follows from its first subleading modulus
``lambda2`` (``lambda2**(2**k)`` after ``k`` steps), which ``analyze``
reports per fixed-point block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import canonical_decompose
from .tensor import MpsTensor
from .weights import WeightSpectrum

# Subleading transfer modulus below which a block keeps its own tensor.
RG_TOL = 1e-12


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
    return MpsTensor._derived(mats)


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
