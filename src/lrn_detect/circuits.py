"""Brickwork circuits on a periodic chain.

A depth-D circuit is D layers of two-site gates on disjoint neighbor
pairs; consecutive layers alternate the pairing offset.  Gates are
arbitrary unitaries (no gate-set restriction).  A random circuit draws
its first layer's offset from its seed, so a sweep over seeds meets a
fixed partition in both alignments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import UNITARY_TOL, DenseState, _apply_gates, _unitarity_defect
from .errors import GeometryMismatch


@dataclass(frozen=True)
class BrickworkCircuit:
    """Layers of two-site gates; each entry is (left_site, gate matrix).

    A gate at ``s`` acts on sites ``(s, (s+1) % n)``.  Pairs within a layer
    are disjoint; every gate is unitary within 1e-12.
    """

    n_sites: int
    local_dim: int
    layers: tuple[tuple[tuple[int, np.ndarray], ...], ...]

    def __post_init__(self):
        d2 = self.local_dim**2
        for layer in self.layers:
            used = set()
            for s, gate in layer:
                a, b = s % self.n_sites, (s + 1) % self.n_sites
                if a == b or a in used or b in used:
                    raise GeometryMismatch("gates within a layer must be disjoint")
                used.update((a, b))
                if gate.shape != (d2, d2):
                    raise GeometryMismatch(f"gate shape {gate.shape}, expected {(d2, d2)}")
                if _unitarity_defect(gate) > UNITARY_TOL:
                    raise GeometryMismatch("gate is not unitary within tolerance")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def gates(self) -> list:
        """Every gate as ``(gate, (s, (s+1) % n))``, layer after layer."""
        n = self.n_sites
        return [(gate, (s, (s + 1) % n)) for layer in self.layers for s, gate in layer]


def _haar_gates(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-like unitaries from one draw and one stacked QR.

    Each gate is the QR factor of a complex Gaussian with its phases fixed.
    Gate i takes its real part, then its imaginary part, from the stream
    in turn, so the stack equals ``count`` successive calls with ``count`` 1.
    """
    z = rng.standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    ph = np.diagonal(r, axis1=1, axis2=2)
    return q * (ph / np.abs(ph))[:, None, :]


def random_brickwork(n: int, depth: int, seed, local_dim: int = 2) -> BrickworkCircuit:
    """Reproducible random brickwork circuit.

    The seed draws the pairing offset of the first layer (0 or 1), then
    the gates layer by layer.
    """
    rng = np.random.default_rng(seed)
    first_offset = int(rng.integers(0, 2))
    layers = []
    for layer_idx in range(depth):
        offset = (first_offset + layer_idx) % 2
        gates = _haar_gates(n // 2, local_dim**2, rng)  # odd n leaves one site idle
        layers.append(
            tuple(((offset + 2 * k) % n, gate) for k, gate in enumerate(gates))
        )
    return BrickworkCircuit(n_sites=n, local_dim=local_dim, layers=tuple(layers))


def apply_brickwork(psi: DenseState, circuit: BrickworkCircuit) -> DenseState:
    """Apply the layers in order; unitarity keeps the norm, checked once."""
    if (psi.n_sites, psi.local_dim) != (circuit.n_sites, circuit.local_dim):
        raise GeometryMismatch(
            f"circuit on {circuit.n_sites} sites of dim {circuit.local_dim} "
            f"does not match state on {psi.n_sites} of dim {psi.local_dim}"
        )
    n, d = circuit.n_sites, circuit.local_dim
    return DenseState(n, d, _apply_gates(psi.amplitudes, n, d, circuit.gates))
