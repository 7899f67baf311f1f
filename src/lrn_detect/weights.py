"""Size-dependent block weights of a decomposed MPS family.

Each surviving block carries a weight ``alpha_k(N) = sum_j c_j * exp(i*phi_j*N)``
built from unit-modulus block coefficients and relative gauge phases.  The
normalized squared moduli are the probabilities entering the entropy and
ratio criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateNormalization

_NORM_FLOOR = 1e-14


def wrap_phase(phi: float) -> float:
    """Map a phase to the interval (-pi, pi]."""
    out = math.remainder(phi, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


@dataclass(frozen=True)
class WeightSpectrum:
    """Phase-sum representation of the per-block weights.

    ``terms[k]`` is the list of ``(coefficient, phase)`` pairs of block k;
    phases are stored in (-pi, pi].  ``labels`` names the blocks.
    """

    terms: tuple[tuple[tuple[complex, float], ...], ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        norm_terms = tuple(
            tuple((complex(c), wrap_phase(float(p))) for c, p in block)
            for block in self.terms
        )
        object.__setattr__(self, "terms", norm_terms)
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"block{k}" for k in range(len(norm_terms)))
            )
        if len(self.labels) != len(norm_terms):
            raise ValueError("one label per block required")

    @property
    def num_blocks(self) -> int:
        return len(self.terms)

    def amplitudes(self, n) -> np.ndarray:
        """Unnormalized alpha_k(N); an array of sizes gives one row per size.

        Each term ``c * exp(i*phi*N)`` is formed and summed component by
        component, in the same order and roundings as scalar complex
        arithmetic, so a size gives the same bits alone or in a sweep.
        """
        ns = np.asarray(n)
        if np.any(ns < 1):
            raise ValueError("system size must be >= 1")
        out = np.zeros(ns.shape + (self.num_blocks,), dtype=complex)
        for k, block in enumerate(self.terms):
            for c, p in block:
                e = np.exp(1j * p * ns)
                out[..., k].real += c.real * e.real - c.imag * e.imag
                out[..., k].imag += c.real * e.imag + c.imag * e.real
        return out

    def phases(self) -> list[float]:
        return [p for block in self.terms for _, p in block]

    @staticmethod
    def constant(weights) -> "WeightSpectrum":
        """Spectrum with N-independent coefficients (one phase-free term each)."""
        return WeightSpectrum(terms=tuple(((complex(w), 0.0),) for w in weights))

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "terms": [
                [{"re": c.real, "im": c.imag, "phase": p} for c, p in block]
                for block in self.terms
            ],
        }


def evaluate_weights(w: WeightSpectrum, n) -> np.ndarray:
    """Probabilities p_k(N), normalizing by the root-sum-square of weights.

    ``n`` is one system size or an array of them (one row of
    probabilities per size).  Blocks whose weight vanishes at an N are
    retained with p = 0.

    Raises:
        DegenerateNormalization: at the first N where every weight vanishes.
    """
    mod_sq = np.abs(w.amplitudes(n)) ** 2
    c_sq = np.sum(mod_sq, axis=-1, keepdims=True)
    vanishing = np.sqrt(c_sq) < _NORM_FLOOR
    if np.any(vanishing):
        first = np.asarray(n).reshape(-1)[np.argmax(vanishing.reshape(-1))]
        raise DegenerateNormalization(
            f"all block weights vanish at N={first}; the family has no state there"
        )
    return mod_sq / c_sq
