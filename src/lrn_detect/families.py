"""Hand-built tensor and state families used as fixtures and demos.

These are the concrete families the detection criteria are exercised on:
pattern tensors (one physical level per block, so one block is a product
state), the two-component cat family, a bond-dimension-3 loop
whose second weight oscillates as 2*cos(phi*N), a period-2 pattern
tensor, and the four-component counterexample whose entropy is tuned to
an exact integer while a weight ratio stays irrational.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .criteria import shannon_entropy
from .dense import DenseState
from .errors import OutOfRange
from .exact import ExactWeight
from .spectral import is_normal
from .tensor import MpsTensor

ROOT3_INV_QUARTER = 3.0 ** (-0.25)
# Bracket width at which the bisection for the counterexample's t* stops.
T_STAR_TOL = 1e-13
# Draws tried before random_normal_tensor gives up.
MAX_DRAWS = 20


def ghz_tensor() -> MpsTensor:
    """Two one-dimensional blocks: the equal-weight cat family."""
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0, 0, 0] = 1.0
    mats[1, 1, 1] = 1.0
    return MpsTensor(mats)


def phase_loop_tensor(phi: float) -> MpsTensor:
    """Bond-dimension-3 tensor generating |0..0> + 2 cos(phi N) |1..1>.

    Three one-dimensional blocks with weights 1, e^{i phi}, e^{-i phi};
    the latter two are gauge-equivalent copies of the |1..1> generator.
    """
    mats = np.zeros((2, 3, 3), dtype=complex)
    mats[0, 0, 0] = 1.0
    mats[1, 1, 1] = np.exp(1j * phi)
    mats[1, 2, 2] = np.exp(-1j * phi)
    return MpsTensor(mats)


def alternating_tensor() -> MpsTensor:
    """Period-2 tensor (|0101...> + |1010...> for even N); needs blocking."""
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0, 0, 1] = 1.0
    mats[1, 1, 0] = 1.0
    return MpsTensor(mats)


def pattern_tensor(patterns: list[int], coeffs, d: int) -> MpsTensor:
    """One-dimensional blocks selecting one physical level each.

    Block k multiplies the matrix of level ``patterns[k]`` by
    ``coeffs[k]``; the generated family is ``sum_k coeffs[k]**N |p_k...>``.
    """
    chi = len(patterns)
    mats = np.zeros((d, chi, chi), dtype=complex)
    for k, (level, c) in enumerate(zip(patterns, coeffs)):
        mats[level, k, k] = c
    return MpsTensor(mats)


def dense_pattern_state(patterns: list[str], weights, n_sites: int) -> DenseState:
    """Superposition of repeated patterns, built without any MPS machinery.

    ``patterns`` are strings over digits (one per site period); pattern k
    is tiled over ``n_sites`` sites and weighted by ``weights[k]``.
    """
    local_dim = max(int(ch) for pat in patterns for ch in pat) + 1
    local_dim = max(local_dim, 2)
    amps = np.zeros(local_dim**n_sites, dtype=complex)
    for pat, w in zip(patterns, weights):
        idx = 0
        for i in range(n_sites):
            idx = idx * local_dim + int(pat[i % len(pat)])
        amps[idx] += w
    return DenseState._owning(amps, n_sites, local_dim)


def counterexample_entropy(t: float) -> float:
    """Weight entropy of the four-component counterexample at parameter t."""
    p = counterexample_probs(t)
    return shannon_entropy(p)


def counterexample_probs(t: float) -> list[float]:
    p1 = 0.1
    p2 = ROOT3_INV_QUARTER / 10.0
    p4 = 1.0 - t - p1 - p2
    if t < 0.0 or p4 < 0.0:
        raise OutOfRange(f"parameter t={t} leaves no probability for the last block")
    return [p1, p2, t, p4]


def counterexample_t_star() -> float:
    """Bisection root of H(t) = 1 on (0, 0.1); lands near 0.023."""
    lo, hi = 1e-12, 0.1
    f_lo = counterexample_entropy(lo) - 1.0
    f_hi = counterexample_entropy(hi) - 1.0
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise OutOfRange("entropy does not bracket 1 on (0, 0.1)")
    while hi - lo > T_STAR_TOL:
        mid = 0.5 * (lo + hi)
        if counterexample_entropy(mid) - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def counterexample_exact_weights() -> list[ExactWeight]:
    """Squared weights of the counterexample at t* as exact forms.

    The first two components are exact (rational and scaled root); the
    tuned component and the remainder stay floats.
    """
    probs = counterexample_probs(counterexample_t_star())
    return [
        ExactWeight.from_rational(1, 10),
        ExactWeight.from_root(Fraction(1, 10), Fraction(1, 3), 4),
        ExactWeight.from_float(probs[2]),
        ExactWeight.from_float(probs[3]),
    ]


def counterexample_tensor() -> MpsTensor:
    """Pattern tensor of the counterexample on two-site blocks (d = 4).

    All four block weights are unit modulus; the tuned amplitudes enter
    through the exact-weight annotation, not the tensor.
    """
    return pattern_tensor([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0], d=4)


def random_normal_tensor(d: int, chi: int, seed) -> MpsTensor:
    """Random Gaussian tensor, resampled until it certifies normal."""
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        mats = rng.standard_normal((d, chi, chi)) + 1j * rng.standard_normal(
            (d, chi, chi)
        )
        t = MpsTensor(mats / np.linalg.norm(mats))
        if is_normal(t):
            return t
    raise OutOfRange(f"could not draw a normal tensor in {MAX_DRAWS} tries")
