"""Exact small-system engine of ``verify``'s invariant suites.

Everything here is brute force on explicit amplitude vectors and density
matrices, capped at desk scale (2**24 amplitudes, 2**12-dimensional
reduced densities).  Site 0 owns the most significant digit of the
amplitude index, so ``amplitudes.reshape([d] * n)`` puts site i on axis i.
Entropies come from full Hermitian eigenproblems, except S(A∪B) in
``mutual_information``, whose cost follows the rank of the reduced
density (``_gram_entropy``) within a certified error bound.

Memory: a kernel holds its input, its output and at most two
state-sized work arrays.  Every reduced density is one Gram product
``_gram(m) = m m†`` of a factor ``m``: it forms the column blocks on and
below the diagonal, a block of rows of ``m`` (``_block_rows``, about
``_GRAM_ENTRIES`` entries) conjugated at a time, and mirrors them.  So
``reduced_density`` holds the input state, one transposed copy of it
(``_region_factor``) and the density, and ``mutual_information`` one
transposed copy.  ``_gram_gap`` measures the Frobenius distance of two
Gram products from their factors without forming either.  ``_hermitize``
takes a Hermitian part in place, a strip of rows at a time, and
``_apply_gates`` keeps two state-sized arrays.  ``materialize_fixed_point``
adds each block into the one output array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadFactorization,
    DimensionMismatch,
    SizeCap,
    ZeroState,
)
from .rg import FixedPointState

AMP_CAP = 2**24
RHO_CAP = 2**12

# Largest |norm - 1| of the amplitudes a ``DenseState`` accepts.
NORM_TOL = 1e-10
# ``_owning`` refuses a vector whose norm is below this.
ZERO_NORM = 1e-12
# Schmidt weights at or below this are outside a block's support when
# ``_add_block`` inverts them.
SUPPORT_TOL = 1e-14
# Entries of a block of rows that ``_gram``, ``_gram_gap`` and ``_hermitize``
# copy at a time, and the most rows such a block has.
_GRAM_ENTRIES = 2**14
_GRAM_ROWS = 64
# Rows of the last site's product that ``_add_block`` forms at a time.
_SITE_ROWS = 2**12

# Largest entry of g†g - 1 a gate may have and count as unitary.
UNITARY_TOL = 1e-12

_EIG_FLOOR = 1e-12

# Partial-transpose eigenvalues above this modulus count as significant,
# and flat means their moduli spread by at most this much.
FLATNESS_TAU = 1e-9

# `_gram_entropy` stops pivoting once the trace of the Schur complement is
# below this fraction of tr(m m†).
_PIVOT_FLOOR = 1e-15
# What that stop can cost a unit-trace Gram matrix of dimension <= RHO_CAP,
# in bits: t log2(RHO_CAP - 1) + H_bin(t) at t = _PIVOT_FLOOR (6.3e-14).
_PIVOT_ENTROPY_BOUND = (
    _PIVOT_FLOOR * math.log2(RHO_CAP - 1)
    - _PIVOT_FLOOR * math.log2(_PIVOT_FLOOR)
    - (1.0 - _PIVOT_FLOOR) * math.log2(1.0 - _PIVOT_FLOOR)
)


@dataclass(frozen=True)
class DenseState:
    """Normalized amplitude vector on a ring of qudits."""

    n_sites: int
    local_dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.local_dim**self.n_sites:
            raise DimensionMismatch(
                f"expected {self.local_dim}**{self.n_sites} amplitudes, got {amps.size}"
            )
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ZeroState(f"amplitudes have norm {nrm}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _owning(cls, amps: np.ndarray, n_sites: int, local_dim: int) -> "DenseState":
        """Normalize ``amps``, a complex vector no one else holds, in place and wrap it."""
        nrm = np.linalg.norm(amps)
        if nrm < ZERO_NORM:
            raise ZeroState("state vector has vanishing norm")
        amps /= nrm
        return cls(n_sites, local_dim, amps)


def reduced_density(psi: DenseState, region) -> np.ndarray:
    """Partial trace down to ``region`` (row/column order follows ``region``).

    The Gram product of ``_region_factor``: holds one transposed copy of
    the state beside the density.

    Raises:
        SizeCap: if the density's dimension exceeds ``RHO_CAP``; checked
            before the copy is made.
    """
    return _gram(_region_factor(psi, region))


def _region_factor(psi: DenseState, region) -> np.ndarray:
    """The state as a (region, rest) matrix ``m``, so that ρ_region = m m†.

    One transposed copy of the amplitudes, or a view when ``region``
    already leads.  Raises as ``reduced_density``.
    """
    region = tuple(region)
    n, d = psi.n_sites, psi.local_dim
    if len(set(region)) != len(region) or any(not 0 <= r < n for r in region):
        raise DimensionMismatch(f"bad region {region}")
    if d ** len(region) > RHO_CAP:
        raise SizeCap(f"reduced density of dimension {d}**{len(region)} exceeds cap")
    rest = [q for q in range(n) if q not in region]
    arr = psi.amplitudes.reshape([d] * n).transpose(list(region) + rest)
    return arr.reshape(d ** len(region), -1)


def _block_rows(cols: int) -> int:
    """Rows per block for arrays of ``cols`` columns.

    The largest power of two from 4 to ``_GRAM_ROWS`` whose block holds at
    most ``_GRAM_ENTRIES`` entries, or 4 when none does.  A power of two
    puts block edges on the edges of the BLAS kernels' tiles, so a block
    product has the same sums as the whole product.
    """
    fit = max(_GRAM_ENTRIES // max(cols, 1), 4)
    return min(_GRAM_ROWS, 1 << (fit.bit_length() - 1))


def _gram(m: np.ndarray) -> np.ndarray:
    """``m @ m†``, the one Gram product of the dense engine.

    Column block j of the product, from its diagonal block down, is rows
    ``j:`` of ``m`` times the adjoint of row block j, written in place;
    the blocks above the diagonal are the conjugate transposes of those
    below.  So about half the products of ``m @ m.conj().T`` are formed.
    A block has ``_block_rows`` rows, so at most about ``_GRAM_ENTRIES``
    conjugated entries exist at a time, even for a wide ``m`` such as the
    (A, rest) cut of a state; and each entry on or below the diagonal is
    the same BLAS sum as in ``m @ m.conj().T``.
    """
    rows, cols = m.shape
    step = _block_rows(cols)
    out = np.empty((rows, rows), dtype=m.dtype)
    for i in range(0, rows, step):
        block, below = slice(i, i + step), slice(i + step, None)
        np.matmul(m[i:], m[block].conj().T, out=out[i:, block])
        np.conjugate(out[below, block].T, out=out[block, below])
    return out


def _gram_gap(f: np.ndarray, g: np.ndarray) -> float:
    """Frobenius norm of ``f f† - g g†``, formed from the factors.

    Neither Gram product is built: the difference is formed one column
    block at a time, from its diagonal block down as in ``_gram``, and
    the blocks below the diagonal count twice, for their mirror images.
    Work arrays are a few blocks of ``_block_rows`` columns.  The sum of
    squares runs in another order than ``np.linalg.norm(f f† - g g†)``,
    so the two agree to round-off, not bit for bit.

    Raises:
        DimensionMismatch: if the factors have different row counts.
    """
    rows = f.shape[0]
    if g.shape[0] != rows:
        raise DimensionMismatch(f"factors of {rows} and {g.shape[0]} rows")
    step = _block_rows(max(rows, f.shape[1], g.shape[1]))
    total = 0.0
    for i in range(0, rows, step):
        block = slice(i, i + step)
        diff = f[i:] @ f[block].conj().T
        diff -= g[i:] @ g[block].conj().T
        diag, below = diff[:step], diff[step:]
        total += np.vdot(diag, diag).real + 2.0 * np.vdot(below, below).real
        del diff, diag, below  # before the next block is formed
    return math.sqrt(total)


def _hermitize(a: np.ndarray) -> np.ndarray:
    """Replace the square array ``a`` by its Hermitian part (a + a†)/2, in place.

    Works on one strip of ``_block_rows`` rows and its mirrored columns at
    a time, so the only work array is one strip; every entry is the same
    float as in ``(a + a.conj().T) / 2``.  Each step writes a contiguous
    array or copies between arrays, since a ufunc on the transposed
    columns would add a buffer of its own.  Returns ``a``.
    """
    step = _block_rows(a.shape[0])
    for i in range(0, a.shape[0], step):
        block = slice(i, i + step)
        upper, lower_t = a[block, i:], a[i:, block].T
        strip = np.array(lower_t, order="C")
        np.conjugate(strip, out=strip)
        strip += upper
        strip *= 0.5  # rows i: of the Hermitian part
        np.conjugate(strip, out=strip)
        lower_t[...] = strip
        np.conjugate(strip, out=strip)
        upper[...] = strip  # last, so the diagonal block keeps these bits
        del strip  # before the next strip is allocated
    return a


def _entropy(p: np.ndarray) -> float:
    """Base-2 entropy of a spectrum, dropping eigenvalues below ``_EIG_FLOOR``."""
    p = p[p > _EIG_FLOOR]
    return float(-np.sum(p * np.log2(p)))


def _smaller_gram(m: np.ndarray) -> np.ndarray:
    """``m m†`` or ``m^T m^*``, whichever is smaller.

    Both carry the nonzero spectrum of the reduced density on either side
    of the cut ``m`` describes.
    """
    if m.shape[0] > m.shape[1]:
        m = m.T
    return _gram(m)


def _gram_entropy(m: np.ndarray) -> float:
    """Entropy of ``m m†`` at a cost set by its numerical rank.

    Pivoted Cholesky (Higham 1990) on the Gram matrix of the smaller side
    of ``m``: each step forms one column on demand as ``m @ m[j]†`` minus
    the earlier columns' part, so the Gram product itself is never built.
    It stops once the trace ``t`` of the Schur complement S falls below
    ``_PIVOT_FLOOR * tr(m m†)``; the entropy is then read from the k x k
    matrix ``L†L``, which shares the nonzero spectrum of ``L L† = m m† - S``.
    Once k passes half the dimension, a full ``eigvalsh(m m†)`` is cheaper
    and is taken instead.  The rows of L live in a buffer that doubles as
    pivots are taken, so a rank-r input holds at most 2r of them.

    Certified, not silent: S is PSD, so by Weyl no eigenvalue moves by more
    than ``t``, and the Fannes lemma in its Audenaert form bounds the
    entropy change by ``t log2(D - 1) + H_bin(t)``.  For a unit-trace Gram
    matrix of dimension D <= RHO_CAP (every state within AMP_CAP) that is
    ``_PIVOT_ENTROPY_BOUND`` = 6.3e-14 bits.  The bound covers the spectrum
    before the ``_EIG_FLOOR`` cut; an eigenvalue within ``t`` of that cut
    may fall on either side of it, as round-off can move it in a full
    ``eigvalsh`` too.
    """
    if m.shape[0] > m.shape[1]:
        m = m.T  # m^T m^* has the nonzero spectrum of m m†
    dim = m.shape[0]
    # A block's two squares and their sum are float arrays: blocks of half
    # the rows keep all three within the bytes of one complex block.
    step = _block_rows(2 * m.shape[1])
    resid = np.empty(dim)  # diagonal of S, summed one block of rows at a time
    for i in range(0, dim, step):
        block = m[i : i + step]
        resid[i : i + step] = np.sum(block.real**2 + block.imag**2, axis=1)
    stop = _PIVOT_FLOOR * resid.sum()
    rows = np.empty((1, dim), dtype=complex)  # row k: column k of L
    k = 0
    while resid.sum() > stop:
        if 2 * k > dim:
            return _entropy(np.linalg.eigvalsh(_smaller_gram(m)))
        if k == len(rows):  # doubled, so the buffer follows the rank taken
            grown = np.empty((min(2 * k, dim // 2 + 1), dim), dtype=complex)
            grown[:k] = rows
            rows = grown
        j = int(np.argmax(resid))
        col = m @ m[j].conj() - rows[:k, j].conj() @ rows[:k]
        rows[k] = col / math.sqrt(resid[j])
        resid -= rows[k].real ** 2 + rows[k].imag ** 2
        resid[j] = 0.0
        k += 1
    return _entropy(np.linalg.eigvalsh(rows[:k] @ rows[:k].conj().T))


def mutual_information(psi: DenseState, region_a, region_b) -> float:
    """I(A:B) = S(A) + S(B) - S(A∪B), from one transpose of the state.

    The amplitudes are permuted once to ``(A, B, rest)``.  S(A) and S(B)
    come from partial traces of that array, formed by matrix products on
    the smaller side of each cut; S(A∪B) from ``_gram_entropy``, which pays
    only for the rank of the reduced density on A∪B.  That transposed copy
    is the one state-sized work array: ρ_B is summed one A slice at a
    time, and ``_gram`` conjugates one block of rows at a time.

    Raises:
        DimensionMismatch: if the regions overlap or name a site off the ring.
    """
    n, d = psi.n_sites, psi.local_dim
    ab = set(region_a) | set(region_b)
    a, b = sorted(set(region_a)), sorted(set(region_b))
    if len(ab) < len(a) + len(b):
        raise DimensionMismatch("regions overlap")
    if any(not 0 <= r < n for r in ab):
        raise DimensionMismatch(f"bad regions {a}, {b}")
    rest = [q for q in range(n) if q not in ab]
    da, db, dr = d ** len(a), d ** len(b), d ** len(rest)
    m = psi.amplitudes.reshape([d] * n).transpose(a + b + rest).reshape(da, db, dr)
    if db <= dr:  # trace out A and the rest: sum the (B, rest) Gram blocks over A
        rho_b = _gram(m[0])
        for block in m[1:]:
            rho_b += _gram(block)
    else:  # those blocks would outgrow the state: cut it as (B, A + rest)
        rho_b = _smaller_gram(m.transpose(1, 0, 2).reshape(db, -1))
    return (
        _entropy(np.linalg.eigvalsh(_smaller_gram(m.reshape(da, -1))))
        + _entropy(np.linalg.eigvalsh(rho_b))
        - _gram_entropy(m.reshape(da * db, dr))
    )


def partial_transpose(rho_ab: np.ndarray, dim_a: int) -> np.ndarray:
    """Transpose the A factor of a bipartite density matrix."""
    dim = rho_ab.shape[0]
    if rho_ab.shape != (dim, dim) or dim % dim_a != 0:
        raise BadFactorization(
            f"dimension {rho_ab.shape} does not factor with dim_a={dim_a}"
        )
    dim_b = dim // dim_a
    t = rho_ab.reshape(dim_a, dim_b, dim_a, dim_b)
    return t.transpose(2, 1, 0, 3).copy().reshape(dim, dim)


def flatness_check(rho_ab: np.ndarray, dim_a: int) -> bool:
    """Do all significant partial-transpose eigenvalues share one modulus?

    Equivalent to the proportionality of the squared and fourth powers of
    the partial transpose; holds for every stabilizer-state reduction.
    The Hermitian part is formed in place in the partial transpose, a
    fresh array, by ``_hermitize``: no second density-sized array.
    """
    rho_ab = np.asarray(rho_ab, dtype=np.result_type(rho_ab, 0.5))  # so the halving fits
    evals = np.linalg.eigvalsh(_hermitize(partial_transpose(rho_ab, dim_a)))
    mags = np.abs(evals)
    sig = mags[mags > FLATNESS_TAU]
    if sig.size == 0:
        return True
    return float(np.max(sig) - np.min(sig)) <= FLATNESS_TAU


def _unitarity_defect(gate: np.ndarray) -> float:
    """Largest entry of ``gate† gate - 1``."""
    return float(np.abs(gate.conj().T @ gate - np.eye(len(gate))).max())


def _apply_gates(amps: np.ndarray, n: int, d: int, gates) -> np.ndarray:
    """``amps``, ``d**n`` amplitudes on n sites, after each ``(gate, sites)`` in turn.

    The one gate loop of the dense engine.  It works on a bare array and
    never renormalizes: state callers wrap the result in one ``DenseState``,
    whose norm check then covers the whole gate list, and the causal cone
    passes an identity to get the product of its gates.  Every gate is
    checked before the first is applied.

    The array is kept in a rotating axis order: ``order[i]`` is the site
    on axis i.  A gate whose targets lead is one BLAS call,
    ``arr.reshape(d**k, -1).T @ gate.T``, whose C-contiguous output holds
    the targets as its last axes; so a run of ring-consecutive gates (a
    brickwork layer) never transposes.  Targets that do not lead cost one
    copy: a cyclic rotation of the axes when they are consecutive in the
    current order, otherwise a transpose that moves them to the front.
    One transpose at the end restores site order.
    """
    gates = list(gates)
    targets = []
    for gate, sites in gates:
        # Targets are read as numpy reads axes: negative ones count from the end.
        t = [s + n if s < 0 else s for s in map(operator.index, sites)]
        k = len(t)
        if len(set(t)) < k or not all(0 <= s < n for s in t):
            raise DimensionMismatch(f"bad gate targets {tuple(sites)} on {n} sites")
        if gate.shape != (d**k, d**k):
            raise DimensionMismatch(f"gate shape {gate.shape} does not fit {k} sites")
        targets.append(t)
    arr = amps
    order = list(range(n))
    for (gate, _), t in zip(gates, targets):
        k = len(t)
        if order[:k] != t:
            p = order.index(t[0])
            rotated = order[p:] + order[:p]
            if rotated[:k] == t:
                arr = arr.reshape(d**p, -1).T.reshape(d**k, -1)
                order = rotated
            else:
                rest = [q for q in order if q not in t]
                axes = [order.index(q) for q in t + rest]
                arr = arr.reshape([d] * n).transpose(axes).reshape(d**k, -1)
                order = t + rest
        arr = arr.reshape(d**k, -1).T @ gate.T
        order = order[k:] + t
    return arr.reshape([d] * n).transpose(sorted(range(n), key=order.__getitem__)).reshape(-1)


def materialize_fixed_point(f: FixedPointState, n: int) -> DenseState:
    """Dense fixed-point state from Schmidt links and site isometries.

    Builds, for every block, the product of link states
    ``sum_m sqrt(lambda_m) |m m>`` across neighboring site halves, then
    funnels each site's (left, right) pair through the isometry read off
    the converged block tensor; blocks are summed with their weights at
    this system size.  This path never multiplies bond matrices, so it is
    an independent oracle for the trace-product materialization.

    The weighted sum is the one state-sized array: ``_add_block`` adds
    each block into it a chunk of rows at a time, and it is normalized in
    place.  Beside it live only one block's last link stage, chi²/d times
    the state's size, and one chunk.

    Raises:
        ZeroState: if there is no block, or the weighted sum vanishes.
        DimensionMismatch: if the blocks differ in physical dimension.
        SizeCap: if the amplitudes or a block's links exceed ``AMP_CAP``.
    """
    if not f.blocks:
        raise ZeroState("fixed point has no surviving blocks")
    d = f.blocks[0].tensor.phys_dim
    if any(b.tensor.phys_dim != d for b in f.blocks):
        raise DimensionMismatch(
            "blocks converged to different physical dimensions; "
            "materialization needs a common site space"
        )
    if d**n > AMP_CAP:
        raise SizeCap(f"{d}**{n} amplitudes exceed the cap {AMP_CAP}")
    alpha = f.weights.amplitudes(n)
    total = np.zeros(d**n, dtype=complex)
    for weight, block in zip(alpha, f.blocks):
        _add_block(total.reshape(-1, d), weight, block, n)
    return DenseState._owning(total, n, d)


def _add_block(out: np.ndarray, weight: complex, block, n: int) -> None:
    """Add ``weight`` times one block's amplitudes to ``out``, (d**(n-1), d).

    Each pass consumes the leading (L_i, R_i) pair of the link tensor as
    ``arr.reshape(chi**2, -1).T @ v.T``, whose C-contiguous output puts
    site i last, so the site axes queue up in order and no axis is moved.
    The last pass is formed ``_SITE_ROWS`` rows at a time, scaled and
    added into ``out``; so no state-sized copy of the block exists.
    """
    t = block.tensor
    d, chi = t.phys_dim, t.bond_dim
    lam = np.asarray(block.schmidt_weights, dtype=float)
    if (chi * chi) ** n > AMP_CAP:
        raise SizeCap("link construction exceeds the amplitude cap")
    # Site isometry: in the CF II gauge the tensor factors as V (1 x sqrt(lam)).
    with np.errstate(divide="ignore"):
        inv_root = np.where(lam > SUPPORT_TOL, 1.0 / np.sqrt(np.maximum(lam, 1e-300)), 0.0)
    v = (t.matrices * inv_root[None, None, :]).reshape(d, chi * chi)

    omega = np.diag(np.sqrt(lam)).astype(complex)  # link (R_i, L_{i+1})
    full = omega
    for _ in range(n - 1):
        full = np.multiply.outer(full, omega)
    # Axes currently (R_0, L_1, R_1, L_2, ..., R_{n-1}, L_0); reorder per site.
    perm = []
    for i in range(n):
        perm.append(2 * n - 1 if i == 0 else 2 * i - 1)  # L_i
        perm.append(2 * i)  # R_i
    arr = full.transpose(perm)

    for _ in range(n - 1):
        arr = arr.reshape(chi * chi, -1).T @ v.T
    cols = arr.reshape(chi * chi, -1)
    for i in range(0, cols.shape[1], _SITE_ROWS):
        rows = slice(i, i + _SITE_ROWS)
        piece = cols[:, rows].T @ v.T
        piece *= weight
        out[rows] += piece
