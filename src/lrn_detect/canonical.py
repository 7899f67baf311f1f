"""Decomposition of a TI MPS tensor into weighted normal blocks.

The input is first brought to unit scale by a power of two, which is
exact, and split along the strongly connected components of its support
graph, which is exact too: off the components' diagonal blocks, every
entry is junk that no trace sees.  Each component then goes on alone.
The decomposition peels invariant subspaces off the bond space, read from
positive fixed points of the transfer channel.  Each part is first offered
to its normality witness: a part the witness certifies normal (one
peripheral eigenvalue, full-support fixed points) has nothing to cut and is
a block as it stands, carrying that witness.  The others are split:

* a rank-deficient right (left) fixed point exposes a subspace mapped into
  itself by the site matrices, splitting the tensor triangularly;
* once both fixed points have full support, the channel is gauged to a
  unital one whose fixed-point set is a *-algebra; spectral projectors of
  any non-scalar Hermitian fixed point then split the space into exactly
  reducing blocks;
* an irreducible piece whose peripheral spectrum is a nontrivial group of
  roots of unity is periodic and is resolved by grouping that many sites.

Every split is accepted only once ``_leak`` confirms, within ``TAU_BLOCK``,
that the site matrices map the candidate subspace into itself; a refused
split raises with the leak and its threshold.
The parts keep no record of where they sat in the bond space: each reader of
the form needs only the blocks, their weights and their normality witnesses.

Surviving blocks (weight magnitude one) are grouped by gauge equivalence;
relative phases are mean-centered per group, so each group representative
is phase-free and the group weight is a plain sum of unit phase factors.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionFailure, NonDiagonalizablePeripheral
from .spectral import (
    TAU_SPEC,
    NormalityWitness,
    _checked_norm,
    _eigvals,
    _peripheral_vectors,
    normality_witness,
    transfer_spectral,
)
from .tensor import MpsTensor, block_tensor, mixed_transfer_matrix, transfer_matrix
from .weights import WeightSpectrum, wrap_phase

# Largest leak of an invariant-subspace candidate, relative to the entry
# scale and the bond dimension, for it to count as exactly invariant.
TAU_BLOCK = 1e-10
# Distance of the mixed transfer radius from one that still detects a gauge.
TAU_GAUGE_DETECT = 1e-6
# Largest entrywise miss of the reconstruction ``exp(i phase) x b inv(x)``,
# relative to the entry scale of ``a``, for two blocks of one decomposition
# to group.  It is loose because an extracted block is exact only up to the
# leak its split accepted (``TAU_BLOCK`` times the entry scale and bond
# dimension), which the gauges relating two copies can amplify.
TAU_GROUP = 1e-7
# Singular values of E - 1 below this (relative) span a defective piece's fixed points.
TAU_NULL = 1e-9
# Hermitian parts of a defective piece's fixed point below this norm give no candidate.
TAU_NONZERO = 1e-12
# Eigenvalues of that Hermitian part above this, relative to the largest, form its support.
TAU_SUPPORT = 1e-7
# Most negative eigenvalue (relative) of a one-sided fixed point still read as positive.
TAU_INDEFINITE = 1e-7
# Largest distance of a periodic piece's peripheral phase from a k-th root of unity.
TAU_ROOT = 1e-6
# Least distance of a Hermitian fixed point from a multiple of one for it to cut the algebra.
TAU_SCALAR = 1e-9
# Least gap between consecutive eigenvalues of that fixed point, relative to its spread, to cut.
TAU_CUT = 1e-6
# Transfer radius of the input at unit scale, and of a part relative to it, below which
# it generates zero.
TAU_ZERO = 1e-24
# Largest distance of the top block weight from one for the decomposition to be accepted.
TAU_TOP_WEIGHT = 1e-6

_SURVIVAL_TOL = 1e-8


def _survives(mag: float) -> bool:
    """Does a block of weight magnitude ``mag`` (at most one) reach the fixed point?"""
    return mag >= 1.0 - _SURVIVAL_TOL


@dataclass(frozen=True)
class GaugeRelation:
    """Witness that two normal tensors generate the same family up to phase.

    ``a == exp(i*phase) * x @ b @ inv(x)`` holds entrywise; the generated
    states then differ by ``exp(i*N*phase)``.
    """

    phase: float
    x: np.ndarray


def _gauge_relation(a, b, r_a, r_b, right_fp_b, tau):
    """The gauge relating two tensors already certified normal, or None.

    ``r_a``/``r_b`` are their transfer spectral radii and ``right_fp_b``
    the right fixed point of ``b``.  The top eigenvector of the mixed
    transfer operator factors as ``x @ right_fp_b``.  None when the tensors
    are inequivalent or the reconstruction misses ``tau``.
    """
    if a.bond_dim != b.bond_dim:
        return None
    # Detection is scale-invariant: the mixed transfer operator of two
    # radius-one normal tensors has spectral radius one iff they are gauge
    # equivalent.  Verification below is against the unscaled equation.
    m = mixed_transfer_matrix(
        a.scaled(1.0 / math.sqrt(r_a)), b.scaled(1.0 / math.sqrt(r_b))
    )
    evals = _eigvals(m)
    evals = evals[np.argsort(-np.abs(evals), kind="stable")]
    lam = evals[0]
    if abs(lam) < 1.0 - TAU_GAUGE_DETECT:
        return None
    phase = float(np.angle(lam))
    chi = a.bond_dim
    if chi == 1:  # scalars: the only gauge is the number one
        x = np.ones((1, 1), dtype=complex)
        recon = cmath.exp(1j * phase) * b.matrices
    else:
        mat = _peripheral_vectors(m, evals, 1, _checked_norm(m))[0][:, 0].reshape(chi, chi)
        x = mat @ np.linalg.inv(right_fp_b)
        # Fix the free scale of x: unit Frobenius density, dominant entry positive.
        x = x * (math.sqrt(chi) / np.linalg.norm(x))
        pivot = x.flat[int(np.argmax(np.abs(x)))]
        x = x * (abs(pivot) / pivot)
        recon = cmath.exp(1j * phase) * np.einsum(
            "ab,ibc,cd->iad", x, b.matrices, np.linalg.inv(x)
        )
    scale = max(float(np.max(np.abs(a.matrices))), 1.0)
    miss = float(np.max(np.abs(a.matrices - recon)))
    if not miss <= tau * scale:  # a NaN reconstruction fails closed
        return None
    return GaugeRelation(phase=phase, x=x)


@dataclass(frozen=True)
class CanonicalBlock:
    """One normal block: weight ``mu`` times a radius-one normal tensor.

    ``witness`` is the normality certificate of ``tensor``; it holds for
    every rescaling and phase of the tensor, so it is read once from the
    transfer matrix of the extracted part.
    """

    mu: complex
    tensor: MpsTensor
    group: int
    witness: NormalityWitness = field(repr=False)

    @property
    def surviving(self) -> bool:
        return _survives(abs(self.mu))


@dataclass(frozen=True)
class CanonicalForm:
    """Weighted normal blocks generating the same family as the input.

    ``blocking`` records how many sites were grouped before the blocks
    could be extracted (weights then refer to the blocked family, i.e. to
    system sizes that are multiples of ``blocking``).  Blocks sharing a
    ``group`` are gauge-equivalent and generate a common state family.
    """

    blocks: tuple[CanonicalBlock, ...]
    blocking: int

    @property
    def num_groups(self) -> int:
        return 1 + max((b.group for b in self.blocks), default=-1)

    def surviving_groups(self) -> dict[str, list[CanonicalBlock]]:
        """Members of every surviving group, keyed by label, in group order.

        Decaying blocks (weight magnitude below one) do not reach the
        coarse-grained fixed point; they always form singleton groups.  The
        first member of a group is its representative.
        """
        groups: dict[int, list[CanonicalBlock]] = {}
        for b in self.blocks:
            if b.surviving:
                groups.setdefault(b.group, []).append(b)
        return {f"group{g}": groups[g] for g in sorted(groups)}

    @property
    def weight_spectrum(self) -> WeightSpectrum:
        """Merged weights of the surviving groups."""
        groups = self.surviving_groups()
        terms = [tuple((1.0 + 0.0j, float(np.angle(b.mu))) for b in members)
                 for members in groups.values()]
        return WeightSpectrum(terms=tuple(terms), labels=tuple(groups))

    def schmidt_weights(self) -> dict[str, np.ndarray]:
        """Schmidt weights of the coarse-graining fixed point, per surviving group.

        The fixed point of a normal block is a product of entangled pairs
        whose Schmidt weights are fixed by the block's transfer fixed points
        (the spectrum of ``sqrt(L) R sqrt(L)``), so they are read in closed
        form from each representative's normality witness.  ``rg_fixed_point``
        builds the fixed-point tensors from them; the tests iterate the flow
        as their oracle.
        """
        return {
            label: members[0].witness.fixed_point_gauge()[1]
            for label, members in self.surviving_groups().items()
        }


def _leak(t: MpsTensor, basis: np.ndarray) -> tuple[float, float]:
    """How far the site matrices map span(basis) out of itself, and the bound.

    Returns ``(leak, threshold)``: the largest entry of the part of the
    span that the matrices map outside it, and ``TAU_BLOCK`` times the
    entry scale of ``t`` (its largest entry, at least one) times the bond
    dimension.  The span counts as invariant iff the leak is at most the
    threshold.
    """
    chi = t.bond_dim
    p = basis @ basis.conj().T
    outside = (np.eye(chi) - p) @ t.matrices @ p
    scale = max(float(np.max(np.abs(t.matrices))), 1.0)
    return float(np.max(np.abs(outside))), TAU_BLOCK * scale * chi


def _split_all(subs, floor: float):
    """``_split_parts`` of each tensor in ``subs``, concatenated in order."""
    return [part for sub in subs for part in _split_parts(sub, floor)]


def _spectrum(t: MpsTensor):
    """Transfer spectrum of ``t`` and its SpectralData (None if defective)."""
    try:
        s = transfer_spectral(t)
    except NonDiagonalizablePeripheral as exc:
        return exc.spectrum, None
    return s.eigenvalues, s


def _defective_split(t, tn, spectrum, floor):
    """Split a tensor whose peripheral transfer space is defective.

    ``tn`` is ``t`` scaled to transfer radius one and ``spectrum`` the
    transfer spectrum of ``tn``.  True fixed points (null vectors of E - 1,
    which exist on both sides even for a defective peripheral block)
    provide candidate invariant subspaces; every candidate is verified
    exactly before recursing, so a wrong guess can only fail loudly.
    """
    chi = t.bond_dim
    e = transfer_matrix(tn)
    candidates = []
    for mat in (e, e.conj().T):
        u, sv, vh = np.linalg.svd(mat - np.eye(chi * chi))
        null_dim = int(np.sum(sv < TAU_NULL * max(sv[0], 1.0)))
        for j in range(null_dim):
            vec = vh[chi * chi - 1 - j].conj().reshape(chi, chi)
            for h in ((vec + vec.conj().T) / 2.0, (vec - vec.conj().T) / 2.0j):
                if np.linalg.norm(h) < TAU_NONZERO:
                    continue
                evals, evecs = np.linalg.eigh(h)
                mags = np.abs(evals)
                support = mags > TAU_SUPPORT * float(np.max(mags))
                if 0 < int(np.sum(support)) < chi:
                    candidates.append(
                        (evecs[:, support], evecs[:, ~support])
                    )
    for basis, comp in candidates:
        for inner, outer in ((basis, comp), (comp, basis)):
            leak, threshold = _leak(tn, inner)
            if leak <= threshold:
                return _split_all((t.gauged(b, b.conj().T) for b in (inner, outer)), floor)
    raise DecompositionFailure(
        "peripheral space is defective and no verified invariant support exists",
        spectrum=spectrum,
    )


def _split_parts(t: MpsTensor, floor: float, spec=None):
    """Recursively split ``t`` into irreducible parts.

    Returns ``[(tensor, period, data, witness)]``; ``period > 1`` marks a
    piece whose peripheral spectrum is a cyclic group and which needs
    blocking, ``data`` is the SpectralData of the part's transfer matrix
    and ``witness`` its normality witness.  A part whose witness certifies
    it normal is returned as it stands: the one-sided fixed-point ``eigh``
    calls and the splits below run only on parts the witness does not
    certify.  Parts keep the scale they inherit from ``t``; pieces whose
    transfer radius is below ``floor`` are dropped.  ``spec`` is
    ``_spectrum(t)`` when the caller already has it.
    """
    chi = t.bond_dim
    spectrum, s = spec or _spectrum(t)
    radius = float(abs(spectrum[0]))
    if radius < floor:
        return []  # nilpotent piece: generates the zero state for N >= chi
    spectrum = spectrum / radius  # the transfer spectrum of t at radius one
    if s is None:
        # Triangular junk can leave the peripheral space defective while a
        # canonical form still exists; peel off an exactly verified
        # invariant support read from the true fixed points.
        return _defective_split(t, t.scaled(1.0 / math.sqrt(radius)), spectrum, floor)
    peripheral = s.peripheral / radius
    ones_idx = [
        j for j, lam in enumerate(peripheral) if abs(lam - 1.0) <= 10 * TAU_SPEC
    ]
    if not ones_idx:
        raise DecompositionFailure(
            "spectral radius is not an eigenvalue of the transfer channel",
            spectrum=spectrum,
        )
    witness = normality_witness(s)
    if witness:
        return [(t, 1, s, witness)]  # certified normal: there is nothing to cut
    tn = t.scaled(1.0 / math.sqrt(radius))
    vec_id = np.eye(chi, dtype=complex).reshape(-1)

    # Support/kernel splits from the two one-sided fixed points.
    for adjoint in (False, True):
        x = np.zeros(chi * chi, dtype=complex)
        for j in ones_idx:
            if adjoint:
                x += s.left_vecs[:, j] * (s.right_vecs[:, j].conj() @ vec_id)
            else:
                x += s.right_vecs[:, j] * (s.left_vecs[:, j].conj() @ vec_id)
        h = x.reshape(chi, chi)
        h = (h + h.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(h)
        if evals[-1] <= 0:
            raise DecompositionFailure(
                "fixed-point projection produced no positive component",
                spectrum=spectrum,
            )
        if evals[0] < -TAU_INDEFINITE * evals[-1]:
            raise DecompositionFailure(
                "peripheral fixed point is indefinite beyond tolerance",
                spectrum=evals,
            )
        if not adjoint:
            xev, xvec = evals, evecs  # the right fixed point, for the unital gauge
        support = evals > TAU_SPEC * evals[-1]
        if not np.all(support):
            keep = evecs[:, support]
            drop = evecs[:, ~support]
            # Right fixed point: matrices map supp(X) into itself.
            # Left fixed point: matrices map ker(Y) into itself.
            inner = drop if adjoint else keep
            outer = keep if adjoint else drop
            leak, threshold = _leak(tn, inner)
            if not leak <= threshold:
                raise DecompositionFailure(
                    "candidate invariant subspace leaks outside itself",
                    spectrum=spectrum, leak=leak, threshold=threshold,
                )
            return _split_all((t.gauged(b, b.conj().T) for b in (inner, outer)), floor)

    if len(ones_idx) == 1:
        k = len(peripheral)
        if k == 1:
            return [(t, 1, s, witness)]
        # Irreducible but periodic: peripheral phases must be k-th roots of unity.
        args = [float(np.angle(lam)) for lam in peripheral]
        expected = [wrap_phase(2.0 * math.pi * j / k) for j in range(k)]
        if any(
            min(abs(wrap_phase(a - b)) for b in expected) > TAU_ROOT for a in args
        ):
            raise DecompositionFailure(
                "irreducible piece has peripheral phases that are not roots of unity",
                spectrum=peripheral,
            )
        return [(t, k, s, witness)]

    # Both fixed points have full support and the fixed space is degenerate:
    # gauge to a unital channel, whose fixed points form a *-algebra, and cut
    # along the spectral projectors of a non-scalar Hermitian fixed point.
    g = xvec @ np.diag(np.sqrt(xev)) @ xvec.conj().T
    g_inv = xvec @ np.diag(1.0 / np.sqrt(xev)) @ xvec.conj().T
    tn_unital = tn.gauged(g, g_inv)  # right fixed point becomes the identity

    best = None
    best_dev = 0.0
    for j in ones_idx:
        z = g_inv @ s.right_vecs[:, j].reshape(chi, chi) @ g_inv
        for cand in ((z + z.conj().T) / 2.0, (z - z.conj().T) / 2.0j):
            dev = float(np.linalg.norm(cand - (np.trace(cand) / chi) * np.eye(chi)))
            if dev > best_dev:
                best, best_dev = cand, dev
    if best is None or best_dev < TAU_SCALAR:
        raise DecompositionFailure(
            "degenerate fixed space but no non-scalar Hermitian fixed point",
            spectrum=peripheral,
        )
    hev, hvec = np.linalg.eigh(best)
    spread = float(hev[-1] - hev[0])
    cuts = [i for i in range(1, chi) if hev[i] - hev[i - 1] > TAU_CUT * max(spread, 1.0)]
    if not cuts:
        raise DecompositionFailure(
            "Hermitian fixed point has no resolvable eigenvalue clusters",
            spectrum=hev,
        )
    bounds = [0, *cuts, chi]
    bases = [hvec[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    for lo, hi, basis in zip(bounds[:-1], bounds[1:], bases):
        comp = np.concatenate([hvec[:, :lo], hvec[:, hi:]], axis=1)
        leak, threshold = _leak(tn_unital, basis)
        if leak <= threshold:
            leak = _leak(tn_unital, comp)[0]
        if not leak <= threshold:
            raise DecompositionFailure(
                "fixed-point algebra projector fails to reduce the matrices",
                spectrum=hev, leak=leak, threshold=threshold,
            )
    return _split_all(
        (tn_unital.gauged(b, b.conj().T).scaled(math.sqrt(radius)) for b in bases), floor
    )


def _unit_scale(a: MpsTensor) -> MpsTensor:
    """``a`` times the power of two that brings its largest entry modulus into [1/2, 1).

    A tensor and its nonzero multiples generate the same family, and a
    power of two rescales every entry exactly, so no later floor or range
    check sees the scale the input was written at.
    """
    exponent = int(np.frexp(np.max(np.abs(a.matrices)))[1])
    if exponent == 0:
        return a
    pairs = np.ascontiguousarray(a.matrices).view(float)  # (re, im) of each entry
    return MpsTensor._derived(np.ldexp(pairs, -exponent).view(complex))


def _strong_components(adj: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the graph ``adj``, in topological order.

    Tarjan's algorithm, iterative: it emits a component only after every
    component it reaches, so the reversed emission order is topological.
    Roots are taken from the last node down, so components that no edge
    orders come out in the order of their nodes.
    """
    succ = [np.flatnonzero(row).tolist() for row in adj]
    index = [-1] * len(adj)
    low = [0] * len(adj)
    on_stack = [False] * len(adj)
    stack: list[int] = []
    emitted: list[list[int]] = []
    order = itertools.count()

    def visit(v):
        index[v] = low[v] = next(order)
        stack.append(v)
        on_stack[v] = True
        return v, iter(succ[v])

    for root in reversed(range(len(adj))):
        if index[root] >= 0:
            continue
        calls = [visit(root)]
        while calls:
            v, edges = calls[-1]
            for w in edges:
                if index[w] < 0:
                    calls.append(visit(w))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                calls.pop()
                if calls:
                    u = calls[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    top = stack.index(v)
                    comp = stack[top:]
                    del stack[top:]
                    for w in comp:
                        on_stack[w] = False
                    emitted.append(sorted(comp))
    return emitted[::-1]


def _components(t: MpsTensor) -> list[MpsTensor]:
    """Diagonal blocks of ``t`` on the strong components of its support graph.

    The graph has an edge a -> b when some ``A[i][a, b]`` is nonzero.  In
    a basis ordered by components in topological order, every ``A[i]`` is
    block upper triangular; products keep that shape, so the trace of
    every word is the sum of the traces of the diagonal blocks' words: the
    off-diagonal blocks are junk and drop out exactly, with no tolerance.
    Building the graph and finding its components take O(d chi^2).  A
    strongly connected graph returns ``[t]`` itself.
    """
    comps = _strong_components(np.any(t.matrices != 0, axis=0))
    if len(comps) == 1:
        return [t]
    return [MpsTensor._derived(t.matrices[:, idx][:, :, idx]) for idx in comps]


def _component_spectra(comps: list[MpsTensor]) -> dict[int, tuple]:
    """``_spectrum`` of each component whose transfer radius can reach the floor.

    Keyed by position in ``comps``.  A component's transfer radius is at
    most the squared Frobenius norm of its matrices.  Components are solved
    in decreasing order of that bound, and those whose bound lies below
    ``TAU_ZERO`` times the largest radius found so far are dropped unsolved:
    they are nilpotent to working precision, and a transfer matrix that
    small can underflow the range of spectral work.
    """
    bounds = [float(np.sum(np.abs(c.matrices) ** 2)) for c in comps]
    specs: dict[int, tuple] = {}
    radius = 0.0
    for k in sorted(range(len(comps)), key=lambda k: -bounds[k]):
        if bounds[k] < TAU_ZERO * radius:
            break
        specs[k] = _spectrum(comps[k])
        radius = max(radius, float(abs(specs[k][0][0])))
    return specs


def _joined(specs: dict[int, tuple]) -> np.ndarray:
    """The transfer spectra of the solved components, merged by descending modulus."""
    spectrum = np.concatenate([spec[0] for spec in specs.values()])
    return spectrum[np.argsort(-np.abs(spectrum), kind="stable")]


def canonical_decompose(a: MpsTensor) -> CanonicalForm:
    """Extract the canonical form of a TI MPS tensor.

    Splits the bond space into certified-normal blocks with weights
    ``mu_k`` (``|mu_k| <= 1``, the largest exactly one), and groups
    gauge-equivalent blocks.  The tensor is brought to unit scale first
    (``_unit_scale``), and each blocked tensor is split along its support
    graph (``_components``) before any eigensolver runs; the components are
    decomposed one by one, against the floor set by the largest component
    radius, and their blocks are grouped together.  When parts are
    periodic, it groups as many sites as the least common multiple of their
    periods, once, and decomposes the blocked tensor again.

    Raises:
        DecompositionFailure: when block projectors cannot be extracted
            within ``TAU_BLOCK``, a block fails its normality certificate,
            or a part of the blocked tensor is still periodic; and when the
            transfer radius at unit scale is below ``TAU_ZERO`` or every
            part is nilpotent, carrying the transfer spectra it tested.
        SizeCap: when the blocked physical dimension exceeds
            ``tensor.PHYS_DIM_CAP``, which bounds the blocking for d >= 2,
            or a component's transfer matrix exceeds ``tensor.TRANSFER_CAP``.
        ScaleOutOfRange: when a component's transfer matrix is too large or
            too small for floating-point spectral work
            (``spectral.NORM_RANGE``), or its radius is too small next to
            its norm for inverse iteration.
    """
    a = _unit_scale(a)
    q = 1
    while True:
        current = block_tensor(a, q)
        comps = _components(current)
        specs = _component_spectra(comps)
        radius = max(float(abs(spec[0][0])) for spec in specs.values())
        if radius < TAU_ZERO:
            raise DecompositionFailure(
                "tensor generates the zero family", spectrum=_joined(specs)
            )
        parts = [
            part for k, spec in sorted(specs.items())
            for part in _split_parts(comps[k], TAU_ZERO * radius, spec)
        ]
        if not parts:
            raise DecompositionFailure("all parts are nilpotent", spectrum=_joined(specs))
        period = math.lcm(*(p for _, p, *_ in parts))
        if period == 1:
            break
        if q > 1:
            raise DecompositionFailure(
                f"a part still has period {period} after grouping {q} sites",
                period=period, sites=q,
            )
        q = period

    # Normalize each part to spectral radius one and record its weight.
    tensors = [part.scaled(1.0 / math.sqrt(s.radius)) for part, _, s, _ in parts]
    mags = np.array([math.sqrt(s.radius / radius) for _, _, s, _ in parts])
    top = float(np.max(mags))
    if abs(top - 1.0) > TAU_TOP_WEIGHT:
        raise DecompositionFailure(
            f"largest block weight {top} deviates from one", spectrum=mags
        )
    mags = mags / top

    witnesses = [w for *_, w in parts]
    for w in witnesses:
        if not w:
            raise DecompositionFailure(
                f"extracted block failed the normality certificate: {w.reason}",
                spectrum=w.peripheral,
            )

    # Surviving blocks join the first group whose seed (first member) they
    # are gauge-equivalent to, carrying their phase relative to it.
    surviving = [k for k in range(len(tensors)) if _survives(mags[k])]
    groups: list[list[tuple[int, float]]] = []
    for k in surviving:
        for members in groups:
            seed = members[0][0]
            rel = _gauge_relation(
                tensors[k], tensors[seed], 1.0, 1.0,
                witnesses[seed].right_fixed_point, TAU_GROUP,
            )
            if rel is not None:
                members.append((k, rel.phase))
                break
        else:
            groups.append([(k, 0.0)])

    # Mean-center phases within each group; the arbitrary overall phase of a
    # group is pushed into its representative tensor.
    placed: dict[int, tuple[int, float]] = {}
    for gi, members in enumerate(groups):
        mean = sum(phase for _, phase in members) / len(members)
        for k, phase in members:
            placed[k] = (gi, wrap_phase(phase - mean))

    blocks = []
    next_group = len(groups)
    for k, tensor_k in enumerate(tensors):
        if k in placed:
            gi, phi = placed[k]
            mu = cmath.exp(1j * phi)
            tensor_k = tensor_k.scaled(cmath.exp(-1j * phi))
        else:  # decaying blocks stay singleton groups
            gi, mu = next_group, complex(mags[k])
            next_group += 1
        blocks.append(CanonicalBlock(mu=mu, tensor=tensor_k, group=gi, witness=witnesses[k]))

    return CanonicalForm(blocks=tuple(blocks), blocking=q)
