"""Causal-cone reduction of a shallow circuit against a ring tripartition.

Classify every gate of a depth-D brickwork circuit by its forward light
cone: gates whose cone stays inside A (or B) are undone by a local
unitary, gates whose cone stays inside C cancel under the partial trace,
and the gates whose cone crosses one of the four region boundaries
compose into a completely positive trace-preserving boundary channel
mapping the input state's wedge marginal onto the retained sites.  After
the reduction, the circuit-evolved, C-traced, locally rotated state
equals the channel formula applied directly to the input state.  The
local unitaries and the wedge unitaries behind the channels are gate
products formed by the dense engine's one gate loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import BrickworkCircuit
from .dense import DenseState, _apply_gates
from .errors import GeometryMismatch, PartitionTooSmall
from .partition import Partition

_BOUNDARY_OF_PAIR = {
    frozenset(("C2", "A")): "a_left",
    frozenset(("A", "C1")): "a_right",
    frozenset(("C1", "B")): "b_left",
    frozenset(("B", "C2")): "b_right",
}


@dataclass(frozen=True)
class BoundaryChannel:
    """CPTP map from a wedge of input sites onto its retained side.

    ``kraus[m]`` maps the wedge factor (sites in ``input_sites`` order) to
    the kept factor (``output_sites`` order); summing ``K^dag K`` gives the
    identity on the wedge.
    """

    input_sites: tuple[int, ...]
    output_sites: tuple[int, ...]
    kraus: tuple[np.ndarray, ...]

    def cptp_defect(self) -> float:
        dim_in = self.kraus[0].shape[1]
        acc = np.zeros((dim_in, dim_in), dtype=complex)
        for k in self.kraus:
            acc += k.conj().T @ k
        return float(np.max(np.abs(acc - np.eye(dim_in))))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in self.kraus)


@dataclass(frozen=True)
class CausalConeReduction:
    """Local unitaries, boundary channels, and the refined region split."""

    partition: Partition
    circuit: BrickworkCircuit
    u_a: np.ndarray
    u_b: np.ndarray
    channels: dict
    cores: dict

    def channel_list(self) -> list[BoundaryChannel]:
        return [c for c in self.channels.values() if c is not None]


def _subcircuit_matrix(gates, site_order, n: int, d: int) -> np.ndarray:
    """Product of gates (in application order) on the listed sites.

    The dense gate loop applies them to the identity, read as a 2w-site
    array whose last w sites index the columns.
    """
    index = {q: i for i, q in enumerate(site_order)}
    w = len(site_order)
    ops = [(gate, (index[s % n], index[(s + 1) % n])) for _, s, gate in gates]
    identity = np.eye(d**w, dtype=complex).reshape(-1)
    return _apply_gates(identity, 2 * w, d, ops).reshape(d**w, d**w)


def causal_cone_reduce(circuit: BrickworkCircuit, p: Partition) -> CausalConeReduction:
    """Classify gates by forward cones and build the reduction data.

    Raises:
        PartitionTooSmall: if some region is smaller than 2*depth + 2.
        GeometryMismatch: if circuit and partition disagree on the ring.
    """
    n, d = circuit.n_sites, circuit.local_dim
    if p.n_sites != n:
        raise GeometryMismatch("partition and circuit disagree on system size")
    depth = circuit.depth
    if p.min_region() < 2 * depth + 2:
        raise PartitionTooSmall(
            f"every region needs at least {2 * depth + 2} sites at depth {depth}"
        )
    region_of = {}
    for name, sites in (("A", p.a), ("C1", p.c1), ("B", p.b), ("C2", p.c2)):
        for q in sites:
            region_of[q] = name

    buckets = {"A": [], "B": [], "C": []}
    wedges = {k: [] for k in _BOUNDARY_OF_PAIR.values()}
    for layer_idx, layer in enumerate(circuit.layers):
        growth = depth - 1 - layer_idx  # cone widening above this layer
        for s, gate in layer:
            cone = {(s - growth + k) % n for k in range(2 + 2 * growth)}
            regions = {region_of[q] for q in cone}
            if regions <= {"C1"} or regions <= {"C2"}:
                buckets["C"].append((layer_idx, s, gate))
            elif regions == {"A"} or regions == {"B"}:
                buckets[regions.pop()].append((layer_idx, s, gate))
            else:
                key = _BOUNDARY_OF_PAIR.get(frozenset(regions))
                if key is None:
                    raise PartitionTooSmall(
                        f"gate cone spans regions {sorted(regions)}; partition too small"
                    )
                wedges[key].append((layer_idx, s, gate))

    u_a = _subcircuit_matrix(sorted(buckets["A"]), p.a, n, d).conj().T
    u_b = _subcircuit_matrix(sorted(buckets["B"]), p.b, n, d).conj().T

    channels = {}
    wedge_sites_all = set()
    for key, gates in wedges.items():
        if not gates:
            channels[key] = None
            continue
        channels[key] = _build_channel(sorted(gates), key, p, d, depth)
        wedge_sites_all.update(channels[key].input_sites)

    cores = {
        "a_core": tuple(q for q in p.a if q not in wedge_sites_all),
        "b_core": tuple(q for q in p.b if q not in wedge_sites_all),
        "c1_core": tuple(q for q in p.c1 if q not in wedge_sites_all),
        "c2_core": tuple(q for q in p.c2 if q not in wedge_sites_all),
    }
    return CausalConeReduction(
        partition=p, circuit=circuit, u_a=u_a, u_b=u_b,
        channels=channels, cores=cores,
    )


def _build_channel(gates, key: str, p: Partition, d: int, depth: int) -> BoundaryChannel:
    n = p.n_sites
    kept_region = set(p.a if key.startswith("a") else p.b)
    # First site of the region that lies clockwise of the boundary.
    boundary_anchor = {
        "a_left": p.a[0],
        "a_right": p.c1[0],
        "b_left": p.b[0],
        "b_right": p.c2[0],
    }[key]
    anchor = (boundary_anchor - 2 * depth - 2) % n

    support = set()
    for _, s, _ in gates:
        support.update((s % n, (s + 1) % n))
    keys = sorted((q - anchor) % n for q in support)
    # The wedge is the whole arc its gates span, idle sites included.
    arc = tuple((anchor + k) % n for k in range(keys[0], keys[-1] + 1))

    u_w = _subcircuit_matrix(gates, arc, n, d)
    kept_pos = [i for i, q in enumerate(arc) if q in kept_region]
    traced_pos = [i for i, q in enumerate(arc) if q not in kept_region]
    w = len(arc)
    tensor = u_w.reshape([d] * (2 * w))
    perm = traced_pos + kept_pos + [w + i for i in range(w)]
    tensor = tensor.transpose(perm)
    blocks = tensor.reshape(d ** len(traced_pos), d ** len(kept_pos), d**w)
    kraus = tuple(blocks[m] for m in range(blocks.shape[0]))
    return BoundaryChannel(
        input_sites=arc,
        output_sites=tuple(q for q in arc if q in kept_region),
        kraus=kraus,
    )


def apply_reduction(red: CausalConeReduction, psi: DenseState) -> np.ndarray:
    """Evaluate the channel formula on the input state.

    Carries every Kraus branch of the pure input as one row of a stacked
    array: each boundary channel multiplies its whole Kraus stack into
    every branch with one matmul, and one Gram product over all branches
    traces everything outside A u B.  Returns the density matrix on the
    sites ``partition.a + partition.b`` in that order.
    """
    p = red.partition
    n, d = psi.n_sites, psi.local_dim
    if (n, d) != (red.circuit.n_sites, red.circuit.local_dim):
        raise GeometryMismatch("state does not match the reduction geometry")
    sites = list(range(n))
    branches = psi.amplitudes.reshape(1, -1)  # (branch, amplitudes on ``sites``)
    for key in ("a_left", "a_right", "b_left", "b_right"):
        ch = red.channels[key]
        if ch is None:
            continue
        rest_sites = [q for q in sites if q not in ch.input_sites]
        kraus = np.stack(ch.kraus)
        n_kraus, dim_out, dim_in = kraus.shape
        # (wedge, branch, rest) columns, so one matmul serves every branch.
        cols = _site_major(branches, sites, ch.input_sites, d).reshape(dim_in, -1)
        out = kraus.reshape(-1, dim_in) @ cols
        out = out.reshape(n_kraus, dim_out, len(branches), -1).transpose(2, 0, 1, 3)
        branches = out.reshape(len(branches) * n_kraus, -1)
        sites = list(ch.output_sites) + rest_sites

    target = list(p.a) + list(p.b)
    m = _site_major(branches, sites, target, d).reshape(d ** len(target), -1)
    return m @ m.conj().T


def _site_major(branches: np.ndarray, sites, lead, d: int) -> np.ndarray:
    """``branches`` as a ``(lead sites, branch, other sites)`` tensor."""
    t = branches.reshape([branches.shape[0]] + [d] * len(sites))
    lead_axes = [1 + sites.index(q) for q in lead]
    rest_axes = [1 + i for i, q in enumerate(sites) if q not in lead]
    return t.transpose(lead_axes + [0] + rest_axes)
