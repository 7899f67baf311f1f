"""Causal-cone reduction of a shallow circuit against a ring tripartition.

Classify every gate of a depth-D brickwork circuit by its forward light
cone: gates whose cone stays inside A (or B) are undone by a local
unitary, gates whose cone stays inside C cancel under the partial trace,
and the gates whose cone crosses one of the four region boundaries
compose into a completely positive trace-preserving boundary channel
mapping the input state's wedge marginal onto the retained sites.  A
boundary that no gate straddles gets no channel.  After
the reduction, the circuit-evolved, C-traced, locally rotated state
equals the channel formula applied directly to the input state.  The
local unitaries and the wedge unitaries behind the channels are gate
products formed by the dense engine's one gate loop.  The channel formula's
density on A ∪ B is the Gram product ``dense._gram`` of
``_reduction_factor``, which holds at most two state-sized work arrays
beside its input and checks ``dense.RHO_CAP`` before it allocates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import BrickworkCircuit
from . import dense
from .dense import DenseState, _apply_gates
from .errors import GeometryMismatch, PartitionTooSmall, SizeCap
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


@dataclass(frozen=True)
class CausalConeReduction:
    """Local unitaries and boundary channels.

    ``channels`` maps each boundary that some gate straddles to its
    channel, in boundary order: ``a_left``, ``a_right``, ``b_left``,
    ``b_right``.
    """

    partition: Partition
    circuit: BrickworkCircuit
    u_a: np.ndarray
    u_b: np.ndarray
    channels: dict[str, BoundaryChannel]


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

    channels = {
        key: _build_channel(sorted(gates), key, p, d, depth)
        for key, gates in wedges.items()
        if gates
    }
    return CausalConeReduction(partition=p, circuit=circuit, u_a=u_a, u_b=u_b,
                               channels=channels)


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


def _reduction_factor(red: CausalConeReduction, psi: DenseState) -> np.ndarray:
    """A matrix ``m`` with ``m m†`` the channel formula's density on A ∪ B.

    Carries every Kraus branch of the pure input as one axis of a tensor
    whose axes are labeled by site, or by the channel whose Kraus index
    they hold.  Each boundary channel gathers its wedge sites to the front
    (one copy) and multiplies its whole Kraus stack into every branch with
    one matmul, whose output puts the new Kraus axis and the kept sites
    first; no axis is moved back.  The rows of ``m`` are the sites
    ``partition.a + partition.b``, in that order, and its columns every
    Kraus branch and traced site, so one Gram product traces everything
    outside A ∪ B.  The previous array is dropped before each product, so
    at most two state-sized arrays live beside the input.

    Raises:
        GeometryMismatch: if the state does not live on the circuit's ring.
        SizeCap: if that density's dimension exceeds ``dense.RHO_CAP``;
            checked before anything is allocated.
    """
    p = red.partition
    n, d = psi.n_sites, psi.local_dim
    if (n, d) != (red.circuit.n_sites, red.circuit.local_dim):
        raise GeometryMismatch("state does not match the reduction geometry")
    target = list(p.a) + list(p.b)
    if d ** len(target) > dense.RHO_CAP:
        raise SizeCap(f"reduced density of dimension {d}**{len(target)} exceeds cap")
    arr = psi.amplitudes.reshape([d] * n)
    labels = list(range(n))  # axis i holds site labels[i], or a channel's Kraus index
    branch_axes = []  # Kraus labels in application order, the first most significant
    for key, ch in red.channels.items():
        kraus = np.stack(ch.kraus)
        n_kraus, _, dim_in = kraus.shape
        rest = [x for x in labels if x not in ch.input_sites]
        rest_shape = [arr.shape[labels.index(x)] for x in rest]
        order = [labels.index(x) for x in list(ch.input_sites) + rest]
        cols = arr.transpose(order).reshape(dim_in, -1)  # the one gather copy
        del arr
        arr = (kraus.reshape(-1, dim_in) @ cols).reshape(
            [n_kraus] + [d] * len(ch.output_sites) + rest_shape
        )
        del cols
        labels = [key] + list(ch.output_sites) + rest
        branch_axes.append(key)
    traced = [x for x in labels if x not in target and x not in branch_axes]
    order = [labels.index(x) for x in target + branch_axes + traced]
    return arr.transpose(order).reshape(d ** len(target), -1)
