"""Ring partitions and the causal-cone reduction."""

import math
from functools import reduce

import numpy as np
import pytest

from lrn_detect import (
    apply_brickwork,
    build_partition,
    causal_cone_reduce,
    random_brickwork,
    reduced_density,
)
from lrn_detect import causal, dense
from lrn_detect.circuits import BrickworkCircuit
from lrn_detect.errors import GeometryMismatch, PartitionTooSmall, SizeCap
from lrn_detect.families import dense_pattern_state
from lrn_detect.dense import DenseState
from lrn_detect.partition import Partition

# Seeds whose circuits start at pairing offsets 0, 1, 0, 1: the seed draws
# the first layer's offset, 0 for seeds 1 and 6 and 1 for seeds 0 and 2.
_ALTERNATING_OFFSET_SEEDS = (1, 0, 6, 2)


def _ring_partition(n, start, sizes):
    """Consecutive arcs A, C1, B, C2 of the given sizes, A starting at ``start``."""
    arcs, at = [], start
    for size in sizes:
        arcs.append(tuple((at + k) % n for k in range(size)))
        at += size
    return Partition(n, *arcs)


def test_partition_geometry_depth1():
    p = build_partition(16, 1)
    assert [len(r) for r in (p.a, p.c1, p.b, p.c2)] == [4, 4, 4, 4]
    assert len(p.a) == len(p.b)
    assert 4 * 1 + 4 <= len(p.ab) <= 8 * 1
    assert p.min_region() >= 2 * 1 + 2


def test_partition_geometry_depth2():
    p = build_partition(26, 2)
    assert len(p.ab) == 12
    assert p.min_region() >= 6
    assert 4 * 2 + 4 <= len(p.ab) <= 8 * 2
    # C1 takes the odd site
    assert len(p.c1) == 7 and len(p.c2) == 7


def test_partition_start_offset_wraps():
    p = _ring_partition(16, 14, (4, 4, 4, 4))
    assert p.a == (14, 15, 0, 1)
    assert sorted(p.a + p.c1 + p.b + p.c2) == list(range(16))


def test_partition_rejects_small_rings():
    with pytest.raises(PartitionTooSmall):
        build_partition(12, 1)  # C regions would drop below 4
    with pytest.raises(PartitionTooSmall):
        Partition(8, a=(0, 1), c1=(2, 3), b=(5, 4), c2=(6, 7))  # not an arc


def test_depth0_reduction_is_plain_reduction():
    state = dense_pattern_state(["0", "1"], [0.6, 0.8], 12)
    p = build_partition(12, 0)
    circ = BrickworkCircuit(n_sites=12, local_dim=2, layers=())
    red = causal_cone_reduce(circ, p)
    assert red.channels == {}
    assert np.allclose(red.u_a, np.eye(2 ** len(p.a)))
    sigma = dense._gram(causal._reduction_factor(red, state))
    assert np.allclose(sigma, reduced_density(state, p.a + p.b))


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_depth1_channel_formula_matches_direct(seed):
    state = dense_pattern_state(["0", "1"], [math.sqrt(0.3), math.sqrt(0.7)], 16)
    circ = random_brickwork(16, 1, seed)
    p = build_partition(16, 1)
    red = causal_cone_reduce(circ, p)
    sigma = dense._gram(causal._reduction_factor(red, state))
    rho_ab = reduced_density(apply_brickwork(state, circ), p.a + p.b)
    u = np.kron(red.u_a, red.u_b)
    assert np.linalg.norm(sigma - u @ rho_ab @ u.conj().T) < 1e-10
    for ch in red.channels.values():
        assert ch.cptp_defect() < 1e-12


def test_channels_preserve_trace_on_random_inputs():
    circ = random_brickwork(16, 1, seed=0)  # seed 0 draws first-layer offset 1
    p = build_partition(16, 1)
    red = causal_cone_reduce(circ, p)
    channels = list(red.channels.values())
    assert channels, "offset-1 bricks must straddle the aligned partition"
    rng = np.random.default_rng(7)
    for ch in channels:
        dim = ch.kraus[0].shape[1]
        for _ in range(10):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            out = sum(k @ rho @ k.conj().T for k in ch.kraus)
            assert abs(np.trace(out).real - 1.0) < 1e-12


def test_reduction_rejects_small_partition():
    circ = random_brickwork(16, 2, seed=1)
    p = build_partition(16, 1)  # regions of 4 < 2*2+2
    with pytest.raises(PartitionTooSmall):
        causal_cone_reduce(circ, p)


def test_depth2_classification_structure():
    # Structure-only check at depth 2 (dense verification is desk-capped).
    circ = random_brickwork(24, 2, seed=5)
    p = build_partition(24, 2)
    red = causal_cone_reduce(circ, p)
    for ch in red.channels.values():
        assert ch.cptp_defect() < 1e-12
        assert set(ch.output_sites) <= set(p.a) | set(p.b)
        assert set(ch.input_sites) - set(ch.output_sites)


def test_partition_depth2_max_band():
    # |A u B| = 16 = 8D on 32 sites: twice the least band at depth 2.
    p = _ring_partition(32, 0, (8, 8, 8, 8))
    assert len(p.a) == len(p.b) == 8
    assert p.min_region() >= 6
    red = causal_cone_reduce(random_brickwork(32, 2, seed=5), p)
    assert red.channels
    for ch in red.channels.values():
        assert ch.cptp_defect() < 1e-12


@pytest.mark.parametrize("start,seed", [(13, 0), (13, 1), (5, 2)])
def test_wrapped_partition_channel_formula(start, seed):
    # A wraps through the ring origin: arc bookkeeping must still close.
    state = dense_pattern_state(["0", "1"], [math.sqrt(0.3), math.sqrt(0.7)], 16)
    p = _ring_partition(16, start, (4, 4, 4, 4))
    circ = random_brickwork(16, 1, seed)
    red = causal_cone_reduce(circ, p)
    sigma = dense._gram(causal._reduction_factor(red, state))
    rho_ab = reduced_density(apply_brickwork(state, circ), p.a + p.b)
    u = np.kron(red.u_a, red.u_b)
    assert np.linalg.norm(sigma - u @ rho_ab @ u.conj().T) < 1e-10
    for ch in red.channels.values():
        assert ch.cptp_defect() < 1e-12


@pytest.mark.parametrize("start", [0, 13], ids=["plain", "wrapped"])
def test_blockwise_cone_distance_matches_the_formed_densities(start):
    # The cone suite's distance, summed block by block from the oracle's
    # and the channel formula's factors, against the Frobenius norm of the
    # difference of the two densities formed whole.
    state = dense_pattern_state(["0", "1"], [math.sqrt(0.3), math.sqrt(0.7)], 16)
    p = _ring_partition(16, start, (4, 4, 4, 4))
    for seed in range(10):
        red = causal_cone_reduce(random_brickwork(16, 1, seed), p)
        gates = red.circuit.gates + [(red.u_a, p.a), (red.u_b, p.b)]
        evolved = DenseState(16, 2, dense._apply_gates(state.amplitudes, 16, 2, gates))
        rho_ab = reduced_density(evolved, p.ab)
        sigma = dense._gram(causal._reduction_factor(red, state))
        want = np.linalg.norm(rho_ab - sigma)
        got = dense._gram_gap(dense._region_factor(evolved, p.ab),
                              causal._reduction_factor(red, state))
        assert abs(got - want) <= 1e-15
        # Far from zero too: the oracle against the weights swapped.
        other = dense_pattern_state(["0", "1"], [math.sqrt(0.7), math.sqrt(0.3)], 16)
        want = np.linalg.norm(rho_ab - reduced_density(other, p.ab))
        got = dense._gram_gap(dense._region_factor(evolved, p.ab),
                              dense._region_factor(other, p.ab))
        assert want > 0.1 and abs(got - want) <= 1e-12 * want


def _reduction_branch_by_branch(red, psi):
    """Reference: each Kraus operator applied to each branch in turn."""
    p, n, d = red.partition, psi.n_sites, psi.local_dim
    sites, branches = list(range(n)), [psi.amplitudes]
    for ch in red.channels.values():
        w = len(ch.input_sites)
        in_pos = [sites.index(q) for q in ch.input_sites]
        new = []
        for arr in branches:
            t = np.moveaxis(arr.reshape([d] * len(sites)), in_pos, range(w))
            t = t.reshape(d**w, -1)
            new.extend((k @ t).reshape(-1) for k in ch.kraus)
        sites = list(ch.output_sites) + [q for q in sites if q not in ch.input_sites]
        branches = new
    target = list(p.a) + list(p.b)
    pos = [sites.index(q) for q in target]
    dim = d ** len(target)
    sigma = np.zeros((dim, dim), dtype=complex)
    for arr in branches:
        m = np.moveaxis(arr.reshape([d] * len(sites)), pos, range(len(target)))
        m = m.reshape(dim, -1)
        sigma += m @ m.conj().T
    return sigma


@pytest.mark.parametrize("start", [0, 13])
def test_stacked_reduction_matches_branch_by_branch(start):
    p = _ring_partition(16, start, (4, 4, 4, 4))
    rng = np.random.default_rng(start)
    psi = DenseState._owning(
        rng.standard_normal(2**16) + 1j * rng.standard_normal(2**16), 16, 2
    )
    channel_counts = set()
    for seed in range(10):
        red = causal_cone_reduce(random_brickwork(16, 1, seed), p)
        channel_counts.add(len(red.channels))
        sigma = dense._gram(causal._reduction_factor(red, psi))
        assert np.max(np.abs(sigma - _reduction_branch_by_branch(red, psi))) <= 1e-14
        for ch in red.channels.values():
            assert ch.cptp_defect() < 1e-12
    assert channel_counts == {0, 4}  # some seeds align with the partition
    small = dense_pattern_state(["0", "1"], [0.6, 0.8], 12)
    with pytest.raises(GeometryMismatch):
        dense._gram(causal._reduction_factor(red, small))


def _four_channel_case():
    state = dense_pattern_state(["0", "1"], [math.sqrt(0.3), math.sqrt(0.7)], 16)
    circ = random_brickwork(16, 1, seed=0)  # seed 0 draws first-layer offset 1
    red = causal_cone_reduce(circ, build_partition(16, 1))
    assert len(red.channels) == 4
    return red, state


def test_apply_reduction_peak_memory_is_bounded(traced_peak):
    # Four channels on a 1 MiB state: each costs one gather copy and one
    # product, the previous array dropped first; then one copy, the 1 MiB
    # density and a block of conjugated rows.  A third state-sized array
    # would break the bound.
    red, state = _four_channel_case()
    sigma, peak = traced_peak(lambda: dense._gram(causal._reduction_factor(red, state)))
    assert sigma.nbytes == 2**20
    assert peak <= 2.5 * 2**20


def test_apply_reduction_checks_the_density_cap_first(monkeypatch, traced_peak):
    red, state = _four_channel_case()
    monkeypatch.setattr(dense, "RHO_CAP", 2**7)  # A u B holds 8 qubits

    def capped():
        with pytest.raises(SizeCap):
            dense._gram(causal._reduction_factor(red, state))

    _, peak = traced_peak(capped)
    assert peak < 64 * 2**10  # nothing state-sized (1 MiB) was allocated


def _kronecker_subcircuit(gates, site_order, n, d):
    """Oracle: each gate embedded as ``kron(1, gate, 1)`` and multiplied in."""
    index = {q: i for i, q in enumerate(site_order)}
    w = len(site_order)
    total = np.eye(d**w, dtype=complex)
    for _, s, gate in gates:
        a = index[s % n]
        assert index[(s + 1) % n] == a + 1  # region and wedge arcs are contiguous
        total = reduce(np.kron, (np.eye(d**a), gate, np.eye(d ** (w - a - 2)))) @ total
    return total


@pytest.mark.parametrize("depth,start", [(1, 0), (1, 13), (2, 0), (2, 21)],
                         ids=["d1", "d1-wrapped", "d2", "d2-wrapped"])
def test_cone_unitaries_match_the_kronecker_oracle(depth, start, monkeypatch):
    n = 8 * depth + 8
    p = _ring_partition(n, start, [2 * depth + 2] * 4)
    circuits = [random_brickwork(n, depth, seed) for seed in _ALTERNATING_OFFSET_SEEDS]
    got = [causal_cone_reduce(c, p) for c in circuits]
    monkeypatch.setattr(causal, "_subcircuit_matrix", _kronecker_subcircuit)
    want = [causal_cone_reduce(c, p) for c in circuits]
    n_channels = 0
    for g, w in zip(got, want):
        assert np.max(np.abs(g.u_a - w.u_a)) < 1e-13
        assert np.max(np.abs(g.u_b - w.u_b)) < 1e-13
        assert g.channels.keys() == w.channels.keys()
        for key, ch in g.channels.items():
            ref = w.channels[key]
            n_channels += 1
            assert (ch.input_sites, ch.output_sites) == (ref.input_sites, ref.output_sites)
            assert np.max(np.abs(np.stack(ch.kraus) - np.stack(ref.kraus))) < 1e-13
    assert n_channels > 0
