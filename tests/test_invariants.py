"""Cross-module invariants tying the tensor algebra to the dense oracle."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from lrn_detect import (
    MpsTensor,
    WeightSpectrum,
    best_rational,
    block_tensor,
    canonical_decompose,
    evaluate_weights,
    ghz_classify,
    lrn_entropy_check,
    mixed_transfer_matrix,
    rg_fixed_point,
    transfer_matrix,
    transfer_spectral,
)
from lrn_detect.circuits import _haar_gates
from lrn_detect.criteria import LRN_CERTIFIED
from lrn_detect.dense import _apply_gates
from lrn_detect.errors import LrnDetectError
from lrn_detect.families import (
    ghz_tensor,
    pattern_tensor,
    phase_loop_tensor,
    random_normal_tensor,
)
from oracles import (
    gauge_equivalent,
    local_orthogonal,
    materialize_mps,
    rg_step,
)


def test_local_orthogonality_implies_dense_orthogonality():
    cf = canonical_decompose(ghz_tensor())
    b0, b1 = cf.blocks
    assert local_orthogonal(b0.tensor, b1.tensor)
    for n in range(2, 11):
        v0 = materialize_mps(b0.tensor, n)
        v1 = materialize_mps(b1.tensor, n)
        assert abs(np.vdot(v0.amplitudes, v1.amplitudes)) < 1e-8


def test_gauge_equivalence_implies_phase_line():
    t = random_normal_tensor(2, 2, seed=13)
    phi0 = 1.234
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
    other = MpsTensor(
        cmath.exp(1j * phi0)
        * np.einsum("ab,ibc,cd->iad", x, t.matrices, np.linalg.inv(x))
    )
    rel = gauge_equivalent(other, t)
    assert rel is not None
    for n in range(2, 11):
        va = materialize_mps(other, n)
        vb = materialize_mps(t, n)
        # normalized states: overlap must sit on the phase line exp(i n phi)
        expected = cmath.exp(1j * n * rel.phase)
        assert abs(np.vdot(vb.amplitudes, va.amplitudes) - expected) < 1e-8


def test_multiblock_chi4_scrambled_recovery():
    # Two inequivalent bond-2 normal blocks, weights 1 and 0.9, scrambled by
    # a random gauge: the decomposition must recover both weights and blocks.
    a = random_normal_tensor(2, 2, seed=41)
    b = random_normal_tensor(2, 2, seed=42)
    a = a.scaled(1.0 / math.sqrt(transfer_spectral(a).radius))
    b = b.scaled(0.9 / math.sqrt(transfer_spectral(b).radius))
    mats = np.zeros((2, 4, 4), dtype=complex)
    mats[:, :2, :2] = a.matrices
    mats[:, 2:, 2:] = b.matrices
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4 * np.eye(4)
    scr = MpsTensor(np.einsum("ab,ibc,cd->iad", np.linalg.inv(x), mats, x))
    cf = canonical_decompose(scr)
    assert len(cf.blocks) == 2
    mags = sorted(abs(blk.mu) for blk in cf.blocks)
    assert abs(mags[0] - 0.9) < 1e-7 and abs(mags[1] - 1.0) < 1e-8
    assert cf.num_groups == 2
    big = max(cf.blocks, key=lambda blk: abs(blk.mu))
    assert gauge_equivalent(big.tensor, a) is not None
    # distinct surviving families separate in the thermodynamic limit
    for blk, other in ((cf.blocks[0], cf.blocks[1]),):
        mixed = mixed_transfer_matrix(blk.tensor, other.tensor)
        assert np.max(np.abs(np.linalg.eigvals(mixed))) < 1.0 - 1e-6


def test_fixed_point_blocks_locally_orthogonal():
    for t in (ghz_tensor(), phase_loop_tensor(math.pi / 3)):
        fp = rg_fixed_point(t)
        for i in range(len(fp.blocks)):
            for j in range(i + 1, len(fp.blocks)):
                assert local_orthogonal(fp.blocks[i].tensor, fp.blocks[j].tensor)
        for b in fp.blocks:
            assert abs(float(np.sum(b.schmidt_weights)) - 1.0) < 1e-12


def test_rg_trace_lambda2_squares():
    # Each flow step squares the subleading modulus, starting from the
    # lambda2 of the block's normality witness.
    (block,) = canonical_decompose(random_normal_tensor(2, 2, seed=2)).blocks
    lam2, t = block.witness.lambda2, block.tensor
    for _ in range(8):
        t = rg_step(t).tensor
        s = transfer_spectral(t)
        t = t.scaled(1.0 / math.sqrt(s.radius))
        nxt = s.subleading_modulus / s.radius
        assert nxt <= lam2**2 + 1e-8
        lam2 = nxt
        if lam2 < 1e-12:
            break
    assert lam2 < 1e-12


def test_rationality_exhaustive_small_denominators():
    for q in range(1, 1001):
        for p in (1, q - 1, q // 2):
            if p < 1 or math.gcd(p, q) != 1:
                continue
            got = best_rational(p / q, q_max=10**6, tau=1e-9)
            assert got == Fraction(p, q), (p, q, got)


def test_rationality_exhaustive_full_up_to_200():
    for q in range(1, 201):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            assert best_rational(p / q, q_max=10**6, tau=1e-9) == Fraction(p, q)


def test_ghz_grid_thousand_points():
    for k in range(1001):
        a = k / 1000.0
        label = ghz_classify(a)
        expect_lrn = k not in (0, 500, 1000)
        assert (label == "LRN") == expect_lrn
        weights = WeightSpectrum.constant([math.sqrt(a), math.sqrt(1.0 - a)])
        status = lrn_entropy_check(weights).status
        assert (status == LRN_CERTIFIED) == expect_lrn


def test_decaying_block_abandoned_by_flow():
    # weight-0.8 block decays: the fixed point keeps only the unit block
    t = pattern_tensor([0, 1], [1.0, 0.8], d=2)
    fp = rg_fixed_point(t)
    assert len(fp.blocks) == 1
    assert fp.weights.num_blocks == 1


def _random_composite(rng, specs):
    """Block-diagonal tensor from (chi, weight) specs, behind a random gauge."""
    blocks = []
    for k, (chi, mu) in enumerate(specs):
        t = random_normal_tensor(2, chi, seed=int(rng.integers(2**31)))
        t = t.scaled(mu / math.sqrt(transfer_spectral(t).radius))
        blocks.append(t)
    dim = sum(chi for chi, _ in specs)
    mats = np.zeros((2, dim, dim), dtype=complex)
    off = 0
    for t in blocks:
        c = t.bond_dim
        mats[:, off : off + c, off : off + c] = t.matrices
        off += c
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x += 2.5 * dim * np.eye(dim)
    return MpsTensor(np.einsum("ab,ibc,cd->iad", np.linalg.inv(x), mats, x))


def test_canonical_reconstruction_random_composites():
    # v(input, N) must equal sum_k mu_k^N v(block_k, N) entrywise.
    rng = np.random.default_rng(2718)
    spec_sets = [
        [(1, 1.0), (2, 1.0)],
        [(1, 1.0), (1, cmath.exp(0.7j)), (2, 0.8)],
        [(2, 1.0), (2, cmath.exp(-1.2j))],
        [(1, 1.0), (1, 1.0), (1, 0.6)],
    ]
    for specs in spec_sets:
        t = _random_composite(rng, specs)
        cf = canonical_decompose(t)
        assert cf.blocking == 1
        assert len(cf.blocks) == len(specs)
        got = sorted(abs(b.mu) for b in cf.blocks)
        want = sorted(abs(m) for _, m in specs)
        assert np.allclose(got, want, atol=1e-7)
        for n in (2, 3, 5):
            direct = materialize_mps(t, n)
            total = None
            for b in cf.blocks:
                amps = materialize_mps(b.tensor, n).amplitudes
                # undo the per-state normalization to recover raw traces
                raw = amps * _raw_norm(b.tensor, n)
                term = (b.mu**n) * raw
                total = term if total is None else total + term
            raw_direct = direct.amplitudes * _raw_norm(t, n)
            scale = np.linalg.norm(raw_direct)
            assert np.max(np.abs(total - raw_direct)) < 1e-8 * max(scale, 1.0)


def _raw_norm(t, n):
    from lrn_detect.tensor import transfer_matrix

    e = transfer_matrix(t)
    return math.sqrt(abs(np.trace(np.linalg.matrix_power(e, n))))


def test_gauge_equivalent_bond2_pair_grouped():
    # Two bond-2 copies of one family, one rotated by a gauge and phase:
    # the decomposition must merge them into a single group with weight
    # |1 + e^{i phi N}| at size N.
    rng = np.random.default_rng(424)
    base = random_normal_tensor(2, 2, seed=17)
    base = base.scaled(1.0 / math.sqrt(transfer_spectral(base).radius))
    phi0 = 0.6
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
    copy = cmath.exp(1j * phi0) * np.einsum(
        "ab,ibc,cd->iad", x, base.matrices, np.linalg.inv(x)
    )
    mats = np.zeros((2, 4, 4), dtype=complex)
    mats[:, :2, :2] = base.matrices
    mats[:, 2:, 2:] = copy
    scramble = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    scramble += 9 * np.eye(4)
    t = MpsTensor(np.einsum("ab,ibc,cd->iad", np.linalg.inv(scramble), mats, scramble))

    cf = canonical_decompose(t)
    assert len(cf.blocks) == 2
    assert cf.num_groups == 1
    spectrum = cf.weight_spectrum
    assert spectrum.num_blocks == 1
    phases = sorted(p for _, p in spectrum.terms[0])
    assert np.allclose(phases, [-phi0 / 2, phi0 / 2], atol=1e-7)
    for n in (3, 6, 9):
        amp = spectrum.amplitudes(n)[0]
        assert abs(abs(amp) - abs(1 + cmath.exp(1j * phi0 * n))) < 1e-7


def test_dressed_tensor_generates_the_dressed_state(dressed_tensor):
    # Four blocks are eight sites: U1 on (0,1), (2,3), ..., then U2 on
    # (1,2), ..., (7,0) around the ring, applied to the undressed state.
    a = phase_loop_tensor(2 * math.pi / 5)
    rng = np.random.default_rng(0)
    u1, u2 = _haar_gates(2, 4, rng)
    dressed = materialize_mps(dressed_tensor(a, u1, u2), 4).amplitudes
    gates = [(u1, (k, k + 1)) for k in range(0, 8, 2)]
    gates += [(u2, (k, (k + 1) % 8)) for k in range(1, 8, 2)]
    expected = _apply_gates(materialize_mps(a, 8).amplitudes, 8, 2, gates)
    assert abs(abs(np.vdot(dressed, expected)) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["ghz", "loop_2pi5", "loop_pi3"])
def test_dressing_keeps_weights_and_verdict(name, seed, dressed_tensor):
    # A shallow circuit maps the orthogonal components of the family to
    # orthogonal components, so the weights and the verdict of the blocked
    # tensor survive the dressing (chi 2 -> 8 and 3 -> 12).
    a = {
        "ghz": ghz_tensor,
        "loop_2pi5": lambda: phase_loop_tensor(2 * math.pi / 5),
        "loop_pi3": lambda: phase_loop_tensor(math.pi / 3),
    }[name]()
    rng = np.random.default_rng(seed)
    dressed = dressed_tensor(a, *_haar_gates(2, 4, rng))
    sizes = np.arange(8, 24)
    results = []
    for t in (block_tensor(a, 2), dressed):
        spectrum = canonical_decompose(t).weight_spectrum
        weights = np.sort(evaluate_weights(spectrum, sizes), axis=-1)
        results.append((weights, lrn_entropy_check(spectrum).status))
    (w_blocked, v_blocked), (w_dressed, v_dressed) = results
    assert w_dressed.shape == w_blocked.shape
    assert np.max(np.abs(w_dressed - w_blocked)) <= 1e-12
    assert v_dressed == v_blocked


_DRESSED_SWEEP = {
    "ghz": ghz_tensor,
    "loop_2pi5": lambda: phase_loop_tensor(2 * math.pi / 5),
    "loop_pi3": lambda: phase_loop_tensor(math.pi / 3),
    "pattern3": lambda: pattern_tensor([0, 1, 2], [1, 1, 1], 3),
    "pattern3_phased": lambda: pattern_tensor(
        [0, 1, 2], [1, cmath.exp(0.7j), cmath.exp(-1.9j)], 3
    ),
}


@pytest.mark.slow
def test_gauged_dressing_gives_the_blocked_answer_or_a_named_error(dressed_tensor):
    """Dressed and gauged fixtures: the blocked tensor's answer, or a named error.

    Each fixture is dressed by Haar U1 and U2 and then gauged by
    ``standard_normal((k, k)) + 2 I``, all drawn from seeds 0-39 (200 cases,
    chi 8-27).  A case matches when its verdict and its sorted weights at
    N = 8..23, within 1e-11, equal those of ``block_tensor(a, 2)``.  A
    named ``LrnDetectError`` is allowed: ill-conditioned gauges make the
    decomposition refuse.  Any other answer is wrong.  On 1 BLAS thread
    169 cases match and 31 raise ``DecompositionFailure`` (25 of them the
    chi-27 pattern fixtures).
    """
    sizes = np.arange(8, 24)
    errors, wrong = [], []
    for name, make in _DRESSED_SWEEP.items():
        a = make()
        spectrum = canonical_decompose(block_tensor(a, 2)).weight_spectrum
        weights = np.sort(evaluate_weights(spectrum, sizes), axis=-1)
        verdict = lrn_entropy_check(spectrum).status
        for seed in range(40):
            rng = np.random.default_rng(seed)
            dim = a.phys_dim ** 2
            t = dressed_tensor(a, *_haar_gates(2, dim, rng))
            k = t.bond_dim
            t = t.gauged(rng.standard_normal((k, k)) + 2 * np.eye(k))
            try:
                got = canonical_decompose(t).weight_spectrum
                got_weights = np.sort(evaluate_weights(got, sizes), axis=-1)
                got_verdict = lrn_entropy_check(got).status
            except LrnDetectError as exc:
                errors.append((name, seed, type(exc).__name__))
                continue
            if (got_weights.shape != weights.shape
                    or np.max(np.abs(got_weights - weights)) > 1e-11
                    or got_verdict != verdict):
                wrong.append((name, seed, got_verdict))
    assert wrong == [], wrong
