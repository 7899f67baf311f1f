"""Canonical decomposition, local orthogonality, gauge equivalence."""

import cmath
import math

import numpy as np
import pytest

from lrn_detect import (
    MpsTensor,
    canonical,
    canonical_decompose,
    lrn_entropy_check,
    transfer_matrix,
    transfer_spectral,
)
from lrn_detect.criteria import INCONCLUSIVE, LRN_CERTIFIED
from lrn_detect.errors import DecompositionFailure, SizeCap
from lrn_detect.families import (
    alternating_tensor,
    counterexample_tensor,
    ghz_tensor,
    pattern_tensor,
    phase_loop_tensor,
    random_normal_tensor,
)
from oracles import (
    NotNormalInput,
    complex_spectral,
    gauge_equivalent,
    local_orthogonal,
    materialize_mps,
)


def test_local_orthogonal_levels():
    zero, one = pattern_tensor([0], [1.0], 2), pattern_tensor([1], [1.0], 2)
    assert local_orthogonal(zero, one)
    assert not local_orthogonal(zero, zero)


def test_local_orthogonal_ghz_blocks():
    cf = canonical_decompose(ghz_tensor())
    b0, b1 = cf.blocks
    assert local_orthogonal(b0.tensor, b1.tensor)


def test_gauge_equivalent_pure_phase():
    t = random_normal_tensor(2, 2, seed=3)
    phi0 = 0.815
    rel = gauge_equivalent(MpsTensor(t.matrices * cmath.exp(1j * phi0)), t)
    assert rel is not None
    assert abs(rel.phase - phi0) < 1e-8
    assert np.allclose(rel.x, np.eye(2), atol=1e-6)


def test_gauge_equivalent_conjugation_recovered():
    t = random_normal_tensor(2, 2, seed=11)
    rng = np.random.default_rng(42)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x += 2 * np.eye(2)  # keep it comfortably invertible
    conj = MpsTensor(np.einsum("ab,ibc,cd->iad", x, t.matrices, np.linalg.inv(x)))
    # Detection is scale-invariant: also both tensors far below radius one.
    t3 = random_normal_tensor(2, 3, seed=6)
    x3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
    scaled = (t3.scaled(1e-4), t3.gauged(x3).scaled(1e-4 * cmath.exp(0.4j)))
    for (a, b), gauge, phase in (((conj, t), x, 0.0), (scaled, x3, -0.4)):
        rel = gauge_equivalent(a, b)
        assert rel is not None
        assert abs(rel.phase - phase) < 1e-8
        # the gauge recovered up to a complex scale
        ratio = rel.x / gauge
        assert np.max(np.abs(ratio - ratio.flat[0])) < 1e-6


def test_gauge_equivalent_none_for_orthogonal():
    zero, one = pattern_tensor([0], [1.0], 2), pattern_tensor([1], [1.0], 2)
    assert gauge_equivalent(zero, one) is None


def test_gauge_equivalent_requires_normal():
    with pytest.raises(NotNormalInput):
        gauge_equivalent(ghz_tensor(), ghz_tensor())


def test_decompose_normal_single_block():
    t = random_normal_tensor(2, 3, seed=7)
    cf = canonical_decompose(t)
    assert len(cf.blocks) == 1
    assert abs(cf.blocks[0].mu - 1.0) < 1e-9
    assert cf.blocking == 1


def test_decompose_factorizes_a_normal_block_once(count_linalg):
    # One eigvals of the 64 x 64 transfer matrix, plus inverse iteration,
    # serves the split, the block radius and the normality certificate; a
    # unique peripheral eigenvalue needs no Ritz eig.
    t = random_normal_tensor(2, 8, seed=8)
    calls = count_linalg()
    cf = canonical_decompose(t)
    assert len(cf.blocks) == 1
    assert calls == {"eig": [], "eigvals": [64]}


def test_decompose_decomposes_each_fixed_point_once(count_linalg, unitary_gauged):
    # ghz in a dense unitary gauge: one eigh per one-sided fixed point, the
    # right one reused for the unital gauge, and one for the fixed-point
    # algebra cut.  Its two parts are scalars, whose spectra, fixed points and
    # witnesses are arithmetic.  A normal tensor's witness takes the
    # eigenvalues of its two fixed points from their Hermitian rotation, one
    # eigvalsh each, and certifies it before any split is tried, so it runs
    # no eigh.  No gauge is assembled, so no condition number is taken.
    ghz = unitary_gauged(ghz_tensor())
    normal = random_normal_tensor(2, 8, seed=8)
    calls = count_linalg("eigvals", "eigh", "eigvalsh", "cond")
    canonical_decompose(ghz)
    assert calls == {"eigvals": [4], "eigh": [2, 2, 2], "eigvalsh": [], "cond": []}
    calls = count_linalg("eigvals", "eigh", "eigvalsh", "cond")
    canonical_decompose(normal)
    assert calls == {"eigvals": [64], "eigh": [], "eigvalsh": [8, 8], "cond": []}


@pytest.mark.parametrize("name", ["ghz", "loop_pi3", "loop_7_997", "counterexample"])
def test_decompose_splits_a_diagonal_fixture_with_no_eigensolver(name, count_linalg):
    # Written diagonally, each fixture's support graph has one component per
    # bond index: every part is a scalar, read by arithmetic, and so is the
    # gauge test of two scalars.  No spectrum, fixed point or gauge is solved.
    names = ("eig", "eigvals", "eigh", "eigvalsh", "svd")
    tensor = _REAL_FORM_CASES[name]()
    calls = count_linalg(*names)
    cf = canonical_decompose(tensor)
    assert calls == {name: [] for name in names}
    assert [b.tensor.bond_dim for b in cf.blocks] == [1] * tensor.bond_dim


def test_decompose_ghz():
    cf = canonical_decompose(ghz_tensor())
    assert len(cf.blocks) == 2
    assert all(abs(b.mu - 1.0) < 1e-9 for b in cf.blocks)
    assert all(b.tensor.bond_dim == 1 for b in cf.blocks)
    assert cf.num_groups == 2


def test_decompose_phase_loop_mu_values():
    phi = 0.9
    cf = canonical_decompose(phase_loop_tensor(phi))
    mus = sorted(np.angle(b.mu) for b in cf.blocks)
    assert np.allclose(mus, sorted([0.0, phi, -phi]), atol=1e-8)
    # the two phased blocks are gauge-equivalent, merged into one group
    assert cf.num_groups == 2
    spectrum = cf.weight_spectrum
    assert spectrum.num_blocks == 2
    sizes = sorted(len(block) for block in spectrum.terms)
    assert sizes == [1, 2]
    # merged weight behaves as 2 cos(phi N) in modulus
    for n in range(1, 9):
        amp = spectrum.amplitudes(n)
        pair = amp[[len(b) == 2 for b in spectrum.terms].index(True)]
        assert abs(abs(pair) - abs(2 * math.cos(phi * n))) < 1e-10


def test_decompose_scrambled_ghz():
    # A gauge-scrambled GHZ must still split into two product blocks.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 3 * np.eye(2)
    scr = MpsTensor(
        np.einsum("ab,ibc,cd->iad", np.linalg.inv(x), ghz_tensor().matrices, x)
    )
    cf = canonical_decompose(scr)
    assert len(cf.blocks) == 2
    assert cf.num_groups == 2
    assert all(abs(abs(b.mu) - 1.0) < 1e-8 for b in cf.blocks)
    # the family is unchanged: compare dense states
    for n in (3, 5):
        a = materialize_mps(scr, n)
        b = materialize_mps(ghz_tensor(), n)
        assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - 1.0) < 1e-9


def test_decompose_alternating_needs_blocking():
    cf = canonical_decompose(alternating_tensor())
    assert cf.blocking == 2
    assert len(cf.blocks) == 2
    assert all(b.tensor.bond_dim == 1 for b in cf.blocks)


@pytest.mark.parametrize("p", [9, 11])
def test_decompose_groups_as_many_sites_as_a_long_period(p):
    # Cyclic shift on p bond states, level r mod 2 on the bond r -> r + 1:
    # p translates of one product state, so the entropy is log2(p).
    mats = np.zeros((2, p, p), dtype=complex)
    for r in range(p):
        mats[r % 2, r, (r + 1) % p] = 1.0
    cf = canonical_decompose(MpsTensor(mats))
    assert cf.blocking == p
    assert len(cf.blocks) == p
    assert lrn_entropy_check(cf.weight_spectrum).status == LRN_CERTIFIED


def test_decompose_blocks_once(monkeypatch):
    # A part still periodic after blocking is a named failure, not a second blocking.
    split = canonical._split_parts

    def always_periodic(*args):
        return [(t, 2, *rest) for t, _, *rest in split(*args)]

    monkeypatch.setattr(canonical, "_split_parts", always_periodic)
    with pytest.raises(DecompositionFailure, match="period 2 after grouping 2 sites"):
        canonical_decompose(alternating_tensor())


def test_decompose_drops_decaying_block():
    t = pattern_tensor([0, 1], [1.0, 0.5], d=2)
    cf = canonical_decompose(t)
    assert len(cf.blocks) == 2
    mags = sorted(abs(b.mu) for b in cf.blocks)
    assert abs(mags[0] - 0.5) < 1e-9 and abs(mags[1] - 1.0) < 1e-9
    # only the surviving block enters the weight spectrum
    assert cf.weight_spectrum.num_blocks == 1


def test_decompose_triangular_junk_same_family():
    # Junk above the diagonal never reaches the generated states.
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0] = np.array([[1.0, 0.8], [0.0, 0.0]])
    mats[1] = np.array([[0.0, -0.3], [0.0, 1.0]])
    t = MpsTensor(mats)
    cf = canonical_decompose(t)
    assert len(cf.blocks) == 2
    clean = ghz_tensor()
    for n in (2, 4, 6):
        a, b = materialize_mps(t, n), materialize_mps(clean, n)
        assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - 1) < 1e-9


def test_decompose_equal_copies_merge():
    # Two identical blocks: one group, weight 2 at every size.
    t = pattern_tensor([0, 0], [1.0, 1.0], d=2)
    cf = canonical_decompose(t)
    assert len(cf.blocks) == 2
    assert cf.num_groups == 1
    amp = cf.weight_spectrum.amplitudes(5)
    assert abs(amp[0] - 2.0) < 1e-9


def test_decompose_zero_family_fails():
    with pytest.raises(DecompositionFailure):
        canonical_decompose(MpsTensor(np.zeros((2, 2, 2))))


def test_decompose_scrambled_alternating():
    # periodic tensor behind a random gauge: blocking still detected
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 3 * np.eye(2)
    scr = MpsTensor(
        np.einsum(
            "ab,ibc,cd->iad", np.linalg.inv(x), alternating_tensor().matrices, x
        )
    )
    cf = canonical_decompose(scr)
    assert cf.blocking == 2
    assert len(cf.blocks) == 2
    assert {round(abs(b.mu), 9) for b in cf.blocks} == {1.0}


# --- the support-graph split ----------------------------------------------------


def _direct_sum(tensors, junk=0.0, seed=0):
    """Block-diagonal tensor of ``tensors``, in order, with ``junk`` above the blocks.

    ``junk`` scales Gaussian entries placed in every block above the
    diagonal, which leave the family unchanged.
    """
    rng = np.random.default_rng(seed)
    offsets = np.cumsum([0] + [t.bond_dim for t in tensors])
    chi = int(offsets[-1])
    mats = np.zeros((tensors[0].phys_dim, chi, chi), dtype=complex)
    for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
        mats[:, lo:hi, lo:hi] = t.matrices
        mats[:, lo:hi, hi:] = junk * rng.standard_normal((t.phys_dim, hi - lo, chi - hi))
    return MpsTensor(mats)


def _ladder(k, unit=True):
    """k blocks ``random_normal_tensor(2, 4, seed=s)``, s < k, on the diagonal.

    With ``unit``, each block is scaled to transfer radius one, so all k
    weights are equal; as drawn, the blocks' radii differ.
    """
    blocks = [random_normal_tensor(2, 4, seed=s) for s in range(k)]
    if unit:
        blocks = [b.scaled(1.0 / math.sqrt(transfer_spectral(b).radius)) for b in blocks]
    return _direct_sum(blocks)


@pytest.mark.parametrize("k, status", [
    (2, INCONCLUSIVE), (3, LRN_CERTIFIED), (4, INCONCLUSIVE), (5, LRN_CERTIFIED),
    (6, LRN_CERTIFIED), (12, LRN_CERTIFIED), (17, LRN_CERTIFIED),
])
def test_block_diagonal_ladder_reads_k_equal_weights(k, status, count_linalg):
    # k equal weights give the entropy log2 k, an integer only for k = 2 and
    # 4.  Each block is solved on its own: no transfer matrix, plain or
    # mixed, is larger than one block's 16 x 16, so chi = 68 is no SizeCap.
    tensor = _ladder(k)
    calls = count_linalg()
    cf = canonical_decompose(tensor)
    assert set(calls["eigvals"]) == {16}
    assert [b.tensor.bond_dim for b in cf.blocks] == [4] * k
    assert all(b.surviving for b in cf.blocks) and cf.num_groups == k
    verdict = lrn_entropy_check(cf.weight_spectrum)
    assert verdict.status == status
    assert abs(verdict.evidence["classes"][0]["entropy"] - math.log2(k)) < 1e-9


@pytest.mark.parametrize("k", [3, 17])
def test_block_diagonal_ladder_of_unscaled_draws_keeps_one_block(k):
    # As drawn, one block has the largest transfer radius; the others decay.
    cf = canonical_decompose(_ladder(k, unit=False))
    assert len(cf.blocks) == k and sum(b.surviving for b in cf.blocks) == 1
    verdict = lrn_entropy_check(cf.weight_spectrum)
    assert verdict.status == INCONCLUSIVE
    assert verdict.evidence["reason"] == "single block"


_PERMUTED_CASES = {
    "ghz": ghz_tensor,
    "loop_pi3": lambda: phase_loop_tensor(math.pi / 3),
    "alternating": alternating_tensor,
    "counterexample": counterexample_tensor,
    "ladder5": lambda: _ladder(5),
}


@pytest.mark.parametrize("name", [*_PERMUTED_CASES, "composite"])
def test_decompose_is_blind_to_a_permuted_bond_basis(name, composite_draw, same_canonical):
    # P A[i] P^T relabels the bond indices, and so the support graph's
    # nodes: the ladder's components then interleave.  Blocks, weights and
    # the verdict stay.
    tensor = composite_draw(0) if name == "composite" else _PERMUTED_CASES[name]()
    perm = np.random.default_rng(5).permutation(tensor.bond_dim)
    permuted = MpsTensor(tensor.matrices[:, perm][:, :, perm])
    cf, cf_p = canonical_decompose(tensor), canonical_decompose(permuted)
    same_canonical(cf, cf_p)
    assert (lrn_entropy_check(cf.weight_spectrum).status
            == lrn_entropy_check(cf_p.weight_spectrum).status)


@pytest.mark.parametrize("blocks", [
    lambda: [pattern_tensor([0], [1.0], 2), pattern_tensor([1], [1.0], 2)],
    lambda: [_ladder(1), _ladder(1).scaled(0.5), random_normal_tensor(2, 3, seed=9)],
], ids=["ghz", "ladder"])
def test_block_triangular_junk_drops_out_exactly(blocks, same_canonical):
    # Nonzero entries above the diagonal blocks change no trace of any
    # word: the decomposition equals that of the blocks alone.
    parts = blocks()
    same_canonical(canonical_decompose(_direct_sum(parts, junk=0.7)),
                   canonical_decompose(_direct_sum(parts)))


@pytest.mark.parametrize("tiny", [1e-30, 1e-100])
def test_decompose_drops_a_negligible_component_unsolved(tiny):
    # Levels diag(1, 0) and diag(0, tiny): the second component's transfer
    # radius is tiny**2 times the first's, under TAU_ZERO, so it generates
    # nothing and is dropped, as the unsplit tensor's part was.  It is
    # dropped before its spectrum is solved: alone, its transfer matrix at
    # tiny = 1e-100 is below the range of spectral work.
    cf = canonical_decompose(MpsTensor(np.array([[[1, 0], [0, 0]], [[0, 0], [0, tiny]]])))
    assert [(b.tensor.bond_dim, b.mu) for b in cf.blocks] == [(1, 1.0)]


def test_components_keep_a_strongly_connected_tensor_whole():
    # One component: the tensor itself goes on, so dense and gauged inputs
    # take the unsplit path with unchanged bytes.
    for tensor in (random_normal_tensor(2, 5, seed=1), alternating_tensor()):
        (whole,) = canonical._components(tensor)
        assert whole is tensor


@pytest.mark.parametrize("seed", range(8))
def test_strong_components_partition_and_order_the_graph(seed):
    # Oracle: a and b share a component iff each reaches the other, read
    # from the transitive closure.  In the returned order every edge runs
    # forward or inside a component, so the matrices are block upper
    # triangular.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    adj = rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.4)
    reach = np.eye(n, dtype=bool) | adj
    for _ in range(n):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    comps = canonical._strong_components(adj)
    label = np.empty(n, dtype=int)
    for c, members in enumerate(comps):
        label[members] = c
    assert sorted(v for members in comps for v in members) == list(range(n))
    assert np.array_equal(label[:, None] == label[None, :], reach & reach.T)
    rows, cols = np.nonzero(adj)
    assert np.all(label[rows] <= label[cols])


def test_decompose_dense_chi65_is_a_size_cap():
    # A strongly connected chi = 65 tensor is one component whose transfer
    # matrix, 4225 x 4225, is over TRANSFER_CAP.
    rng = np.random.default_rng(65)
    with pytest.raises(SizeCap):
        canonical_decompose(MpsTensor(rng.standard_normal((2, 65, 65))))


# --- eigenvalues from the real form ---------------------------------------------


_REAL_FORM_CASES = {
    "ghz": ghz_tensor,
    "product": lambda: pattern_tensor([0], [1.0], 2),
    "loop_pi3": lambda: phase_loop_tensor(math.pi / 3),
    "loop_incommensurate": lambda: phase_loop_tensor(math.sqrt(2.0)),
    "loop_7_997": lambda: phase_loop_tensor(2 * math.pi * 7 / 997),
    "alternating": alternating_tensor,
    "counterexample": counterexample_tensor,
    **{f"normal_d{d}_chi{chi}": (lambda d=d, chi=chi: random_normal_tensor(d, chi, seed=chi))
       for d, chi in ((2, 2), (3, 4), (2, 6), (3, 8))},
}


def _assert_matches_complex_oracle(tensor, monkeypatch, same_canonical):
    cf = canonical_decompose(tensor)
    with monkeypatch.context() as m:
        # The oracle takes the transfer eigenvalues from a complex eigvals.
        m.setattr(canonical, "transfer_spectral",
                  lambda t: complex_spectral(transfer_matrix(t)))
        oracle = canonical_decompose(tensor)
    same_canonical(cf, oracle)


@pytest.mark.parametrize("name", list(_REAL_FORM_CASES))
def test_decompose_matches_complex_eigvals_oracle(name, monkeypatch, same_canonical):
    _assert_matches_complex_oracle(_REAL_FORM_CASES[name](), monkeypatch, same_canonical)


@pytest.mark.parametrize("seed", range(20))
def test_decompose_matches_complex_eigvals_oracle_on_composites(
    seed, composite_draw, monkeypatch, same_canonical
):
    _assert_matches_complex_oracle(composite_draw(seed), monkeypatch, same_canonical)


@pytest.mark.parametrize("name", ["ghz", "loop_pi3", "alternating", "normal_d3_chi8", "composite"])
def test_transfer_eigvals_are_real_and_mixed_ones_complex(
    name, count_linalg, composite_draw, monkeypatch, unitary_gauged
):
    # Each transfer spectrum of a tensor with chi > 1 takes one real
    # eigvals; each gauge test of two such tensors takes one complex eigvals
    # of its mixed transfer matrix.  A scalar operator is its own spectrum.
    # The diagonal fixtures go in a dense gauge: as written, they split into
    # scalar components and take no eigvals at all.
    tensor = composite_draw(0) if name == "composite" else _REAL_FORM_CASES[name]()
    if name in ("ghz", "loop_pi3"):
        tensor = unitary_gauged(tensor)
    spectra, mixed = [], []
    for attr, log in (("transfer_spectral", spectra), ("mixed_transfer_matrix", mixed)):
        original = getattr(canonical, attr)
        monkeypatch.setattr(canonical, attr, lambda *args, _f=original, _log=log:
                            _log.append(args[0].bond_dim) or _f(*args))
    calls = count_linalg("eigvals")
    canonical_decompose(tensor)
    dtypes = calls.dtypes["eigvals"]
    assert sorted(calls["eigvals"]) == sorted(chi * chi for chi in spectra + mixed if chi > 1)
    assert dtypes.count(np.dtype(np.float64)) == sum(chi > 1 for chi in spectra) > 0
    assert dtypes.count(np.dtype(complex)) == sum(chi > 1 for chi in mixed)


# --- robustness sweep -----------------------------------------------------------


@pytest.mark.slow
def test_copy_composites_decompose_robustly(copy_composite):
    # About one draw in 1,350 of such composites is known to miss the
    # projector leak tolerance (a DecompositionFailure); one miss in the
    # thousand draws is within that rate, a second is not.
    failures = []
    for seed in range(1000):
        rng = np.random.default_rng([2024, seed])
        d = int(rng.integers(2, 4))
        chis = [int(c) for c in rng.integers(2, 4, size=int(rng.integers(2, 4)))]
        q = int(rng.integers(2, 7))
        tensor = copy_composite(rng, d, chis, np.exp(2j * math.pi / q))
        blocks, groups = len(chis) + 1, len(chis)
        try:
            cf = canonical_decompose(tensor)
        except DecompositionFailure as exc:
            failures.append((seed, str(exc)))
            continue
        if (len(cf.blocks), cf.num_groups, cf.blocking) != (blocks, groups, 1):
            failures.append((seed, f"{len(cf.blocks)} blocks, {cf.num_groups} groups"))
    assert len(failures) <= 1, failures


def test_gauge_relation_fails_closed_on_a_nan_reconstruction():
    # A NaN right fixed point makes the gauge, and so the reconstruction,
    # NaN; no tensor scan stands in the way, so the miss must compare false
    # with the threshold and keep the two tensors apart.
    from lrn_detect.spectral import transfer_spectral

    t = random_normal_tensor(2, 2, seed=7)
    t = t.scaled(1.0 / math.sqrt(transfer_spectral(t).radius))
    r = canonical.normality_witness(transfer_spectral(t)).right_fixed_point
    assert canonical._gauge_relation(t, t, 1.0, 1.0, r, canonical.TAU_GROUP) is not None
    r = r.copy()
    r[0, 1] = np.nan
    with np.errstate(invalid="ignore"):  # the NaN pivot's phase
        assert canonical._gauge_relation(t, t, 1.0, 1.0, r, canonical.TAU_GROUP) is None
