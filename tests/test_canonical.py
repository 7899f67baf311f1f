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
)
from lrn_detect.criteria import LRN_CERTIFIED
from lrn_detect.errors import DecompositionFailure
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


def test_decompose_decomposes_each_fixed_point_once(count_linalg):
    # ghz: one eigh per one-sided fixed point, the right one reused for the
    # unital gauge, and one for the fixed-point algebra cut.  Its two parts
    # are scalars, whose spectra, fixed points and witnesses are arithmetic.
    # A normal tensor's witness takes the eigenvalues of its two fixed points
    # from their Hermitian rotation, one eigvalsh each, and certifies it
    # before any split is tried, so it runs no eigh.  No gauge is assembled,
    # so no condition number is taken.
    ghz = ghz_tensor()
    normal = random_normal_tensor(2, 8, seed=8)
    calls = count_linalg("eigvals", "eigh", "eigvalsh", "cond")
    canonical_decompose(ghz)
    assert calls == {"eigvals": [4], "eigh": [2, 2, 2], "eigvalsh": [], "cond": []}
    calls = count_linalg("eigvals", "eigh", "eigvalsh", "cond")
    canonical_decompose(normal)
    assert calls == {"eigvals": [64], "eigh": [], "eigvalsh": [8, 8], "cond": []}


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
    name, count_linalg, composite_draw, monkeypatch
):
    # Each transfer spectrum of a tensor with chi > 1 takes one real
    # eigvals; each gauge test of two such tensors takes one complex eigvals
    # of its mixed transfer matrix.  A scalar operator is its own spectrum.
    tensor = composite_draw(0) if name == "composite" else _REAL_FORM_CASES[name]()
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
