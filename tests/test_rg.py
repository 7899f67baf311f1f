"""Coarse-graining step and fixed-point extraction."""

import itertools
import json
import math

import numpy as np
import pytest

from lrn_detect import (
    MpsTensor,
    canonical_decompose,
    evaluate_weights,
    materialize_fixed_point,
    rg_fixed_point,
    transfer_matrix,
    transfer_spectral,
)
from lrn_detect import rg
from lrn_detect.cli import main
from lrn_detect.errors import RankTolerance, SizeCap
from lrn_detect.families import (
    ghz_tensor,
    pattern_tensor,
    phase_loop_tensor,
    random_normal_tensor,
)
from lrn_detect.io import save_tensor
from lrn_detect.spectral import normality_witness
from oracles import materialize_mps, rg_step, subsystem_entropy


def test_rg_step_product_tensor():
    step = rg_step(pattern_tensor([0], [1.0], 2))
    assert step.tensor.phys_dim == 1
    assert np.allclose(step.tensor.matrices, [[[1.0]]])
    assert np.allclose(step.isometry.conj().T @ step.isometry, np.eye(1))


def test_rg_step_ghz_is_fixed():
    step = rg_step(ghz_tensor())
    assert step.tensor.phys_dim == 2
    assert np.allclose(step.isometry.conj().T @ step.isometry, np.eye(2), atol=1e-12)
    # reconstruction: V A' equals the two-site tensor
    two = np.einsum("ja,abc->jbc", step.isometry,
                    step.tensor.matrices.reshape(2, 4)[:, :].reshape(2, 2, 2))
    # the generated family is unchanged
    for n in (2, 3, 4):
        a = materialize_mps(step.tensor, n)
        b = materialize_mps(ghz_tensor(), n)
        assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - 1.0) < 1e-12


def assert_multiset_close(xs, ys, atol):
    xs, ys = list(xs), list(ys)
    assert len(xs) == len(ys)
    for x in xs:
        j = int(np.argmin(np.abs(np.array(ys) - x)))
        assert abs(ys[j] - x) < atol, (x, ys[j])
        ys.pop(j)


def test_rg_step_transfer_squares():
    t = random_normal_tensor(2, 3, seed=1)
    step = rg_step(t)
    lhs = np.linalg.eigvals(transfer_matrix(step.tensor))
    rhs = np.linalg.eigvals(transfer_matrix(t)) ** 2
    assert_multiset_close(lhs, rhs, atol=1e-8)


def test_rg_iteration_kills_correlations():
    t = random_normal_tensor(2, 2, seed=9)
    t = t.scaled(1.0 / math.sqrt(transfer_spectral(t).radius))
    lam2 = transfer_spectral(t).subleading_modulus
    for _ in range(20):
        t = rg_step(t).tensor
        t = t.scaled(1.0 / math.sqrt(transfer_spectral(t).radius))
        new = transfer_spectral(t).subleading_modulus
        assert new <= lam2**2 + 1e-8
        lam2 = new
        if lam2 == 0.0:
            break
    assert lam2 < 1e-12


def test_rg_step_rank_tolerance():
    # second block weight 1e-5 puts a squared singular value right at 1e-10
    t = pattern_tensor([0, 1], [1.0, 1e-5], d=2)
    with pytest.raises(RankTolerance):
        rg_step(t)


def test_rg_step_phys_cap():
    with pytest.raises(SizeCap):
        rg_step(pattern_tensor([0], [1.0], 70))


def test_fixed_point_ghz():
    fp = rg_fixed_point(ghz_tensor())
    assert len(fp.blocks) == 2
    for b in fp.blocks:
        assert np.allclose(b.schmidt_weights, [1.0])
        assert b.tensor.phys_dim == 2  # lambda2 = 0: each block keeps its tensor
    assert np.allclose(evaluate_weights(fp.weights, 12), [0.5, 0.5])


def test_fixed_point_random_normal_schmidt():
    t = random_normal_tensor(2, 2, seed=21)
    fp = rg_fixed_point(t)
    assert len(fp.blocks) == 1
    lam = fp.blocks[0].schmidt_weights
    assert abs(float(np.sum(lam)) - 1.0) < 1e-12
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) <= 1e-15)  # descending
    assert fp.blocks[0].tensor.phys_dim == lam.size**2  # the pair tensor
    # the converged tensor satisfies the fixed-point gauge: L = I, R = diag(lam)
    from lrn_detect import is_normal

    wit = is_normal(fp.blocks[0].tensor)
    assert wit
    chi = fp.blocks[0].tensor.bond_dim
    assert np.allclose(wit.left_fixed_point, np.eye(chi) / chi, atol=1e-8)


def test_fixed_point_phase_loop_weight_terms():
    phi = math.pi / 3
    fp = rg_fixed_point(phase_loop_tensor(phi))
    assert len(fp.blocks) == 2
    term_sets = {len(block) for block in fp.weights.terms}
    assert term_sets == {1, 2}
    pair = next(block for block in fp.weights.terms if len(block) == 2)
    phases = sorted(p for _, p in pair)
    assert np.allclose(phases, [-phi, phi], atol=1e-8)


@pytest.mark.parametrize("builder,arg", [
    (lambda: ghz_tensor(), None),
    (lambda: phase_loop_tensor(math.pi / 3), None),
    (lambda: pattern_tensor([0], [1.0], 2), None),
])
def test_fixed_point_materialization_matches_trace_route(builder, arg):
    t = builder()
    fp = rg_fixed_point(t)
    for n in (3, 6, 8):
        link = materialize_fixed_point(fp, n)
        trace = materialize_mps(t, n)
        assert abs(abs(np.vdot(link.amplitudes, trace.amplitudes)) - 1.0) < 1e-10


def test_materialize_fixed_point_rejects_mixed_dims():
    # A correlated bond-2 block needs flow steps (physical dimension grows to
    # 4) while the product block stays at d = 2: no common site space.
    import cmath

    from lrn_detect import materialize_fixed_point
    from lrn_detect.errors import DimensionMismatch

    corr = random_normal_tensor(2, 2, seed=9)
    corr = corr.scaled(1.0 / math.sqrt(transfer_spectral(corr).radius))
    mats = np.zeros((2, 3, 3), dtype=complex)
    mats[:, :2, :2] = corr.matrices
    mats[0, 2, 2] = cmath.exp(0.4j)
    from lrn_detect.tensor import MpsTensor

    fp = rg_fixed_point(MpsTensor(mats))
    assert len(fp.blocks) == 2
    assert {b.tensor.phys_dim for b in fp.blocks} == {2, 4}
    with pytest.raises(DimensionMismatch):
        materialize_fixed_point(fp, 4)


def _scrambled_composite(seed, specs):
    """Block-diagonal sum of normal blocks ``(d, chi, mu)`` behind a random gauge."""
    rng = np.random.default_rng(seed)
    d = specs[0][0]
    dim = sum(chi for _, chi, _ in specs)
    mats = np.zeros((d, dim, dim), dtype=complex)
    off = 0
    for _, chi, mu in specs:
        t = random_normal_tensor(d, chi, seed=int(rng.integers(2**31)))
        t = t.scaled(mu / math.sqrt(transfer_spectral(t).radius))
        mats[:, off : off + chi, off : off + chi] = t.matrices
        off += chi
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x += 2.5 * dim * np.eye(dim)
    return MpsTensor(np.einsum("ab,ibc,cd->iad", np.linalg.inv(x), mats, x))


_CLOSED_FORM_CASES = {
    **{f"normal_d{d}_chi{chi}": lambda d=d, chi=chi: random_normal_tensor(
        d, chi, seed=100 + 10 * chi + d)
       for d, chi in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5),
                      (3, 5), (2, 6), (3, 6), (2, 7), (2, 8), (3, 8)]},
    "composite_3_2_decay": lambda: _scrambled_composite(
        5, [(2, 3, 1.0), (2, 2, 1.0), (2, 2, 0.7)]),
    "composite_2_4_1": lambda: _scrambled_composite(
        6, [(3, 2, 1.0), (3, 4, -1.0), (3, 1, 1.0)]),
}


def _flow_oracle(rep, tol=1e-12, max_steps=60):
    """Iterate ``rg_step`` on a canonical block until its lambda2 drops below ``tol``.

    The independent route to the fixed point: each step coarse-grains the
    tensor, rescales it to transfer radius one and measures the subleading
    modulus from a fresh factorization.  Returns the converged tensor in the
    CF II gauge (L = 1, R = diag(lam)), its Schmidt weights ``lam`` and the
    measured lambda2 before the first and after every step.
    """
    x, _ = rep.witness.fixed_point_gauge()
    t = rep.tensor.gauged(x)
    history = []
    while True:
        s = transfer_spectral(t)
        t = t.scaled(1.0 / math.sqrt(s.radius))
        history.append(s.subleading_modulus / s.radius)
        if history[-1] < tol:
            break
        assert len(history) <= max_steps
        t = rg_step(t).tensor
    x, lam = normality_witness(s).fixed_point_gauge()
    return t.gauged(x), lam, history


def _oracle_of(t, block):
    """The flow oracle on the representative of ``block``'s group in ``t``."""
    return _flow_oracle(canonical_decompose(t).surviving_groups()[block.label][0])


@pytest.mark.parametrize("case", sorted(_CLOSED_FORM_CASES))
def test_closed_form_schmidt_weights_match_flow(case):
    # The flow, iterated here, is the oracle for the closed-form weights.
    t = _CLOSED_FORM_CASES[case]()
    fp = rg_fixed_point(t)
    groups = canonical_decompose(t).surviving_groups()
    assert [b.label for b in fp.blocks] == list(groups)
    for b in fp.blocks:
        _, lam, _ = _flow_oracle(groups[b.label][0])
        assert lam.shape == b.schmidt_weights.shape
        assert np.max(np.abs(lam - b.schmidt_weights)) < 1e-12


@pytest.mark.parametrize("chi,seed", [(2, 21), (2, 9), (3, 7), (3, 4), (4, 3), (4, 7)])
def test_pair_tensor_matches_flow_limit(chi, seed, monkeypatch, tmp_path, capsys):
    tol = 1e-12
    monkeypatch.setattr(rg, "RG_TOL", tol)
    t = random_normal_tensor(2, chi, seed=seed)
    fp = rg_fixed_point(t)
    (b,) = fp.blocks
    (rep,) = canonical_decompose(t).surviving_groups()[b.label]
    limit, _, measured = _flow_oracle(rep)
    # The analytic trace squares the first lambda2 at every step, to the
    # least step count that brings it below tol; the flow measures it.
    lam2 = rep.witness.lambda2
    steps = next(k for k in itertools.count() if lam2 ** (2**k) < tol)
    trace = [lam2 ** (2**j) for j in range(steps + 1)]
    assert steps > 0 and b.tensor.phys_dim == chi * chi
    # Same transfer matrix |R)(L| as the flow's converged tensor.
    e_pair = transfer_matrix(b.tensor)
    e_flow = transfer_matrix(limit)
    assert np.max(np.abs(e_pair - e_flow)) < 1e-12
    for analytic, seen in zip(trace, measured):
        assert abs(analytic - seen) < 1e-10
    # Step counts agree unless a value sits too close to tol to call.
    if not any(tol / 10 < v < 10 * tol for v in trace):
        assert steps == len(measured) - 1
    # analyze reports the lambda2 the whole trace follows from.
    save_tensor(tmp_path / "t.json", t)
    assert main(["--pipeline", "analyze", "--input", str(tmp_path / "t.json")]) == 3
    (entry,) = json.loads(capsys.readouterr().out)["fixed_point"]
    assert abs(entry["lambda2"] - measured[0]) < 1e-10


@pytest.mark.parametrize("chi,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_materialized_pair_fixed_point_matches_flow_limit(chi, n):
    t = random_normal_tensor(2, chi, seed=40 + chi)
    fp = rg_fixed_point(t)
    (b,) = fp.blocks
    assert b.tensor.phys_dim == chi * chi  # the pair tensor
    limit, _, _ = _oracle_of(t, b)
    link = materialize_fixed_point(fp, n)
    trace = materialize_mps(limit, n)
    # The physical bases differ by a unitary on each site, which leaves
    # every region's entropy unchanged.
    for start in range(n):
        for length in range(1, n):
            region = [(start + k) % n for k in range(length)]
            assert abs(subsystem_entropy(link, region)
                       - subsystem_entropy(trace, region)) < 1e-10, region


@pytest.mark.parametrize(
    "name,eigvals_sizes,eig_sizes",
    [("ghz", [4], [2, 2]), ("loop_pi3", [9], [3, 3]), ("chi4", [16], [])],
    ids=["ghz", "loop_pi3", "chi4"],
)
def test_flow_reads_first_lambda2_from_witness(name, eigvals_sizes, eig_sizes, count_linalg):
    # canonical_decompose already factorized every block; the fixed point
    # takes lambda2 and the Schmidt weights from the carried witnesses and
    # factorizes nothing else.  Each transfer matrix of chi > 1 gets one
    # eigvals, and a scalar block none; eig runs only on the Ritz matrix of a
    # degenerate peripheral cluster, once per inverse-iteration sweep.
    tensor = {
        "ghz": ghz_tensor,
        "loop_pi3": lambda: phase_loop_tensor(math.pi / 3),
        "chi4": lambda: random_normal_tensor(2, 4, seed=3),
    }[name]()
    calls = count_linalg()
    groups = canonical_decompose(tensor).surviving_groups()
    assert sorted(calls["eigvals"]) == eigvals_sizes
    assert calls["eig"] == eig_sizes
    calls["eigvals"].clear()
    calls["eig"].clear()
    fp = rg_fixed_point(tensor)
    assert sorted(calls["eigvals"]) == eigvals_sizes
    assert calls["eig"] == eig_sizes
    # A block keeps its own tensor exactly when its witness's lambda2 is
    # below RG_TOL; otherwise it gets the pair tensor of its weights.
    for b in fp.blocks:
        rep = groups[b.label][0]
        own = rep.witness.lambda2 < rg.RG_TOL
        assert b.tensor.phys_dim == (rep.tensor.phys_dim if own else b.schmidt_weights.size**2)
