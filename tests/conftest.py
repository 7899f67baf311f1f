"""Shared test fixtures."""

import tracemalloc

import numpy as np
import pytest


def _traced_peak(fn):
    """``(fn(), peak)``: the result and the tracemalloc peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The helper ``fn -> (fn(), peak bytes)`` that traces one call's allocations."""
    return _traced_peak


class _Calls(dict):
    """``{name: [row count, ...]}`` with the matching dtypes in ``dtypes``."""

    def __init__(self, names):
        super().__init__((name, []) for name in names)
        self.dtypes = {name: [] for name in names}


@pytest.fixture
def count_linalg(monkeypatch):
    """Install counters on ``np.linalg`` functions, by default ``eig`` and ``eigvals``.

    Calling the fixture's value with the function names (none for the
    default pair) installs them and returns ``{name: [...]}``: the row count
    of every matrix handed to each function from then on, in call order.
    Its ``dtypes`` attribute holds the matrices' dtypes the same way.
    Build the inputs first, since building a random tensor calls
    ``eigvals`` too.
    """

    def install(*names):
        calls = _Calls(names or ("eig", "eigvals"))
        for name, sizes in calls.items():
            original = getattr(np.linalg, name)

            def counted(a, *args, _sizes=sizes, _dtypes=calls.dtypes[name],
                        _original=original, **kwargs):
                _sizes.append(np.shape(a)[0])
                _dtypes.append(np.asarray(a).dtype)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    return install


def _same_canonical(cf_a, cf_b):
    """Assert that two canonical forms describe the same decomposition.

    Compares the blocking, the number of groups, the multiset of blocks by
    ``(bond_dim, surviving, |mu|)`` and the multiset of the surviving
    groups' Schmidt weights, floats to 1e-12.  Block and group order, and
    so group labels and relative phases, are not compared: they follow the
    eigensolver's output order where the eigenvalue-1 space is degenerate.
    """
    assert cf_a.blocking == cf_b.blocking, (cf_a.blocking, cf_b.blocking)
    assert cf_a.num_groups == cf_b.num_groups, (cf_a.num_groups, cf_b.num_groups)

    def blocks(cf):
        return sorted((b.tensor.bond_dim, b.surviving, abs(b.mu)) for b in cf.blocks)

    ba, bb = blocks(cf_a), blocks(cf_b)
    assert [k[:2] for k in ba] == [k[:2] for k in bb], (ba, bb)
    assert all(abs(x[2] - y[2]) <= 1e-12 for x, y in zip(ba, bb)), (ba, bb)

    def weights(cf):
        return sorted((len(lam), list(lam)) for lam in cf.schmidt_weights().values())

    wa, wb = weights(cf_a), weights(cf_b)
    assert [n for n, _ in wa] == [n for n, _ in wb], (wa, wb)
    for (_, x), (_, y) in zip(wa, wb):
        assert np.max(np.abs(np.subtract(x, y))) <= 1e-12, (x, y)


@pytest.fixture
def same_canonical():
    """The comparator ``(cf_a, cf_b) -> None`` of canonical forms; asserts."""
    return _same_canonical


def _random_block(rng, d, chi):
    """Gaussian site tensor scaled to transfer spectral radius one."""
    mats = rng.standard_normal((d, chi, chi)) + 1j * rng.standard_normal((d, chi, chi))
    e = np.einsum("iab,icd->acbd", mats, mats.conj()).reshape(chi * chi, chi * chi)
    return mats / np.sqrt(np.max(np.abs(np.linalg.eigvals(e))))


def _random_gauge(rng, chi):
    """Invertible matrix with condition number at most four."""
    q1 = np.linalg.qr(rng.standard_normal((chi, chi)) + 1j * rng.standard_normal((chi, chi)))[0]
    q2 = np.linalg.qr(rng.standard_normal((chi, chi)) + 1j * rng.standard_normal((chi, chi)))[0]
    return q1 @ np.diag(rng.uniform(0.5, 2.0, chi)) @ q2


def _copy_composite(rng, d, chis, copy_phase):
    """Gauge-scrambled direct sum of random normal blocks, the first doubled.

    Built like the benchmark's composites: Gaussian blocks of bond
    dimensions ``chis`` at transfer radius one with random unit phases, in
    random order, behind a gauge of condition number at most four.  One more
    block is the gauge copy ``copy_phase * Y B Y^-1`` of the first block
    ``B``, so the peripheral spectrum holds a degenerate eigenvalue one and
    ``copy_phase`` with its conjugate.  Draws everything from ``rng``.
    """
    from lrn_detect import MpsTensor

    blocks = [_random_block(rng, d, chi) * np.exp(2j * np.pi * rng.uniform()) for chi in chis]
    y = _random_gauge(rng, chis[0])
    blocks.append(copy_phase * np.einsum("ab,ibc,cd->iad", y, blocks[0], np.linalg.inv(y)))
    total = sum(chis) + chis[0]
    mats = np.zeros((d, total, total), dtype=complex)
    off = 0
    for k in rng.permutation(len(blocks)):
        c = blocks[k].shape[1]
        mats[:, off:off + c, off:off + c] = blocks[k]
        off += c
    return MpsTensor(mats).gauged(_random_gauge(rng, total))


@pytest.fixture
def copy_composite():
    """The builder ``(rng, d, chis, copy_phase) -> MpsTensor`` of gauge-copy composites."""
    return _copy_composite


@pytest.fixture
def composite_draw():
    """``seed -> MpsTensor``: a seeded gauge-copy composite.

    Drawn like the slow decomposition sweep: d 2-3, two or three blocks of
    bond dimension 2-3, and a copy phase 2 pi / q with q 2-6.
    """

    def draw(seed):
        rng = np.random.default_rng([12, seed])
        d = int(rng.integers(2, 4))
        chis = [int(c) for c in rng.integers(2, 4, size=int(rng.integers(2, 4)))]
        q = int(rng.integers(2, 7))
        return _copy_composite(rng, d, chis, np.exp(2j * np.pi / q))

    return draw


def _dressed_tensor(a, u1, u2):
    """Site tensor of U2 U1 |psi>, one site per two sites of the family |psi> of ``a``.

    Blocks two sites of ``a`` (physical dimension d**2, the first site most
    significant), applies the two-site gate ``u1`` inside each block, and
    splits ``u2``, which acts across each block boundary, by an
    operator-Schmidt SVD ``u2 = sum_s L_s ⊗ R_s``: the first site of a
    block takes ``R_s`` of the gate on its left boundary, the second takes
    ``L_s'`` of the gate on its right one, and the bond carries ``(alpha,
    s)``, so the bond dimension grows from chi to chi * d**2.  Gates are
    ``d**2 x d**2`` matrices on (left site, right site), the left site
    most significant.
    """
    from lrn_detect import MpsTensor

    d, chi = a.phys_dim, a.bond_dim
    pairs = np.einsum("iab,jbc->ijac", a.matrices, a.matrices).reshape(d * d, chi, chi)
    pairs = np.einsum("kl,lab->kab", u1, pairs).reshape(d, d, chi, chi)
    # u2[(a, b), (c, e)] regrouped as M[(a, c), (b, e)]: left site, then right site.
    m = u2.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    u, sv, vh = np.linalg.svd(m)
    left = (u * np.sqrt(sv)).T.reshape(-1, d, d)  # L_s[a, c]
    right = (np.sqrt(sv)[:, None] * vh).reshape(-1, d, d)  # R_s[b, e]
    r = len(sv)
    mats = np.einsum("sxj,tyk,jkab->xyasbt", right, left, pairs)
    return MpsTensor(mats.reshape(d * d, chi * r, chi * r))


@pytest.fixture
def dressed_tensor():
    """The builder ``(a, u1, u2) -> MpsTensor`` of circuit-dressed tensors."""
    return _dressed_tensor
