"""Shared test fixtures."""

import numpy as np
import pytest


@pytest.fixture
def count_linalg(monkeypatch):
    """Install counters on ``np.linalg`` functions, by default ``eig`` and ``eigvals``.

    Calling the fixture's value with the function names (none for the
    default pair) installs them and returns ``{name: [...]}``: the row count
    of every matrix handed to each function from then on, in call order.
    Build the inputs first, since building a random tensor calls
    ``eigvals`` too.
    """

    def install(*names):
        calls = {name: [] for name in names or ("eig", "eigvals")}
        for name, sizes in calls.items():
            original = getattr(np.linalg, name)

            def counted(a, *args, _sizes=sizes, _original=original, **kwargs):
                _sizes.append(np.shape(a)[0])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    return install


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
