"""Weight spectra and their evaluation."""

import math

import numpy as np
import pytest

from lrn_detect import WeightSpectrum, evaluate_weights
from lrn_detect.errors import DegenerateNormalization
from lrn_detect.weights import wrap_phase
from oracles import weight_spectrum_from_json


def test_wrap_phase_interval():
    for phi in (-7.0, -math.pi, 0.0, math.pi, 9.42, 2 * math.pi):
        w = wrap_phase(phi)
        assert -math.pi < w <= math.pi
        assert abs((math.cos(w) - math.cos(phi))) < 1e-12


def test_ghz_equal_weights():
    w = WeightSpectrum.constant([1.0, 1.0])
    for n in (1, 2, 9):
        assert np.allclose(evaluate_weights(w, n), [0.5, 0.5])


def phase_pair_spectrum(phi):
    # order: (|0...0> block, merged phase pair)
    return WeightSpectrum(terms=(((1.0, 0.0),), ((1.0, phi), (1.0, -phi))))


def test_phase_pair_pi():
    w = phase_pair_spectrum(math.pi)
    # |2 cos(pi N)|^2 = 4 at every integer N, even or odd.
    for n in (2, 4, 3, 7):
        assert np.allclose(evaluate_weights(w, n), [0.2, 0.8], atol=1e-12)


def test_phase_pair_half_pi_odd_vanishes():
    w = phase_pair_spectrum(math.pi / 2)
    assert np.allclose(evaluate_weights(w, 3), [1.0, 0.0], atol=1e-12)
    assert np.allclose(evaluate_weights(w, 4), [0.2, 0.8], atol=1e-12)


def test_degenerate_normalization_raises():
    w = WeightSpectrum(terms=(((1.0, 0.0), (1.0, math.pi)),))
    with pytest.raises(DegenerateNormalization):
        evaluate_weights(w, 3)  # 1 + (-1)^3 = 0: the family vanishes here
    assert np.allclose(evaluate_weights(w, 4), [1.0])


def test_json_round_trip():
    w = WeightSpectrum(
        terms=(((0.3 + 0.1j, 0.4),), ((1.0, 1.2), (2.0, -0.7))),
        labels=("g0", "g1"),
    )
    again = weight_spectrum_from_json(w.to_json())
    assert again == w


def test_amplitudes_requires_positive_n():
    with pytest.raises(ValueError):
        WeightSpectrum.constant([1.0]).amplitudes(0)


def test_probability_invariant_random_spectra():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    term = st.tuples(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False,
                           allow_infinity=False),
        st.floats(-3.1, 3.1),
    )
    blocks = st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=4)

    @given(blocks, st.integers(1, 50))
    @settings(max_examples=150, deadline=None)
    def run(raw, n):
        w = WeightSpectrum(terms=tuple(tuple(b) for b in raw))
        try:
            p = evaluate_weights(w, n)
        except DegenerateNormalization:
            return
        assert np.all(p >= 0.0) and np.all(p <= 1.0 + 1e-12)
        assert abs(float(np.sum(p)) - 1.0) < 1e-9

    run()
