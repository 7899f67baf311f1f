"""Entropy criterion, ratio criterion, family classification, counting."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrn_detect import (
    EXACT_SRN_EXCLUDED,
    INCONCLUSIVE,
    LRN_CERTIFIED,
    ExactWeight,
    WeightSpectrum,
    evaluate_weights,
    ghz_classify,
    lrn_entropy_check,
    shannon_entropy,
    srn_ratio_check,
    typicality_log_ratio,
)
from lrn_detect import criteria
from lrn_detect.errors import DegenerateNormalization, NotNormalized, OutOfRange
from lrn_detect.families import (
    counterexample_entropy,
    counterexample_exact_weights,
    counterexample_t_star,
)


def test_shannon_entropy_values():
    assert shannon_entropy([1.0]) == 0.0
    assert abs(shannon_entropy([0.5, 0.5]) - 1.0) < 1e-15
    assert abs(shannon_entropy([0.3, 0.7]) - 0.8812908992306927) < 1e-12


def test_shannon_entropy_rejects_bad_input():
    with pytest.raises(NotNormalized):
        shannon_entropy([0.3, 0.3])
    with pytest.raises(NotNormalized):
        shannon_entropy([1.5, -0.5])


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_shannon_entropy_permutation_invariant_and_bounded(raw):
    p = np.array(raw) / np.sum(raw)
    h = shannon_entropy(p)
    assert abs(h - shannon_entropy(p[::-1])) < 1e-12
    assert h <= math.log2(len(p)) + 1e-12


def test_shannon_entropy_maximized_at_uniform():
    for g in (2, 3, 5):
        assert abs(shannon_entropy([1.0 / g] * g) - math.log2(g)) < 1e-12
        tilted = np.full(g, 1.0 / g)
        tilted[0] += 0.01
        tilted[-1] -= 0.01
        assert shannon_entropy(tilted) < math.log2(g)


def test_counterexample_root_is_near_paper_value():
    t_star = counterexample_t_star()
    assert abs(t_star - 0.023) < 1e-3
    assert abs(counterexample_entropy(t_star) - 1.0) < 1e-6


def test_entropy_check_ghz_03_certifies():
    v = lrn_entropy_check(WeightSpectrum.constant([math.sqrt(0.3), math.sqrt(0.7)]))
    assert v.status == LRN_CERTIFIED
    assert abs(v.evidence["classes"][0]["entropy"] - 0.8812908992306927) < 1e-9


def test_entropy_check_ghz_half_inconclusive():
    v = lrn_entropy_check(WeightSpectrum.constant([math.sqrt(0.5), math.sqrt(0.5)]))
    assert v.status == INCONCLUSIVE


def test_entropy_check_single_block():
    v = lrn_entropy_check(WeightSpectrum.constant([1.0]))
    assert v.status == INCONCLUSIVE
    assert v.evidence["entropy"] == 0.0


@pytest.mark.parametrize("tau_int", [-1.0, 0.0, 0.5, math.nan, math.inf])
@pytest.mark.parametrize("weights", [[1.0, 1.0], [1.0]], ids=["two_blocks", "one_block"])
def test_entropy_check_refuses_a_tolerance_outside_its_range(tau_int, weights):
    # Integer distances lie in [0, 0.5]: a tolerance of zero or below would
    # certify the integer entropy of two equal weights, one of 0.5 or above
    # could never certify, and NaN would read INCONCLUSIVE without a word.
    with pytest.raises(OutOfRange):
        lrn_entropy_check(WeightSpectrum.constant(weights), tau_int=tau_int)


def test_entropy_check_commensurate_classes():
    # phases +-pi/2: period 4, odd sizes collapse onto a single block (H = 0)
    w = WeightSpectrum(
        terms=(((1.0, 0.0),), ((1.0, math.pi / 2), (1.0, -math.pi / 2)))
    )
    v = lrn_entropy_check(w)
    assert v.status == INCONCLUSIVE
    assert v.evidence["mode"] == "commensurate"
    assert v.evidence["period"] == 4
    by_residue = {c["residue"]: c for c in v.evidence["classes"]}
    assert abs(by_residue[0]["entropy"] - shannon_entropy([0.2, 0.8])) < 1e-12
    assert abs(by_residue[1]["entropy"]) < 1e-15
    assert v.residue_class is not None and v.residue_class[0] == 4


def test_entropy_check_incommensurate_window(monkeypatch):
    monkeypatch.setattr(criteria, "N_WINDOW", (50, 120))
    w = WeightSpectrum(terms=(((1.0, 0.0),), ((1.0, 1.0), (1.0, -1.0))))
    v = lrn_entropy_check(w)
    assert v.evidence["mode"] == "incommensurate"
    assert v.evidence["entropy_inf"] <= v.evidence["entropy_sup"]


def test_entropy_check_caps_the_period():
    # Periods 9973 and 9967 are coprime: 99,400,891 residue classes.  The
    # weights have constant moduli, so the window sweep alone would certify;
    # a capped period must stay inconclusive.
    p1, p2 = 2 * math.pi / 9973, 2 * math.pi / 9967
    w = WeightSpectrum(terms=(((1.0, 0.0),), ((1.0, p1),), ((0.5, p2),)))
    v = lrn_entropy_check(w)
    assert v.status == INCONCLUSIVE
    assert v.evidence["mode"] == "period_capped"
    assert v.evidence["period"] == 9973 * 9967
    assert v.evidence["period_cap"] == 10**4
    assert v.evidence["window"] == [1000, 2000]
    assert v.evidence["min_distance"] > 1e-6
    assert v.residue_class is None
    # A period of 997 is still enumerated class by class.
    w = WeightSpectrum(terms=(((1.0, 0.0),), ((1.0, 2 * math.pi * 7 / 997),)))
    v = lrn_entropy_check(w)
    assert v.evidence["mode"] == "commensurate"
    assert v.evidence["period"] == 997
    assert len(v.evidence["classes"]) == 997


def test_entropy_check_propagates_degenerate():
    # Every weight vanishes at every size: there is no residue to evaluate.
    w = WeightSpectrum(terms=(((1.0, math.pi), (-1.0, math.pi)), ((0.0, 0.0),)))
    with pytest.raises(DegenerateNormalization, match="every residue mod 2") as info:
        lrn_entropy_check(w)
    assert info.value.payload == {"period": 2}


def test_entropy_check_skips_empty_residues():
    # 1 + (-1)^N vanishes at odd N, where the family has no state: residue 1
    # is listed as empty, not read as an error or as entropy 0.
    w = WeightSpectrum(terms=(((1.0, 0.0), (1.0, math.pi)), ((0.0, 0.0),)))
    v = lrn_entropy_check(w)
    assert v.status == INCONCLUSIVE
    assert v.evidence["empty_residues"] == [1]
    assert [(c["residue"], c["n"], c["entropy"]) for c in v.evidence["classes"]] == [(0, 2, 0.0)]
    assert v.residue_class == (2, 0)


def test_ratio_check_counterexample_excluded():
    v = srn_ratio_check(counterexample_exact_weights())
    assert v.status == EXACT_SRN_EXCLUDED
    off = v.evidence["offending_pair"]
    assert off["ratio"] == "3^(1/2)"
    assert abs(off["value"] - math.sqrt(3)) < 1e-9


def test_ratio_check_equal_weights_inconclusive():
    v = srn_ratio_check([ExactWeight.from_rational(1, 2)] * 2)
    assert v.status == INCONCLUSIVE


def test_ratio_check_rational_pair():
    v = srn_ratio_check(
        [ExactWeight.from_rational(1, 3), ExactWeight.from_rational(2, 3)]
    )
    assert v.status == INCONCLUSIVE
    assert v.evidence["pairs"][0]["ratio"] == "1/4"


def test_ratio_check_floats_never_certify():
    # sqrt(3) ratio fed as floats: heuristic only, stays inconclusive
    v = srn_ratio_check(
        [ExactWeight.from_float(0.1), ExactWeight.from_float(3 ** (-0.25) / 10)]
    )
    assert v.status == INCONCLUSIVE
    assert v.evidence["pairs"][0]["method"] == "heuristic"


@pytest.mark.parametrize("zero", [
    ExactWeight.from_rational(0, 1),
    ExactWeight.from_root(Fraction(0), Fraction(2), 4),
    ExactWeight.from_float(0.0),
], ids=["rat", "root", "float"])
def test_ratio_check_skips_a_weight_that_is_zero(zero):
    v = srn_ratio_check([zero, ExactWeight.from_rational(1, 2)])
    assert v.status == INCONCLUSIVE
    assert v.evidence["pairs"] == [{"pair": [0, 1], "skipped": "vanishing weight"}]


def test_ratio_check_needs_two_blocks():
    with pytest.raises(OutOfRange):
        srn_ratio_check([ExactWeight.from_rational(1, 1)])


def test_ghz_classify_labels():
    assert ghz_classify(0.0) == "STABILIZER"
    assert ghz_classify(1.0) == "STABILIZER"
    assert ghz_classify(0.5) == "SRN"
    assert ghz_classify(0.3) == "LRN"
    assert ghz_classify(ExactWeight.from_rational(1, 2)) == "SRN"
    assert ghz_classify(ExactWeight.from_rational(2, 7)) == "LRN"
    with pytest.raises(OutOfRange):
        ghz_classify(1.2)


def test_ghz_classify_agrees_with_entropy_check():
    for k in range(0, 101, 7):
        a = k / 100.0
        label = ghz_classify(a)
        weights = WeightSpectrum.constant([math.sqrt(a), math.sqrt(1.0 - a)])
        status = lrn_entropy_check(weights).status
        assert (label == "LRN") == (status == LRN_CERTIFIED)


def test_typicality_signs():
    assert typicality_log_ratio(30) < 0.0
    assert math.isfinite(typicality_log_ratio(4))  # small-N value reported, not asserted
    vals = [typicality_log_ratio(n) for n in range(20, 41)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v < 0 for v in vals)
    with pytest.raises(OutOfRange):
        typicality_log_ratio(1)


def test_ratio_check_verdict_scaling_invariance():
    from fractions import Fraction

    base = counterexample_exact_weights()
    scaled = [
        ExactWeight.from_rational(3, 70),
        ExactWeight.from_root(Fraction(3, 70), Fraction(1, 3), 4),
        ExactWeight.from_float(base[2].value() * 3 / 7),
        ExactWeight.from_float(base[3].value() * 3 / 7),
    ]
    assert srn_ratio_check(base).status == srn_ratio_check(scaled).status
    rational_pair = [ExactWeight.from_rational(1, 3), ExactWeight.from_rational(2, 3)]
    scaled_pair = [ExactWeight.from_rational(5, 21), ExactWeight.from_rational(10, 21)]
    assert srn_ratio_check(rational_pair).status == srn_ratio_check(scaled_pair).status


def test_typicality_overflow_returns_negative_infinity():
    assert typicality_log_ratio(1200) == -math.inf


def test_entropy_check_mixed_phases_uses_window(monkeypatch):
    # one rational phase, one irrational: no finite period exists
    monkeypatch.setattr(criteria, "N_WINDOW", (40, 80))
    w = WeightSpectrum(
        terms=(((1.0, math.pi / 2),), ((1.0, 1.0),), ((1.0, 0.0),))
    )
    v = lrn_entropy_check(w)
    assert v.evidence["mode"] == "incommensurate"


def _scalar_entropy(w, n):
    """Reference: weights and entropy at one size in plain Python arithmetic."""
    alpha = [sum(c * cmath.exp(1j * p * n) for c, p in block) for block in w.terms]
    mod_sq = [abs(a) ** 2 for a in alpha]
    probs = [m / sum(mod_sq) for m in mod_sq]
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def test_entropy_sweeps_match_per_size_reference(monkeypatch):
    # Both sweeps (every residue class, and the window) evaluate all sizes in
    # one array pass; each entry must match a size-by-size evaluation.
    monkeypatch.setattr(criteria, "N_WINDOW", (300, 700))
    rng = np.random.default_rng(17)
    for trial in range(12):
        blocks = []
        for _ in range(int(rng.integers(2, 6))):
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                c = complex(rng.standard_normal(), rng.standard_normal())
                if trial % 2:
                    phase = float(rng.uniform(-math.pi, math.pi))
                else:
                    q = int(rng.integers(2, 30))
                    phase = 2 * math.pi * int(rng.integers(1, q)) / q
                terms.append((c, phase))
            blocks.append(tuple(terms))
        w = WeightSpectrum(terms=tuple(blocks))
        v = lrn_entropy_check(w)
        if v.evidence["mode"] == "commensurate":
            for c in v.evidence["classes"]:
                ref = _scalar_entropy(w, c["n"])
                assert abs(c["entropy"] - ref) <= 1e-14
                assert c["n"] == (c["residue"] or v.evidence["period"])
            assert len(v.evidence["classes"]) == v.evidence["period"]
        else:
            ref = [_scalar_entropy(w, n) for n in range(300, 701)]
            assert abs(v.evidence["entropy_inf"] - min(ref)) <= 1e-14
            assert abs(v.evidence["entropy_sup"] - max(ref)) <= 1e-14
            dist = [abs(h - round(h)) for h in ref]
            assert abs(v.evidence["min_distance"] - min(dist)) <= 1e-14
            hits = [n for n, d in zip(range(300, 701), dist) if d <= 1e-6]
            assert v.evidence.get("first_integer_hit_n") == (hits[0] if hits else None)


def test_weight_sweep_names_the_first_vanishing_size():
    w = WeightSpectrum(terms=(((1.0, 0.0), (1.0, math.pi)), ((0.0, 0.0),)))
    with pytest.raises(DegenerateNormalization, match="at N=1;"):
        evaluate_weights(w, np.array([2, 1]))
    with pytest.raises(DegenerateNormalization, match="at N=3;"):
        evaluate_weights(w, np.array([4, 6, 3, 5]))
    rows = evaluate_weights(w, np.array([2, 4, 6]))
    assert rows.shape == (3, 2)
    for n, row in zip((2, 4, 6), rows):
        assert np.array_equal(row, evaluate_weights(w, n))
