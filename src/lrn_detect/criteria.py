"""Verdicts on a weight spectrum: entropy criterion, ratio criterion,
GHZ-family classification, and the state-counting estimate.

The entropy criterion certifies long-range nonstabilizerness when the
Shannon entropy of the normalized block weights stays a definite distance
away from every integer; the ratio criterion excludes exact short-range
nonstabilizerness when some pair of fourth-power weights has a provably
irrational ratio.  Certificates of irrationality are only ever issued on
the symbolic path: floats cannot prove irrationality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateNormalization, NotNormalized, OutOfRange
from .exact import ExactWeight, best_rational, squared_ratio
from .weights import _NORM_FLOOR, WeightSpectrum, evaluate_weights

LRN_CERTIFIED = "LRN_CERTIFIED"
EXACT_SRN_EXCLUDED = "EXACT_SRN_EXCLUDED"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_TAU_INT = 1e-6
# System sizes swept when the weights have no enumerable period.
N_WINDOW = (1000, 2000)
# Rational phase detection: a phase / 2pi within PHASE_TAU of a fraction with
# denominator at most PHASE_Q_MAX counts as commensurate.
PHASE_Q_MAX = 10**4
PHASE_TAU = 1e-9
# Largest weight period whose residue classes are all evaluated.
_MAX_PERIOD = 10**4
# Continued-fraction tolerance of the heuristic (float) ratio guess.
RATIO_TAU = 1e-9
# Largest deviation of a probability vector's sum from one.
NORM_TOL = 1e-9
# Distance from 0, 1/2 and 1 that still labels a cat-family weight.
GHZ_TOL = 1e-12
# Round-off a probability may stray outside [0, 1] and still be accepted.
PROB_RANGE_TOL = 1e-12
# Relative phases at or below this modulus count as zero: no rotating term.
ZERO_PHASE_TOL = 1e-15


@dataclass(frozen=True)
class Verdict:
    """Outcome of a criterion with its supporting numbers.

    ``residue_class`` qualifies verdicts for families whose weights cycle
    with period ``s``: it reports ``(s, r)`` with ``r`` the residue whose
    entropy sits farthest from the integers.
    """

    status: str
    evidence: dict = field(default_factory=dict)
    residue_class: tuple[int, int] | None = None


def shannon_entropy(p) -> float:
    """Base-2 Shannon entropy of a probability vector (0 log 0 := 0)."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise NotNormalized("probability vector must be one-dimensional and nonempty")
    return float(_entropies(arr))


def _entropies(p: np.ndarray) -> np.ndarray:
    """Base-2 Shannon entropy of each row of ``p``, after the same checks."""
    if np.any(p < -PROB_RANGE_TOL) or np.any(p > 1.0 + PROB_RANGE_TOL):
        raise NotNormalized("probabilities must lie in [0, 1]")
    sums = np.sum(p, axis=-1)
    off = np.abs(sums - 1.0) > NORM_TOL
    if np.any(off):
        raise NotNormalized(f"probabilities sum to {float(sums[off].flat[0])}, not 1")
    logs = np.log2(np.where(p > 0.0, p, 1.0))  # log 1 = 0 drops the empty entries
    return 0.0 - np.sum(p * logs, axis=-1)  # a one-point row gives 0.0, not -0.0


def _integer_distance(h: np.ndarray) -> np.ndarray:
    """Elementwise distance to the nearest integer."""
    return np.abs(h - np.round(h))


def lrn_entropy_check(w: WeightSpectrum, tau_int: float = DEFAULT_TAU_INT) -> Verdict:
    """Sufficient criterion: non-integer weight entropy certifies LRN.

    When all phases are commensurate with 2*pi the weights cycle with a
    finite period ``s`` and the entropy is evaluated exactly on every
    residue class; certification requires every class to clear the
    integer-distance tolerance.  A residue at which every weight vanishes
    (below ``weights._NORM_FLOOR``) holds no state of the family: it is
    left out of the classes and listed under ``empty_residues``.  With
    incommensurate phases no limit exists; the entropy is swept over
    ``N_WINDOW`` and certification is granted only when the whole window
    clears the tolerance (a deliberately conservative reading).  Classes
    clearing the gap are
    reported either way, as subsequence metadata.  A commensurate period
    above ``_MAX_PERIOD`` is not enumerated: the window is swept instead and
    the verdict stays inconclusive, since a partial set of residue classes
    cannot certify.

    Raises:
        OutOfRange: unless ``0 < tau_int < 0.5``: no integer distance
            exceeds 0.5, and a tolerance of zero or below would certify an
            integer entropy.
        DegenerateNormalization: if every residue of a commensurate
            period is empty, or, in the window sweep, at the first size
            where every weight vanishes; carries the period or names the size.
    """
    if not 0.0 < tau_int < 0.5:
        raise OutOfRange(f"tau_int must lie in (0, 0.5), got {tau_int}")
    if w.num_blocks == 0:
        raise OutOfRange("weight spectrum has no blocks")
    if w.num_blocks == 1:
        return Verdict(
            status=INCONCLUSIVE,
            evidence={"entropy": 0.0, "distance": 0.0, "reason": "single block"},
        )

    phases = [p for p in w.phases() if abs(p) > ZERO_PHASE_TOL]
    fracs = [best_rational(p / (2 * math.pi), PHASE_Q_MAX, PHASE_TAU) for p in phases]

    s = None  # the weight period, when every phase is commensurate
    if all(f is not None for f in fracs):
        s = 1
        for f in fracs:
            s = math.lcm(s, f.denominator)

    if s is not None and s <= _MAX_PERIOD:
        reps = np.arange(s)
        reps[0] = s  # residue 0 is represented by N = s
        # A residue where every weight vanishes holds no state of the family.
        empty = np.all(np.abs(w.amplitudes(reps)) < _NORM_FLOOR, axis=-1)
        if np.all(empty):
            raise DegenerateNormalization(
                f"all block weights vanish at every residue mod {s}; "
                "the family has no state", period=s,
            )
        residues = np.flatnonzero(~empty)
        h = _entropies(evaluate_weights(w, reps[residues]))
        rows = zip(residues.tolist(), reps[residues].tolist(), h.tolist(),
                   _integer_distance(h).tolist())
        classes = [
            {"residue": r, "n": n_rep, "entropy": e, "distance": d}
            for r, n_rep, e, d in rows
        ]
        min_dist = min(c["distance"] for c in classes)
        best = max(classes, key=lambda c: c["distance"])
        evidence = {
            "mode": "commensurate",
            "period": s,
            "classes": classes,
            "min_distance": min_dist,
        }
        if residues.size < s:
            evidence["empty_residues"] = np.flatnonzero(empty).tolist()
        status = LRN_CERTIFIED if min_dist > tau_int else INCONCLUSIVE
        qualifier = (s, int(best["residue"])) if s > 1 else None
        return Verdict(status=status, evidence=evidence, residue_class=qualifier)

    if s is None:
        evidence = {"mode": "incommensurate"}
    else:
        # Too many residue classes to evaluate: the window is swept and
        # reported, but a partial set of classes never certifies.
        evidence = {"mode": "period_capped", "period": s, "period_cap": _MAX_PERIOD}
    lo, hi = N_WINDOW
    ns = np.arange(lo, hi + 1)
    h = _entropies(evaluate_weights(w, ns))
    dist = _integer_distance(h)
    min_dist = float(np.min(dist))
    evidence.update({
        "window": [lo, hi],
        "entropy_inf": float(np.min(h)),
        "entropy_sup": float(np.max(h)),
        "min_distance": min_dist,
    })
    hits = np.flatnonzero(dist <= tau_int)
    if hits.size:
        evidence["first_integer_hit_n"] = int(ns[hits[0]])
    certified = s is None and min_dist > tau_int
    return Verdict(status=LRN_CERTIFIED if certified else INCONCLUSIVE, evidence=evidence)


def srn_ratio_check(
    weights: Sequence[ExactWeight],
    q_max: int = 10**6,
) -> Verdict:
    """Necessary criterion for exact SRN: fourth-power ratios rational.

    ``weights`` are the squared block weights ``|alpha_k|**2``; the
    criterion inspects ``|alpha_i|**4 / |alpha_j|**4`` for every pair.
    Pairs of exact forms are decided symbolically; float pairs get a
    continued-fraction guess that is recorded as heuristic and never
    grounds an exclusion.
    """
    if len(weights) < 2:
        raise OutOfRange("ratio criterion needs at least two blocks")
    pairs = []
    offender = None
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            w_i, w_j = weights[i], weights[j]
            exact = w_i.is_exact and w_j.is_exact
            if exact:  # zero in its exact form: a float value can underflow
                vanishing = w_i.is_zero or w_j.is_zero
            else:
                vanishing = w_i.value() == 0.0 or w_j.value() == 0.0
            if vanishing:
                pairs.append({"pair": [i, j], "skipped": "vanishing weight"})
                continue
            if exact:
                dec = squared_ratio(w_i, w_j)
                entry = {
                    "pair": [i, j],
                    "method": "symbolic",
                    "rational": dec.rational,
                    "ratio": dec.describe(),
                    "value": dec.value(),
                }
                if not dec.rational and offender is None:
                    offender = entry
            else:
                x = _squared_ratio_float(w_i.value(), w_j.value())
                approx = best_rational(x, q_max, RATIO_TAU) if math.isfinite(x) else None
                entry = {
                    "pair": [i, j],
                    "method": "heuristic",
                    "value": x,
                    "rational": None if approx is None else True,
                }
                if approx is not None:
                    entry["approximation"] = [approx.numerator, approx.denominator]
            pairs.append(entry)
    evidence = {"pairs": pairs}
    if offender is not None:
        evidence["offending_pair"] = offender
        return Verdict(status=EXACT_SRN_EXCLUDED, evidence=evidence)
    return Verdict(status=INCONCLUSIVE, evidence=evidence)


def _squared_ratio_float(a: float, b: float) -> float:
    """``a**2 / b**2`` for nonzero floats; ``inf`` past the float range.

    A square that leaves the range is read from the square of the quotient.
    """
    try:
        return (a**2) / (b**2)
    except (OverflowError, ZeroDivisionError):
        try:
            return (a / b) ** 2
        except OverflowError:
            return math.inf


def ghz_classify(alpha_sq) -> str:
    """Classify the two-component product-state family by its weight.

    STABILIZER at weight 0 or 1, SRN at weight 1/2, LRN anywhere else.
    """
    if isinstance(alpha_sq, ExactWeight):
        x = alpha_sq.value()
        if alpha_sq.kind == "rational":
            if alpha_sq.rational in (0, 1):
                return "STABILIZER"
            if alpha_sq.rational == Fraction(1, 2):
                return "SRN"
            if not 0 <= alpha_sq.rational <= 1:
                raise OutOfRange("weight must lie in [0, 1]")
            return "LRN"
    else:
        x = float(alpha_sq)
    if not -GHZ_TOL <= x <= 1.0 + GHZ_TOL:
        raise OutOfRange(f"weight {x} outside [0, 1]")
    if min(abs(x), abs(x - 1.0)) <= GHZ_TOL:
        return "STABILIZER"
    if abs(x - 0.5) <= GHZ_TOL:
        return "SRN"
    return "LRN"


def typicality_log_ratio(n: int) -> float:
    """Natural-log ratio of reachable states to distinguishable states.

    Counts circuits of polylog depth applied to stabilizer states against
    epsilon-balls in Hilbert space, all in log space: the result is
    ``ln(n_C) + ln(n_S) - ln(n_B)`` with ``ln(n_B) = (1 - eps**2) 2**(n-1)``,
    ``ln(n_S) = (n**2 / 2) ln 2`` and
    ``ln(n_C) = n D ln(n D / eps)**2 ln 3``, for circuits of depth
    ``D = ceil(log2 n)**2`` over three gates and the resolution
    ``eps = 0.01 / n``.  A negative value means typical states are out of
    reach.
    """
    if n < 2:
        raise OutOfRange("need at least two qubits")
    eps = 0.01 / n
    depth = math.ceil(math.log2(n)) ** 2
    try:
        ln_balls = (1.0 - eps * eps) * 2.0 ** (n - 1)
    except OverflowError:
        return -math.inf
    ln_stab = 0.5 * n * n * math.log(2.0)
    ln_circ = n * depth * math.log(n * depth / eps) ** 2 * math.log(3)
    return ln_circ + ln_stab - ln_balls
