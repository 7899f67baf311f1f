"""Exact weight values and rationality decisions.

Weights may be plain floats, exact rationals, or scaled roots
``r * (p/q)**(1/n)`` with ``r`` rational.  Ratios of squares of exact
forms are decided symbolically by factoring the root bases into primes
and checking integrality of the accumulated exponents; floats only ever
get a heuristic continued-fraction answer, never a certificate of
irrationality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import OutOfRange

_FACTOR_LIMIT = 10**12


def best_rational(x: float, q_max: int = 10**6, tau: float = 1e-9) -> Fraction | None:
    """Best rational approximation with bounded denominator, if close enough.

    Uses the continued-fraction best approximant (via
    ``Fraction.limit_denominator``) and accepts ``p/q`` only when
    ``|x - p/q| < tau / q**2``.
    """
    if q_max < 1:
        raise OutOfRange("q_max must be positive")
    cand = Fraction(x).limit_denominator(q_max)
    if abs(x - float(cand)) < tau / (cand.denominator**2):
        return cand
    return None


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (small inputs only)."""
    if n <= 0 or n > _FACTOR_LIMIT:
        raise OutOfRange(f"cannot factor {n}: out of supported range")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


@dataclass(frozen=True)
class ExactWeight:
    """A weight value that may carry exact structure.

    ``kind`` is one of ``"float"``, ``"rational"``, ``"root"``.  The root
    form means ``coeff * base**(1/index)``.
    """

    kind: str
    float_value: float = 0.0
    rational: Fraction | None = None
    coeff: Fraction | None = None
    base: Fraction | None = None
    index: int = 1

    @staticmethod
    def from_float(x: float) -> "ExactWeight":
        if not (x == x and abs(x) != float("inf")):
            raise OutOfRange("float weight must be finite")
        return ExactWeight(kind="float", float_value=float(x))

    @staticmethod
    def from_rational(p: int, q: int) -> "ExactWeight":
        if q <= 0:
            raise OutOfRange("rational denominator must be positive")
        return ExactWeight(kind="rational", rational=Fraction(p, q))

    @staticmethod
    def from_root(r: Fraction, base: Fraction, n: int) -> "ExactWeight":
        if n < 1:
            raise OutOfRange("root index must be >= 1")
        if base <= 0:
            raise OutOfRange("root base must be positive")
        if n == 1:
            return ExactWeight(kind="rational", rational=Fraction(r) * Fraction(base))
        return ExactWeight(
            kind="root", coeff=Fraction(r), base=Fraction(base), index=int(n)
        )

    @property
    def is_exact(self) -> bool:
        return self.kind != "float"

    @property
    def is_zero(self) -> bool:
        """Zero in its exact form; a float form is zero when its value is."""
        if self.kind == "rational":
            return self.rational == 0
        if self.kind == "root":
            return self.coeff == 0
        return self.float_value == 0.0

    def value(self) -> float:
        if self.kind == "float":
            return self.float_value
        if self.kind == "rational":
            return float(self.rational)
        return float(self.coeff) * float(self.base) ** (1.0 / self.index)

    def to_json(self):
        if self.kind == "float":
            return {"float": self.float_value}
        if self.kind == "rational":
            return {"rat": [self.rational.numerator, self.rational.denominator]}
        return {
            "root": {
                "r": [self.coeff.numerator, self.coeff.denominator],
                "base": [self.base.numerator, self.base.denominator],
                "n": self.index,
            }
        }

    @staticmethod
    def from_json(obj) -> "ExactWeight":
        """Read a number or a form ``to_json`` writes; anything else is ``OutOfRange``.

        A bare weight and the ``float`` form are JSON numbers, not bools;
        ``rat``, ``r`` and ``base`` are pairs of JSON integers and ``n`` is
        one.  Nothing is truncated or parsed from text.  Both criteria read
        a weight's float ``value``, so an exact form whose value is not a
        finite float is refused too, with the form as payload.
        """
        try:
            if isinstance(obj, (int, float)):
                return ExactWeight.from_float(_number(obj))
            if "float" in obj:
                return ExactWeight.from_float(_number(obj["float"]))
            if "rat" in obj:
                p, q = obj["rat"]
                w = ExactWeight.from_rational(_integer(p), _integer(q))
            elif "root" in obj:
                payload = obj["root"]
                (rp, rq), (bp, bq) = payload["r"], payload["base"]
                w = ExactWeight.from_root(
                    Fraction(_integer(rp), _integer(rq)),
                    Fraction(_integer(bp), _integer(bq)),
                    _integer(payload["n"]),
                )
            else:
                raise OutOfRange(f"unrecognized exact-weight form: {obj!r}")
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise OutOfRange(f"malformed exact weight {obj!r}: {exc}") from exc
        try:
            finite = math.isfinite(w.value())
        except OverflowError:
            finite = False
        if not finite:
            raise OutOfRange(f"{w.kind} exact weight has no finite float value",
                             form=w.to_json())
        return w


def _number(x) -> float:
    """A number (not a bool, not text) as a float; else ``TypeError``."""
    if isinstance(x, (bool, str)):
        raise TypeError(f"expected a JSON number, got {x!r}")
    return float(x)


def _integer(x) -> int:
    """A JSON integer (not a bool); else ``TypeError``."""
    if type(x) is not int:
        raise TypeError(f"expected a JSON integer, got {x!r}")
    return x


def radical_parts(w: ExactWeight) -> tuple[Fraction, dict[int, Fraction]]:
    """Split an exact weight into (rational coefficient, prime exponent map).

    The weight equals ``coeff * prod(p**e for p, e in exponents.items())``
    with fractional exponents reduced to [0, 1).
    """
    if w.kind == "float":
        raise OutOfRange("radical decomposition requires an exact form")
    if w.kind == "rational":
        return Fraction(w.rational), {}
    coeff = Fraction(w.coeff)
    exps: dict[int, Fraction] = {}
    for p, e in _factorize(w.base.numerator).items():
        exps[p] = exps.get(p, Fraction(0)) + Fraction(e, w.index)
    for p, e in _factorize(w.base.denominator).items():
        exps[p] = exps.get(p, Fraction(0)) - Fraction(e, w.index)
    return _fold_integer_exponents(coeff, exps)


def _fold_integer_exponents(coeff, exps):
    out: dict[int, Fraction] = {}
    for p, e in exps.items():
        whole = e.numerator // e.denominator  # floor for negatives too
        frac = e - whole
        coeff = coeff * Fraction(p) ** whole
        if frac:
            out[p] = frac
    return coeff, out


@dataclass(frozen=True)
class RatioDecision:
    """Symbolic verdict on the rationality of a ratio of exact values."""

    rational: bool
    coeff: Fraction
    radical: dict[int, Fraction]

    def value(self) -> float:
        """The ratio as a float; ``inf`` past the float range."""
        try:
            x = float(self.coeff)
        except OverflowError:  # the decision stays exact; only its float is out of range
            return math.inf
        for p, e in self.radical.items():
            x *= p ** float(e)
        return x

    def describe(self) -> str:
        parts = []
        if self.coeff != 1 or not self.radical:
            parts.append(str(self.coeff))
        for p, e in sorted(self.radical.items()):
            parts.append(f"{p}^({e})")
        return " * ".join(parts)


def squared_ratio(w_i: ExactWeight, w_j: ExactWeight) -> RatioDecision:
    """Decide ``w_i**2 / w_j**2 in Q`` for exact forms, symbolically."""
    ci, ei = radical_parts(w_i)
    cj, ej = radical_parts(w_j)
    if cj == 0:
        raise OutOfRange("ratio against a vanishing weight")
    coeff = (ci * ci) / (cj * cj)
    exps: dict[int, Fraction] = {}
    for p, e in ei.items():
        exps[p] = exps.get(p, Fraction(0)) + 2 * e
    for p, e in ej.items():
        exps[p] = exps.get(p, Fraction(0)) - 2 * e
    coeff, residual = _fold_integer_exponents(coeff, exps)
    return RatioDecision(rational=not residual, coeff=coeff, radical=residual)
