"""Exact stabilizer-state computations over GF(2).

Generators are stored bit-packed: one integer each for the X and Z bit
rows plus a phase exponent p with the operator convention
``i**p * prod_q X_q**x_q Z_q**z_q``.  In this convention a Y on qubit q
sets both bits and contributes one factor of i to p, products pick up
``2 * popcount(z_left & x_right)``, and group elements always carry a
displayed sign of +/-1.

Entropies come from the restriction-rank identity: the stabilizers
supported inside a region R form a subgroup of size ``2**(n - rank)``
where the rank is taken over the generator bits on the complement of R,
making every entropy an exact integer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DependentGenerators,
    OverlappingRegions,
    TargetOutOfRange,
    ZeroState,
)

# ``dense_state`` retries with a fresh vector when the projected one's norm
# is at or below this.
PROJECTED_NORM_FLOOR = 1e-9

_ONE_QUBIT_GATES = ("H", "S", "X", "Y", "Z")
_TWO_QUBIT_GATES = ("CNOT", "CZ")
# Dense unitaries of the gate set, for cross-checks against the dense oracle.
CLIFFORD_DENSE = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}


@dataclass(frozen=True)
class PauliString:
    """One signed Pauli operator on n qubits."""

    n: int
    x: int
    z: int
    phase: int  # exponent of i in the X^x Z^z convention

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def sign_exponent(self) -> int:
        """Exponent of i in the literal IXYZ form (0 or 2 for group elements)."""
        return (self.phase - (self.x & self.z).bit_count()) % 4

    def mul(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise TargetOutOfRange("cannot multiply operators on different registers")
        phase = (self.phase + other.phase + 2 * (self.z & other.x).bit_count()) % 4
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def to_text(self) -> str:
        se = self.sign_exponent
        if se == 0:
            sign = "+"
        elif se == 2:
            sign = "-"
        else:
            raise ValueError("operator carries an imaginary phase; not a group element")
        letters = []
        for q in range(self.n):
            xq, zq = (self.x >> q) & 1, (self.z >> q) & 1
            letters.append("IXZY"[xq + 2 * zq])
        return sign + "".join(letters)

    @staticmethod
    def from_text(line: str) -> "PauliString":
        s = line.strip().replace("−", "-")
        if not s:
            raise ValueError("empty Pauli string")
        sign_exp = 0
        if s[0] in "+-":
            sign_exp = 0 if s[0] == "+" else 2
            s = s[1:]
        x = z = 0
        ys = 0
        for q, ch in enumerate(s.upper()):
            if ch == "X":
                x |= 1 << q
            elif ch == "Z":
                z |= 1 << q
            elif ch == "Y":
                x |= 1 << q
                z |= 1 << q
                ys += 1
            elif ch != "I":
                raise DependentGenerators(f"unexpected Pauli letter {ch!r}")
        return PauliString(n=len(s), x=x, z=z, phase=(sign_exp + ys) % 4)

    def dense_apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply to a 2**n amplitude vector (site 0 = most significant bit).

        The bit convention matches ``reshape([2] * n)`` dense states, where
        axis i is site i.
        """
        xr = zr = 0
        for q in range(self.n):
            xr |= ((self.x >> q) & 1) << (self.n - 1 - q)
            zr |= ((self.z >> q) & 1) << (self.n - 1 - q)
        idx = np.arange(vec.size, dtype=np.uint64)
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(zr)) & 1).astype(float)
        out = np.empty_like(vec, dtype=complex)
        out[idx ^ np.uint64(xr)] = (1j**self.phase) * signs * vec
        return out


@dataclass(frozen=True)
class StabilizerTableau:
    """n independent commuting generators of a stabilizer group."""

    n: int
    xs: tuple[int, ...]
    zs: tuple[int, ...]
    phases: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.xs) == len(self.zs) == len(self.phases) == self.n):
            raise DependentGenerators("need exactly n generators for n qubits")
        object.__setattr__(self, "phases", tuple(p % 4 for p in self.phases))
        for p, x, z in zip(self.phases, self.xs, self.zs):
            if (p - (x & z).bit_count()) % 2 != 0:
                raise DependentGenerators("generator carries an imaginary phase")
        rows = list(zip(self.xs, self.zs))
        for i, (xi, zi) in enumerate(rows):
            for j in range(i + 1, self.n):
                xj, zj = rows[j]
                # The symplectic form's parity is that of the XOR's weight.
                if ((xi & zj) ^ (zi & xj)).bit_count() % 2:
                    raise DependentGenerators(
                        f"generators {i} and {j} anticommute"
                    )
        if _gf2_rank([(x << self.n) | z for x, z in rows]) != self.n:
            raise DependentGenerators("generators are dependent over GF(2)")

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero_state(n: int) -> "StabilizerTableau":
        return StabilizerTableau(
            n=n,
            xs=(0,) * n,
            zs=tuple(1 << q for q in range(n)),
            phases=(0,) * n,
        )

    def generators(self) -> list[PauliString]:
        return [
            PauliString(self.n, x, z, p)
            for x, z, p in zip(self.xs, self.zs, self.phases)
        ]

    def to_text(self) -> str:
        return "\n".join(g.to_text() for g in self.generators())

    @staticmethod
    def from_text(text: str) -> "StabilizerTableau":
        if type(text) is not str:
            raise DependentGenerators(f"a tableau is text, got {type(text).__name__}")
        paulis = [
            PauliString.from_text(line)
            for line in text.splitlines()
            if line.strip()
        ]
        if not paulis:
            raise DependentGenerators("no generators in input")
        n = paulis[0].n
        if any(p.n != n for p in paulis):
            raise DependentGenerators("generator lengths differ")
        return StabilizerTableau(
            n=n,
            xs=tuple(p.x for p in paulis),
            zs=tuple(p.z for p in paulis),
            phases=tuple(p.phase for p in paulis),
        )

    # -- Clifford conjugation ----------------------------------------------

    def apply_gate(self, gate: str, targets) -> "StabilizerTableau":
        """Conjugate every generator by a Clifford gate."""
        return self.apply_circuit([(gate, targets)])

    def apply_circuit(self, circuit) -> "StabilizerTableau":
        """Conjugate every generator by a list of ``(gate, targets)``, in order.

        Every gate is checked before any row moves.  Each generator row then
        runs through the whole circuit as plain integers; conjugation keeps
        the generators commuting and independent, so the result is built
        (and validated) once.
        """
        ops = [_checked_gate(self.n, gate, targets) for gate, targets in circuit]
        xs, zs, ps = [], [], []
        for x, z, p in zip(self.xs, self.zs, self.phases):
            for gate, targets in ops:
                if gate == "H":
                    (q,) = targets
                    xq, zq = (x >> q) & 1, (z >> q) & 1
                    p += 2 * xq * zq
                    flip = (xq ^ zq) << q
                    x ^= flip
                    z ^= flip
                elif gate == "S":
                    (q,) = targets
                    xq = (x >> q) & 1
                    p += xq
                    z ^= xq << q
                elif gate == "X":
                    (q,) = targets
                    p += 2 * ((z >> q) & 1)
                elif gate == "Z":
                    (q,) = targets
                    p += 2 * ((x >> q) & 1)
                elif gate == "Y":
                    (q,) = targets
                    p += 2 * (((x >> q) & 1) ^ ((z >> q) & 1))
                elif gate == "CNOT":
                    c, t = targets
                    x ^= ((x >> c) & 1) << t
                    z ^= ((z >> t) & 1) << c
                else:  # CZ
                    a, b = targets
                    xa, xb = (x >> a) & 1, (x >> b) & 1
                    p += 2 * xa * xb
                    z ^= xb << a
                    z ^= xa << b
            xs.append(x)
            zs.append(z)
            ps.append(p % 4)
        return StabilizerTableau(self.n, tuple(xs), tuple(zs), tuple(ps))

    # -- canonical form ------------------------------------------------------

    def canonicalize(self) -> "StabilizerTableau":
        """Row-reduced echelon form over GF(2), X block before Z block.

        Row operations are group multiplications, so signs stay exact and
        the result is the unique canonical generator set of the group.
        """
        gens = self.generators()
        cols = [("x", q) for q in range(self.n)] + [("z", q) for q in range(self.n)]
        pivot = 0
        for kind, q in cols:
            bit = 1 << q
            sel = None
            for r in range(pivot, self.n):
                word = gens[r].x if kind == "x" else gens[r].z
                if word & bit:
                    sel = r
                    break
            if sel is None:
                continue
            gens[pivot], gens[sel] = gens[sel], gens[pivot]
            for r in range(self.n):
                if r == pivot:
                    continue
                word = gens[r].x if kind == "x" else gens[r].z
                if word & bit:
                    gens[r] = gens[r].mul(gens[pivot])
            pivot += 1
        if pivot != self.n:
            raise DependentGenerators("rank below n during canonicalization")
        return StabilizerTableau(
            n=self.n,
            xs=tuple(g.x for g in gens),
            zs=tuple(g.z for g in gens),
            phases=tuple(g.phase for g in gens),
        )

    # -- entropies -----------------------------------------------------------

    def entropy(self, region) -> int:
        """Entanglement entropy of a region, an exact integer.

        Equals ``|R| - log2 |H_R|`` where ``H_R`` is the subgroup of
        stabilizers supported inside R; its size is read off the GF(2)
        rank of the generator bits restricted to the complement.
        """
        region = self._sites(region)
        inside = 0
        for q in region:
            inside |= 1 << q
        # Zeroed columns leave the GF(2) rank unchanged, so each row keeps
        # its X and Z bits on the complement in place.
        keep = ((1 << self.n) - 1) ^ inside
        rank = _gf2_rank([((x & keep) << self.n) | (z & keep) for x, z in zip(self.xs, self.zs)])
        return len(region) - (self.n - rank)

    def _sites(self, region) -> set[int]:
        """``region`` as a set of Python ints in the register; a bool names no site."""
        sites = set()
        try:
            for q in region:
                if isinstance(q, bool):
                    raise TypeError(f"{q!r} is not a site")
                sites.add(operator.index(q))  # Python ints: 1 << np.int64(64) is 0
        except TypeError as exc:
            raise TargetOutOfRange(f"region {region!r} is not a list of integer sites") from exc
        for q in sites:
            if not 0 <= q < self.n:
                raise TargetOutOfRange(f"region site {q} outside register")
        return sites

    def mutual_information(self, region_a, region_b) -> int:
        a, b = self._sites(region_a), self._sites(region_b)
        if a & b:
            raise OverlappingRegions("regions must be disjoint")
        if not a or not b or len(a | b) >= self.n:
            raise OverlappingRegions(
                "regions must be nonempty and leave at least one site out"
            )
        return self.entropy(a) + self.entropy(b) - self.entropy(a | b)

    # -- dense oracle hooks ----------------------------------------------------

    def dense_state(self) -> np.ndarray:
        """Stabilized state as an explicit amplitude vector (n <= 24).

        Projects a fixed pseudo-random vector with (I + g)/2 for every
        generator; retries with fresh vectors in the measure-zero event of
        an orthogonal start.
        """
        dim = 1 << self.n
        for attempt in range(8):
            rng = np.random.default_rng(0x5EED + attempt)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for g in self.generators():
                v = (v + g.dense_apply(v)) / 2.0
            nrm = np.linalg.norm(v)
            if nrm > PROJECTED_NORM_FLOOR:
                return v / nrm
        raise ZeroState("projector product annihilated every trial vector")


def _checked_gate(n: int, gate: str, targets) -> tuple[str, tuple[int, ...]]:
    """``(gate, targets)`` with the targets as a tuple, once checked.

    Raises:
        TargetOutOfRange: for a target outside the register, a wrong target
            count or an unknown gate.
    """
    if isinstance(targets, int):
        targets = (targets,)
    targets = tuple(targets)
    for t in targets:
        if not 0 <= t < n:
            raise TargetOutOfRange(f"target {t} outside register of {n}")
    if gate in _ONE_QUBIT_GATES:
        if len(targets) != 1:
            raise TargetOutOfRange(f"{gate} takes one target")
    elif gate in _TWO_QUBIT_GATES:
        if len(targets) != 2 or targets[0] == targets[1]:
            raise TargetOutOfRange(f"{gate} takes two distinct targets")
    else:
        raise TargetOutOfRange(f"unknown gate {gate!r}")
    return gate, targets


def _gf2_rank(rows) -> int:
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        pivot = rows.pop()
        if pivot == 0:
            continue
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def random_clifford_circuit(n: int, depth: int, seed) -> list:
    """Layered random Clifford circuit as a list of (gate, targets).

    Each layer applies an independent single-qubit gate draw and then a
    randomly offset row of two-qubit gates on disjoint neighbor pairs
    (periodic geometry).
    """
    rng = np.random.default_rng(seed)
    circuit = []
    for _ in range(depth):
        for q in range(n):
            g = ("I", "H", "S", "X", "Y", "Z", "H", "S")[rng.integers(0, 8)]
            if g != "I":
                circuit.append((g, (q,)))
        offset = int(rng.integers(0, 2))
        q = offset
        while q + 1 < n + offset:
            a, b = q % n, (q + 1) % n
            if a != b:
                g = ("CNOT", "CZ", "I")[rng.integers(0, 3)]
                if g != "I":
                    circuit.append((g, (a, b)))
            q += 2
    return circuit
