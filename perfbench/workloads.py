"""Seeded inputs, operations and output checks of the four workloads.

Every input is built here with numpy from the run's seed; the program only
ever receives the finished inputs (tensor JSON files, site tensors, Clifford
circuits, verify seeds).  Each check compares an output with what the
construction of its input implies, never with another run of the program.

A workload is a fixed list of operations (a *pass*).  ``make_pass(seed, p,
workdir)`` builds pass ``p`` of a run; passes of one run share their shape
(the same rungs in the same order) and differ only in their random draws, so
no operation is ever repeated on identical random data.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lrn_detect
import lrn_detect.cli

TAU_INT = 1e-6  # the CLI's default --tol-int, which decides certification
N_WINDOW = (1000, 2000)  # window of the incommensurate entropy sweep


class CheckFailed(Exception):
    """An operation returned an output its input's construction rules out."""


@dataclass
class Op:
    """One timed call into the program plus the check of its output."""

    op_id: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# --- tensor construction ------------------------------------------------------


def _transfer_radius(mats: np.ndarray) -> float:
    chi = mats.shape[1]
    e = np.einsum("iab,icd->acbd", mats, mats.conj()).reshape(chi * chi, chi * chi)
    return float(np.max(np.abs(np.linalg.eigvals(e))))


def random_block(rng, d: int, chi: int) -> np.ndarray:
    """Gaussian site tensor scaled to transfer spectral radius one.

    A Gaussian tensor with d >= 2 is normal with probability one.
    """
    mats = rng.standard_normal((d, chi, chi)) + 1j * rng.standard_normal((d, chi, chi))
    return mats / math.sqrt(_transfer_radius(mats))


def _random_gauge(rng, chi: int) -> np.ndarray:
    """Invertible matrix with condition number at most four."""
    q1, _ = np.linalg.qr(rng.standard_normal((chi, chi)) + 1j * rng.standard_normal((chi, chi)))
    q2, _ = np.linalg.qr(rng.standard_normal((chi, chi)) + 1j * rng.standard_normal((chi, chi)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, chi)) @ q2


def _conjugate(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("ab,ibc,cd->iad", np.linalg.inv(x), mats, x)


@dataclass
class Composite:
    """A gauge-scrambled direct sum of weighted normal blocks.

    ``families`` surviving blocks of weight magnitude one, each generating
    its own family, and ``decaying`` blocks of weight magnitude below one.
    """

    mats: np.ndarray
    families: int
    decaying: int


def composite(rng, d: int, chis: list[int], decaying: list[float]) -> Composite:
    """Direct sum of random normal blocks, scrambled by a random gauge.

    Block k has bond dimension ``chis[k]`` and a random unit phase;
    ``decaying`` lists the weight magnitudes of extra blocks of size
    ``chis[0]``.  Gauge copies of random blocks are left out: the seed
    commit rejects a small share of them (see README.md).
    """
    blocks = [random_block(rng, d, chi) * np.exp(2j * math.pi * rng.uniform()) for chi in chis]
    blocks += [r * random_block(rng, d, chis[0]) for r in decaying]
    total = sum(b.shape[1] for b in blocks)
    mats = np.zeros((d, total, total), dtype=complex)
    off = 0
    for k in rng.permutation(len(blocks)):  # block order carries no information
        c = blocks[k].shape[1]
        mats[:, off : off + c, off : off + c] = blocks[k]
        off += c
    return Composite(_conjugate(mats, _random_gauge(rng, total)), len(chis), len(decaying))


# --- expected verdicts --------------------------------------------------------


def _entropy(p: np.ndarray) -> np.ndarray:
    """Base-2 Shannon entropy along the last axis."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=-1)


def _group_amplitudes(half_phases: list[float], ns: np.ndarray) -> np.ndarray:
    """|alpha_g(N)|^2 per surviving group, shape (len(ns), groups).

    A singleton group has weight one; a group of two gauge copies whose
    phases differ by 2*h has weight |2 cos(h N)|.
    """
    cols = [np.ones_like(ns, dtype=float) if h == 0.0 else (2.0 * np.cos(h * ns)) ** 2
            for h in half_phases]
    return np.stack(cols, axis=-1)


def expected_entropy_verdict(half_phases: list[float], period: int | None) -> dict:
    """Status and minimum integer distance of the entropy criterion.

    ``period`` is the exact period of the weights (None when the phases
    are incommensurate, so the criterion sweeps ``N_WINDOW``).
    """
    if len(half_phases) == 1:
        return {"status": lrn_detect.INCONCLUSIVE, "min_distance": 0.0}
    if period is None:
        ns = np.arange(N_WINDOW[0], N_WINDOW[1] + 1, dtype=float)
    else:
        ns = np.array([r if r >= 1 else period for r in range(period)], dtype=float)
    amp = _group_amplitudes(half_phases, ns)
    h = _entropy(amp / amp.sum(axis=-1, keepdims=True))
    dist = float(np.min(np.abs(h - np.round(h))))
    status = lrn_detect.LRN_CERTIFIED if dist > TAU_INT else lrn_detect.INCONCLUSIVE
    return {"status": status, "min_distance": dist}


def _check_entropy_evidence(verdict: dict, expected: dict, period: int | None) -> None:
    _expect(verdict["status"] == expected["status"],
            f"entropy verdict {verdict['status']}, expected {expected['status']}")
    ev = verdict["evidence"]
    if "min_distance" in ev and expected["min_distance"] > 0.0:
        got = float(ev["min_distance"])
        _expect(abs(got - expected["min_distance"]) <= 1e-6,
                f"min integer distance {got}, expected {expected['min_distance']}")
    if period is not None and ev.get("mode") == "commensurate":
        _expect(ev["period"] == period, f"period {ev['period']}, expected {period}")


# --- analyze_mix ----------------------------------------------------------------


def _tensor_json(mats: np.ndarray, exact_weights=None) -> dict:
    obj = {
        "d": int(mats.shape[0]),
        "chi": int(mats.shape[1]),
        "matrices": [[[[float(v.real), float(v.imag)] for v in row] for row in m]
                     for m in mats],
    }
    if exact_weights is not None:
        obj["exact_weights"] = exact_weights
    return obj


def _diag_tensor(d: int, entries: list[tuple[int, int, int, complex]]) -> np.ndarray:
    chi = 1 + max(max(r, c) for _, r, c, _ in entries)
    mats = np.zeros((d, chi, chi), dtype=complex)
    for i, r, c, v in entries:
        mats[i, r, c] = v
    return mats


def _phase_loop(phi: float) -> np.ndarray:
    """|0..0> + 2 cos(phi N) |1..1>: one singleton and one two-copy group."""
    return _diag_tensor(2, [(0, 0, 0, 1.0), (1, 1, 1, np.exp(1j * phi)),
                            (1, 2, 2, np.exp(-1j * phi))])


_ROOT3_QUARTER_TENTH = 3.0 ** (-0.25) / 10.0


def _counterexample_probs(t: float) -> list[float]:
    return [0.1, _ROOT3_QUARTER_TENTH, t, 1.0 - t - 0.1 - _ROOT3_QUARTER_TENTH]


def _counterexample_t_star() -> float:
    """Bisection root of H(t) = 1 on (0, 0.1)."""
    lo, hi = 1e-12, 0.1
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if float(_entropy(np.array(_counterexample_probs(mid)))) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class AnalyzeCase:
    """Tensor input plus everything its construction implies."""

    name: str
    mats: np.ndarray
    blocks: int
    groups: int
    surviving_groups: int
    blocking: int
    half_phases: list[float]  # per surviving group, see _group_amplitudes
    period: int | None
    exact_weights: list | None = None
    ratio_status: str | None = None

    def expected(self) -> dict:
        if self.exact_weights is not None:
            probs = np.array([_w_value(w) for w in self.exact_weights])
            h = float(_entropy(probs / probs.sum()))
            dist = abs(h - round(h))
            entropy = {"status": lrn_detect.LRN_CERTIFIED if dist > TAU_INT
                       else lrn_detect.INCONCLUSIVE, "min_distance": 0.0}
        else:
            entropy = expected_entropy_verdict(self.half_phases, self.period)
        statuses = [entropy["status"]] + ([self.ratio_status] if self.ratio_status else [])
        if lrn_detect.LRN_CERTIFIED in statuses:
            code = 0
        elif lrn_detect.EXACT_SRN_EXCLUDED in statuses:
            code = 2
        else:
            code = 3
        return {"entropy": entropy, "exit": code}


def _w_value(w: dict) -> float:
    if "float" in w:
        return w["float"]
    if "rat" in w:
        return w["rat"][0] / w["rat"][1]
    r = w["root"]
    return r["r"][0] / r["r"][1] * (r["base"][0] / r["base"][1]) ** (1.0 / r["n"])


def fixture_cases() -> list[AnalyzeCase]:
    """The hand-built families, written out from their definitions."""
    t_star = _counterexample_t_star()
    p = _counterexample_probs(t_star)
    counter_w = [{"rat": [1, 10]}, {"root": {"r": [1, 10], "base": [1, 3], "n": 4}},
                 {"float": p[2]}, {"float": p[3]}]
    return [
        AnalyzeCase("ghz", _diag_tensor(2, [(0, 0, 0, 1.0), (1, 1, 1, 1.0)]),
                    2, 2, 2, 1, [0.0, 0.0], 1),
        AnalyzeCase("ghz_exact", _diag_tensor(2, [(0, 0, 0, 1.0), (1, 1, 1, 1.0)]),
                    2, 2, 2, 1, [0.0, 0.0], 1, [{"rat": [3, 10]}, {"rat": [7, 10]}],
                    lrn_detect.INCONCLUSIVE),
        AnalyzeCase("loop_pi3", _phase_loop(math.pi / 3), 3, 2, 2, 1,
                    [0.0, math.pi / 3], 6),
        AnalyzeCase("loop_incommensurate", _phase_loop(math.sqrt(2.0)), 3, 2, 2, 1,
                    [0.0, math.sqrt(2.0)], None),
        AnalyzeCase("loop_7_997", _phase_loop(2 * math.pi * 7 / 997), 3, 2, 2, 1,
                    [0.0, 2 * math.pi * 7 / 997], 997),
        AnalyzeCase("alternating", _diag_tensor(2, [(0, 0, 1, 1.0), (1, 1, 0, 1.0)]),
                    2, 2, 2, 2, [0.0, 0.0], 1),
        AnalyzeCase("counterexample",
                    _diag_tensor(4, [(i, i, i, 1.0) for i in range(4)]),
                    4, 4, 4, 1, [0.0] * 4, 1, counter_w, lrn_detect.EXACT_SRN_EXCLUDED),
    ]


def composite_case(name: str, c: Composite) -> AnalyzeCase:
    return AnalyzeCase(name, c.mats, c.families + c.decaying, c.families + c.decaying,
                       c.families, 1, [0.0] * c.families, 1)


def _check_analyze(case: AnalyzeCase, report_path: str, code: int) -> None:
    exp = case.expected()
    _expect(code == exp["exit"], f"exit code {code}, expected {exp['exit']}")
    with open(report_path, encoding="utf-8") as f:
        rep = json.load(f)
    cf = rep["canonical_form"]
    _expect(cf["blocking"] == case.blocking, f"blocking {cf['blocking']}, expected {case.blocking}")
    _expect(cf["num_blocks"] == case.blocks, f"{cf['num_blocks']} blocks, expected {case.blocks}")
    _expect(cf["num_groups"] == case.groups, f"{cf['num_groups']} groups, expected {case.groups}")
    surviving = {b["group"] for b in cf["blocks"] if b["surviving"]}
    _expect(len(surviving) == case.surviving_groups,
            f"{len(surviving)} surviving groups, expected {case.surviving_groups}")
    _expect(len(rep["fixed_point"]) == case.surviving_groups, "fixed point per surviving group")
    _expect(len(rep["weight_spectrum"]["labels"]) == case.surviving_groups,
            "weight spectrum per surviving group")
    _check_entropy_evidence(rep["verdicts"]["entropy_criterion"], exp["entropy"], case.period)
    if case.ratio_status is not None:
        got = rep["verdicts"]["ratio_criterion"]["status"]
        _expect(got == case.ratio_status, f"ratio verdict {got}, expected {case.ratio_status}")


def _analyze_op(case: AnalyzeCase, op_id: str, workdir: str) -> Op:
    path = os.path.join(workdir, f"{op_id}.json")
    out = os.path.join(workdir, f"{op_id}.report.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_tensor_json(case.mats, case.exact_weights), f)
    argv = ["--pipeline", "analyze", "--input", path, "--out", out]
    return Op(op_id, lambda: lrn_detect.cli.main(argv),
              lambda code: _check_analyze(case, out, code))


# Random normal tensors by (d, chi); chi 6-8 is where the RG flow dominates.
# Five chi-5 tensors and comp_three (all about 40 ms) fill ranks 10-15 of the
# 25 ops, so the median latency falls inside one group of similar ops instead
# of on the gap below it, where its run-to-run spread was 1.8 times that of
# the pass time.
_ANALYZE_NORMAL = [(2, 2), (3, 3), (2, 4), (3, 5), (2, 5), (3, 5), (2, 5), (3, 5),
                   (2, 6), (3, 6), (2, 7), (2, 8)]


def _analyze_composites(rng) -> list[tuple[str, Composite]]:
    d = int(rng.integers(2, 4))
    return [
        ("comp_two", composite(rng, d, [2, 3], [])),
        ("comp_three", composite(rng, d, [2, 2, 3], [])),
        ("comp_four", composite(rng, d, [2, 2, 2, 2], [])),
        ("comp_decay", composite(rng, d, [3, 3], [0.6])),
        ("comp_two_decay", composite(rng, d, [2, 4], [0.5])),
        ("comp_wide", composite(rng, d, [6, 2], [])),
    ]


def analyze_mix_pass(seed: int, p: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, p, 1])
    ops = [_analyze_op(c, f"p{p}-{c.name}", workdir) for c in fixture_cases()]
    for d, chi in _ANALYZE_NORMAL:
        case = AnalyzeCase(f"normal_d{d}_chi{chi}", random_block(rng, d, chi),
                           1, 1, 1, 1, [0.0], 1)
        ops.append(_analyze_op(case, f"p{p}-{case.name}", workdir))
    for name, c in _analyze_composites(rng):
        ops.append(_analyze_op(composite_case(name, c), f"p{p}-{name}", workdir))
    return ops


def analyze_mix_warmup(seed: int, workdir: str) -> list[Op]:
    return [_analyze_op(fixture_cases()[0], "warmup-ghz", workdir)]


# --- canonical_ladder -----------------------------------------------------------


def _canonical_op(op_id: str, mats: np.ndarray, families: int, blocks: int) -> Op:
    """Decompose a sum of ``families`` distinct surviving blocks and decaying ones."""
    tensor = lrn_detect.MpsTensor(mats)

    def run():
        cf = lrn_detect.canonical_decompose(tensor)
        spectrum = cf.weight_spectrum
        return cf, spectrum, lrn_detect.lrn_entropy_check(spectrum)

    def check(out):
        cf, spectrum, verdict = out
        _expect(cf.blocking == 1, f"blocking {cf.blocking}, expected 1")
        _expect(len(cf.blocks) == blocks, f"{len(cf.blocks)} blocks, expected {blocks}")
        _expect(cf.num_groups == blocks, f"{cf.num_groups} groups, expected {blocks}")
        _expect(spectrum.num_blocks == families,
                f"{spectrum.num_blocks} surviving groups, expected {families}")
        _expect(sum(b.tensor.bond_dim for b in cf.blocks) == mats.shape[1],
                "block bond dimensions do not add up to the input's")
        exp = expected_entropy_verdict([0.0] * families, 1)
        _check_entropy_evidence({"status": verdict.status, "evidence": verdict.evidence}, exp, 1)
        if families > 1:
            h = verdict.evidence["classes"][0]["entropy"]
            _expect(abs(h - math.log2(families)) < 1e-9,
                    f"entropy {h} of {families} equal weights")

    return Op(op_id, run, check)


# Mostly small normal tensors with a tail at chi 16-24, where the dense eig of
# the chi^2 x chi^2 transfer matrix dominates (0.7 s at chi 16, 6.5 s at 24),
# then gauge-scrambled composites with blocks of chi 4-12.
_LADDER_NORMAL = [2, 2, 2, 2, 4, 4, 4, 4, 8, 8, 8, 12, 12, 16, 20, 24]


def canonical_ladder_pass(seed: int, p: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, p, 2])
    ops = []
    for k, chi in enumerate(_LADDER_NORMAL):
        d = 2 + k % 2
        ops.append(_canonical_op(f"p{p}-normal_d{d}_chi{chi}_{k}",
                                 random_block(rng, d, chi), 1, 1))
    for name, c in [
        ("comp_4_4", composite(rng, 2, [4, 4], [])),
        ("comp_4_8", composite(rng, 2, [4, 8], [])),
        ("comp_4_12_decay", composite(rng, 2, [4, 12], [0.5])),
    ]:
        ops.append(_canonical_op(f"p{p}-{name}", c.mats, c.families, c.families + c.decaying))
    return ops


def canonical_ladder_warmup(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 2**20, 2])
    return [_canonical_op("warmup-normal_chi4", random_block(rng, 2, 4), 1, 1)]


# --- verify_suite ---------------------------------------------------------------


def _verify_op(op_id: str, s: int, workdir: str) -> Op:
    out = os.path.join(workdir, f"{op_id}.report.json")
    argv = ["--pipeline", "verify", "--seed", str(s), "--out", out]

    def check(code):
        _expect(code == 0, f"exit code {code}, expected 0")
        with open(out, encoding="utf-8") as f:
            rep = json.load(f)
        _expect(rep["passed"] is True, "verify report not passed")
        _expect(rep["seed"] == s, "report carries another seed")

    return Op(op_id, lambda: lrn_detect.cli.main(argv), check)


VERIFY_SEEDS_PER_PASS = 2


def verify_suite_pass(seed: int, p: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, p, 3])
    return [_verify_op(f"p{p}-verify{k}", int(s), workdir)
            for k, s in enumerate(rng.integers(0, 2**31, VERIFY_SEEDS_PER_PASS))]


def verify_suite_warmup(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 2**20, 3])
    return [_verify_op("warmup-verify", int(rng.integers(0, 2**31)), workdir)]


# --- clifford_scale -------------------------------------------------------------


_GATES_1Q = ("H", "S", "X", "Y", "Z")
_GATES_2Q = ("CNOT", "CZ")


def random_circuit(rng, n: int, depth: int) -> list:
    """Layers of random one-qubit gates then a row of neighbour two-qubit gates."""
    circ = []
    for _ in range(depth):
        for q in range(n):
            circ.append((_GATES_1Q[int(rng.integers(0, 5))], (q,)))
        off = int(rng.integers(0, 2))
        for q in range(off, n - 1 + off, 2):
            a, b = q % n, (q + 1) % n
            pair = (a, b) if rng.integers(0, 2) else (b, a)
            circ.append((_GATES_2Q[int(rng.integers(0, 2))], pair))
    return circ


_DENSE = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.diag([1, 1j]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0 + 0j, -1.0]),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1.0 + 0j, 1, 1, -1]),
}


def _dense_entropies(n: int, circ: list, regions: list) -> list[float]:
    """Entropies of the circuit's output state, simulated densely here."""
    psi = np.zeros([2] * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g, targets in circ:
        k = len(targets)
        arr = np.moveaxis(psi, targets, range(k))
        shape = arr.shape
        arr = (_DENSE[g] @ arr.reshape(2**k, -1)).reshape(shape)
        psi = np.moveaxis(arr, range(k), targets)
    out = []
    for region in regions:
        rest = [q for q in range(n) if q not in region]
        m = psi.transpose(list(region) + rest).reshape(2 ** len(region), -1)
        sv = np.linalg.svd(m, compute_uv=False) ** 2
        out.append(float(_entropy(sv[sv > 1e-12])))
    return out


# (qubits, circuit depth, query ops) per built tableau; gate cost grows as n^2
# at the seed.  15 ops per pass: the median falls among the n=96 queries and
# the 90th percentile inside the three n=96 builds, not between rungs.
CLIFFORD_RUNGS = [(12, 6, 1), (16, 4, 2), (32, 3, 1), (64, 2, 1), (96, 1, 1), (96, 1, 1),
                  (96, 1, 1)]
_REGIONS = 6  # regions per query op, each asked with its complement
_MI_PAIRS = 3


def _regions(rng, n: int) -> list[tuple[int, ...]]:
    out = []
    for k in range(_REGIONS):
        size = int(rng.integers(1, n))
        if k % 2:
            start = int(rng.integers(0, n))
            region = sorted((start + j) % n for j in range(size))
        else:
            region = sorted(int(q) for q in rng.choice(n, size, replace=False))
        out.append(tuple(region))
    return out


def _query_op(op_id: str, state: dict, rng, n: int, circ: list) -> Op:
    regions = _regions(rng, n)
    pairs = []
    for _ in range(_MI_PAIRS):
        perm = [int(q) for q in rng.permutation(n)]
        ka = int(rng.integers(1, n - 1))
        kb = int(rng.integers(1, n - ka))
        pairs.append((perm[:ka], perm[ka : ka + kb]))

    def query():
        tab = state["tab"]
        ents = [(tab.entropy(r), tab.entropy([q for q in range(n) if q not in r]))
                for r in regions]
        mis = [tab.mutual_information(a, b) for a, b in pairs]
        return ents, mis, tab.canonicalize()

    def check(out):
        ents, mis, canon = out
        for r, (s, sc) in zip(regions, ents):
            _expect(isinstance(s, int) and 0 <= s <= min(len(r), n - len(r)),
                    f"entropy {s} of a region of {len(r)} out of range")
            _expect(s == sc, f"S(R) = {s} but S(complement) = {sc}")
        for (a, b), mi in zip(pairs, mis):
            _expect(isinstance(mi, int) and 0 <= mi <= 2 * min(len(a), len(b)),
                    f"mutual information {mi} out of range")
        _expect(canon.n == n, "canonical tableau has the wrong size")
        _expect(canon.canonicalize() == canon, "canonicalize is not idempotent")
        if n <= 12:
            dense = _dense_entropies(n, circ, list(regions))
            for r, (s, _), ds in zip(regions, ents, dense):
                _expect(abs(s - ds) < 1e-8, f"S({r}) = {s}, dense simulation gives {ds}")

    return Op(op_id, query, check)


def _clifford_ops(rng, op_id: str, n: int, depth: int, queries: int) -> list[Op]:
    """Build a tableau from a random circuit ("write"), then query it ("reads")."""
    circ = random_circuit(rng, n, depth)
    state = {}

    def build():
        state["tab"] = lrn_detect.StabilizerTableau.zero_state(n).apply_circuit(circ)
        return state["tab"]

    def check_build(tab):
        _expect(tab.n == n and len(tab.xs) == n, "tableau has the wrong size")

    return [Op(f"{op_id}-build", build, check_build)] + [
        _query_op(f"{op_id}-query{k}", state, rng, n, circ) for k in range(queries)]


def clifford_scale_pass(seed: int, p: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, p, 4])
    ops = []
    for k, (n, depth, queries) in enumerate(CLIFFORD_RUNGS):
        ops.extend(_clifford_ops(rng, f"p{p}-n{n}_{k}", n, depth, queries))
    return ops


def clifford_scale_warmup(seed: int, workdir: str) -> list[Op]:
    return _clifford_ops(np.random.default_rng([seed, 2**20, 4]), "warmup-n16", 16, 4, 1)


WORKLOADS = {
    "analyze_mix": (analyze_mix_pass, analyze_mix_warmup),
    "canonical_ladder": (canonical_ladder_pass, canonical_ladder_warmup),
    "verify_suite": (verify_suite_pass, verify_suite_warmup),
    "clifford_scale": (clifford_scale_pass, clifford_scale_warmup),
}
