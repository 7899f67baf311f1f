"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions of every ``lrn_detect`` module,
a few constructors and methods (``CLASS_METHODS``) and the ``numpy.linalg``
entry points.  Modules bind names with ``from .x import y``, so each wrapped
function is rebound in every ``lrn_detect`` namespace that holds it; other
wise internal calls would go uncounted.  ``uninstall`` restores every
original object.

Each call records a span ``[name, layer, start, end, parent, op_id, info]``
in memory.  Ops run one at a time and ``--jobs 1`` pools run one worker while
the caller waits, so one stack shared by all threads yields the right
parents.  ``numpy.linalg`` calls are recorded only under an ``lrn_detect``
span, which leaves out the benchmark's own input generation and checks.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import pkgutil
import time

import numpy as np

import lrn_detect

LINALG = ("eig", "eigvals", "eigh", "eigvalsh", "svd", "inv", "qr", "cond", "norm")
DECOMPOSITIONS = ("eig", "eigvals", "eigh", "eigvalsh", "svd")

# Constructors and methods worth a span of their own (module -> class -> names).
CLASS_METHODS = {
    "stabilizer": {"StabilizerTableau": ("__post_init__", "apply_gate", "apply_circuit",
                                         "entropy", "mutual_information", "canonicalize",
                                         "dense_state")},
    "dense": {"DenseState": ("__post_init__",)},
}

NAME, LAYER, START, END, PARENT, OP, INFO = range(7)


def _decomposition_info(args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    m, k = a.shape[-2:]
    key = (a.shape, a.dtype.str, hashlib.blake2b(np.ascontiguousarray(a).tobytes()).digest())
    return m * k * min(m, k), key


def _bytes_written(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return len(result.encode("utf-8")) if path else 0


# Facts recorded from a call's arguments or result, keyed by span name.
SPAN_FACTS = {
    **{f"linalg.{n}": _decomposition_info for n in DECOMPOSITIONS},
    "canonical.gauge_equivalent": lambda a, k, r: r is not None,
    "rg.rg_step": lambda a, k, r: r.tensor.phys_dim,
    "rg.rg_fixed_point": lambda a, k, r: len(r.blocks),
    "io.dump_report": _bytes_written,
    "io.rows_to_csv": _bytes_written,
}


def _modules():
    mods = [lrn_detect]
    for info in pkgutil.iter_modules(lrn_detect.__path__):
        mods.append(importlib.import_module(f"lrn_detect.{info.name}"))
    return mods


class Tracer:
    """Records spans while installed and active."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: str | None = None
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, func, needs_parent: bool = False):
        tracer = self
        fact = SPAN_FACTS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active or (needs_parent and not tracer.stack):
                return func(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op_id, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer.stack.remove(idx)
            if fact is not None:
                span[INFO] = fact(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = _modules()
        for mod in mods[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, obj)
                for holder in mods:
                    for hattr, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            self._set(holder, hattr, wrapper)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", layer,
                                                    cls.__dict__[meth]))
        for fn in LINALG:
            self._set(np.linalg, fn, self._wrap(f"linalg.{fn}", "linalg",
                                                getattr(np.linalg, fn), needs_parent=True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# --- per-layer metrics ------------------------------------------------------------

LAYERS = ("linalg", "tensor", "spectral", "canonical", "rg", "weights", "criteria",
          "exact", "io", "cli", "stabilizer", "dense", "circuits", "causal", "experiments")

# Per-layer metric -> span name whose calls it counts.
CALLS = {
    "linalg.eig.calls": "linalg.eig",
    "linalg.eigvals.calls": "linalg.eigvals",
    "linalg.svd.calls": "linalg.svd",
    "linalg.eigh.calls": "linalg.eigh",
    "tensor.transfer_matrix.calls": "tensor.transfer_matrix",
    "tensor.spectral_radius.calls": "tensor.spectral_radius",
    "spectral.spectral.calls": "spectral.spectral",
    "spectral.is_normal.calls": "spectral.is_normal",
    "canonical.canonical_decompose.calls": "canonical.canonical_decompose",
    "canonical.gauge_equivalent.calls": "canonical.gauge_equivalent",
    "rg.rg_step.calls": "rg.rg_step",
    "weights.evaluate_weights.calls": "weights.evaluate_weights",
    "criteria.lrn_entropy_check.calls": "criteria.lrn_entropy_check",
    "exact.squared_ratio.calls": "exact.squared_ratio",
    "stabilizer.gates": "stabilizer.StabilizerTableau.apply_gate",
    "stabilizer.tableaux_validated": "stabilizer.StabilizerTableau.__post_init__",
    "stabilizer.entropy.calls": "stabilizer.StabilizerTableau.entropy",
    "dense.apply_local_gate.calls": "dense.apply_local_gate",
    "dense.states_built": "dense.DenseState.__post_init__",
    "dense.subsystem_entropy.calls": "dense.subsystem_entropy",
    "circuits.apply_brickwork.calls": "circuits.apply_brickwork",
    "causal.causal_cone_reduce.calls": "causal.causal_cone_reduce",
}

# Per-layer metric -> span name whose function self time it reports: the time
# inside the function and its callees of the same layer, outermost calls only.
FUNCTION_TIMES = {
    "stabilizer.apply_circuit.self_s": "stabilizer.StabilizerTableau.apply_circuit",
    "stabilizer.entropy.self_s": "stabilizer.StabilizerTableau.entropy",
    "dense.subsystem_entropy.self_s": "dense.subsystem_entropy",
}

COUNT_METRICS = (*CALLS, "linalg.decomp_n3_sum", "linalg.decomps_per_distinct_matrix",
                 "canonical.gauge_match_ratio", "rg.steps_per_block", "rg.max_phys_dim",
                 "criteria.residues_per_check", "io.bytes_written",
                 "stabilizer.validations_per_gate")
TIME_METRICS = (*(f"{layer}.self_s" for layer in LAYERS), *FUNCTION_TIMES)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def counts(spans: list[list]) -> dict[str, float]:
    """Operation counts and ratios of one pass (deterministic for a seed)."""
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def n(name):
        return len(by_name.get(name, ()))

    out = {metric: float(n(name)) for metric, name in CALLS.items()}
    decomps = [s for fn in DECOMPOSITIONS for s in by_name.get(f"linalg.{fn}", ())]
    out["linalg.decomp_n3_sum"] = float(sum(s[INFO][0] for s in decomps))
    out["linalg.decomps_per_distinct_matrix"] = _ratio(
        len(decomps), len({s[INFO][1] for s in decomps}))
    ge = by_name.get("canonical.gauge_equivalent", ())
    out["canonical.gauge_match_ratio"] = _ratio(sum(1 for s in ge if s[INFO]), len(ge))
    steps = by_name.get("rg.rg_step", ())
    out["rg.steps_per_block"] = _ratio(
        len(steps), sum(s[INFO] for s in by_name.get("rg.rg_fixed_point", ())))
    out["rg.max_phys_dim"] = float(max((s[INFO] for s in steps), default=0))
    check_ids = {id(s) for s in by_name.get("criteria.lrn_entropy_check", ())}
    residues = sum(1 for s in by_name.get("weights.evaluate_weights", ())
                   if s[PARENT] >= 0 and id(spans[s[PARENT]]) in check_ids)
    out["criteria.residues_per_check"] = _ratio(residues, len(check_ids))
    out["io.bytes_written"] = float(sum(s[INFO] for name in ("io.dump_report", "io.rows_to_csv")
                                        for s in by_name.get(name, ())))
    out["stabilizer.validations_per_gate"] = _ratio(
        out["stabilizer.tableaux_validated"], out["stabilizer.gates"])
    return out


def times(spans: list[list]) -> dict[str, float]:
    """Self time per layer and per selected function, in seconds."""
    own = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        key = f"{s[LAYER]}.self_s"
        if key in out:
            out[key] += t
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)
    for metric, name in FUNCTION_TIMES.items():
        total = 0.0
        for i, s in enumerate(spans):
            if s[NAME] != name or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == name):
                continue
            todo = [i]
            while todo:
                j = todo.pop()
                total += own[j]
                todo.extend(c for c in children.get(j, ()) if spans[c][LAYER] == s[LAYER])
        out[metric] = total
    return out
