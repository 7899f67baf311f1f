"""Batch command-line front door.

One executable, one ``--pipeline`` switch:

* ``analyze``    tensor JSON -> canonical form, fixed-point Schmidt weights
                 and subleading transfer modulus per block (closed form,
                 read from the canonical blocks), verdicts
* ``verify``     run the dense-oracle invariant suites, in one
                 configuration: depth-1 circuits on a 16-site ring
* ``stab``       tableau request -> exact entropies / mutual information
* ``ghz``        exact-weight JSON -> family label
* ``typicality`` counting estimate sweep over system sizes

Each pipeline imports its engines when it runs.  This module loads only
what ``analyze``, ``ghz`` and ``typicality`` run: the BLAS-thread,
canonical, spectral, tensor, weight, criteria, exact-weight, io and error
layers.  ``verify``
imports its suites from ``lrn_detect.verify``, and ``stab`` the tableau
engine, on first use.

The flags are the whole request: each command reads argparse's namespace,
after ``_check`` applies the rules that tie flags together and names every
unknown flag.  Every other cap and tolerance is a module constant of the
layer that owns it.

Exit codes for verdict pipelines: 0 when long-range nonstabilizerness is
certified, 2 when only the exact-SRN exclusion fires, 3 when
inconclusive, 1 on errors, a malformed command line included.  All
randomness flows from ``--seed``; identical requests produce
byte-identical reports.  Every command runs with numpy's OpenBLAS at one
thread (``blas.one_thread``), and the caller's count is restored after,
so a report does not depend on the caller's thread count: under another
one, a composite's blocks and groups, which follow the eigensolver's
output order, could come reordered, and floats could differ in their last
bits.  Reports go to stdout or ``--out``; stderr carries
diagnostics only: an error is one JSON object with its type, message and
diagnostic payload, the keywords it was raised with (a spectrum, singular
values, a last residual, a norm).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .blas import one_thread
from .canonical import canonical_decompose
from .criteria import (
    EXACT_SRN_EXCLUDED,
    LRN_CERTIFIED,
    ghz_classify,
    lrn_entropy_check,
    srn_ratio_check,
    typicality_log_ratio,
)
from .errors import DependentGenerators, LrnDetectError, OutOfRange, OverlappingRegions
from .exact import ExactWeight
from .io import dump_report, json_value, load_tensor, rows_to_csv
from .weights import WeightSpectrum

# Pipelines whose report has a table of rows, the only thing CSV can hold.
CSV_PIPELINES = ("typicality",)

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_EXCLUDED = 2
_EXIT_INCONCLUSIVE = 3

# Widest N window, n-max - n-min + 1, that typicality and verify accept:
# typicality builds one row per size and verify runs trials in proportion
# to the width.  Every finite typicality_log_ratio lies at n <= 1024.
_WINDOW_CAP = 4096


def _emit(args: argparse.Namespace, report: dict, rows: list[dict] | None = None) -> None:
    if args.format == "csv":
        text = rows_to_csv(rows, args.out)
    else:
        text = dump_report(report, args.out)
    if not args.out:
        sys.stdout.write(text)


def _verdict_json(v) -> dict:
    out = {"status": v.status, "evidence": v.evidence}
    if v.residue_class is not None:
        out["residue_class"] = list(v.residue_class)
    return out


def _status_exit(statuses: list[str]) -> int:
    if LRN_CERTIFIED in statuses:
        return _EXIT_OK
    if EXACT_SRN_EXCLUDED in statuses:
        return _EXIT_EXCLUDED
    return _EXIT_INCONCLUSIVE


def cmd_analyze(args: argparse.Namespace) -> int:
    tensor, exact_weights = load_tensor(args.input)
    cf = canonical_decompose(tensor)
    groups = cf.surviving_groups()

    spectrum = cf.weight_spectrum
    if exact_weights is not None:
        if len(exact_weights) != spectrum.num_blocks:
            raise LrnDetectError(
                f"{len(exact_weights)} exact weights for {spectrum.num_blocks} "
                "surviving block groups"
            )
        # A constant weight per group holds only for a group of one block; a
        # group of gauge copies has a weight that moves with N.
        sizes = [len(members) for members in groups.values()]
        if any(k != 1 for k in sizes):
            raise LrnDetectError(
                "exact weights need one block per surviving group, got group "
                f"sizes {sizes}"
            )
        spectrum = WeightSpectrum.constant(
            [math.sqrt(max(w.value(), 0.0)) for w in exact_weights]
        )

    verdicts = {"entropy_criterion": lrn_entropy_check(spectrum, tau_int=args.tol_int)}
    if exact_weights is not None and len(exact_weights) >= 2:
        verdicts["ratio_criterion"] = srn_ratio_check(exact_weights, q_max=args.qmax)

    report = {
        "input": args.input,
        "canonical_form": {
            "blocking": cf.blocking,
            "num_blocks": len(cf.blocks),
            "num_groups": cf.num_groups,
            "blocks": [
                {
                    "mu": {"re": b.mu.real, "im": b.mu.imag},
                    "abs_mu": abs(b.mu),
                    "bond_dim": b.tensor.bond_dim,
                    "group": b.group,
                    "surviving": b.surviving,
                }
                for b in cf.blocks
            ],
        },
        "fixed_point": [
            {
                "label": label,
                "lambda2": groups[label][0].witness.lambda2,
                "schmidt_weights": list(map(float, lam)),
            }
            for label, lam in cf.schmidt_weights().items()
        ],
        "weight_spectrum": spectrum.to_json(),
        "verdicts": {k: _verdict_json(v) for k, v in verdicts.items()},
    }
    _emit(args, report)
    return _status_exit([v.status for v in verdicts.values()])


def cmd_stab(args: argparse.Namespace) -> int:
    from .stabilizer import StabilizerTableau

    with open(args.input, encoding="utf-8") as f:
        raw = f.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError:  # plain generator lines
        obj = {"tableau": raw}
    if type(obj) is not dict:
        raise DependentGenerators(
            f"a tableau request is a JSON object, got {type(obj).__name__}"
        )
    if "tableau" not in obj:
        raise DependentGenerators('a tableau request needs a "tableau" entry')
    tableau = StabilizerTableau.from_text(obj["tableau"])
    region_a, region_b = obj.get("region_a"), obj.get("region_b")
    if region_b is not None and region_a is None:
        raise OverlappingRegions("region_b needs region_a: mutual information takes two regions")
    canon = tableau.canonicalize()
    report = {
        "input": args.input,
        "n": tableau.n,
        "canonical": canon.to_text().split("\n"),
    }
    if region_a is not None:
        report["entropy_a"] = tableau.entropy(region_a)  # checks the sites first
        report["region_a"] = sorted(region_a)
        if region_b is not None:
            report["entropy_b"] = tableau.entropy(region_b)
            report["region_b"] = sorted(region_b)
            report["mutual_information"] = tableau.mutual_information(
                region_a, region_b
            )
    _emit(args, report)
    return _EXIT_OK


def cmd_ghz(args: argparse.Namespace) -> int:
    with open(args.input, encoding="utf-8") as f:
        weight = ExactWeight.from_json(json.load(f))
    label = ghz_classify(weight)
    report = {"input": args.input, "alpha_sq": weight.value(), "label": label}
    _emit(args, report)
    return _EXIT_OK if label == "LRN" else _EXIT_INCONCLUSIVE


def cmd_typicality(args: argparse.Namespace) -> int:
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        val = typicality_log_ratio(n)
        rows.append({"n": n, "log_ratio": val, "reachable": val > 0})
    report = {"sweep": rows, "n_min": args.n_min, "n_max": args.n_max}
    _emit(args, report, rows=rows)
    return _EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the runtime invariant suites; sizes scale with the N window.

    ``_check`` has capped the width at ``_WINDOW_CAP`` before any trial.
    The suites and their engines load here, on the first ``verify``.
    """
    from . import verify

    trials = max(4, args.n_max - args.n_min + 1)
    suites = verify.suites(args.seed, trials)
    passed = all(s["passed"] for s in suites)
    report = {"passed": passed, "suites": suites, "seed": args.seed}
    _emit(args, report)
    return _EXIT_OK if passed else _EXIT_ERROR


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "stab": cmd_stab,
    "ghz": cmd_ghz,
    "typicality": cmd_typicality,
}
PIPELINES = tuple(_COMMANDS)


class _Parser(argparse.ArgumentParser):
    """argparse, with a malformed command line raised as an invalid request."""

    def error(self, message):
        raise LrnDetectError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser: built on first use, then kept for the process."""
    p = _Parser(
        prog="lrn-detect",
        description="Detect long-range nonstabilizerness of TI MPS families.",
    )
    p.add_argument("--pipeline", choices=PIPELINES)
    p.add_argument("--input", help="tensor / weight / tableau input file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=20)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--tol-int", type=float, default=1e-6)
    p.add_argument("--qmax", type=int, default=10**6)
    return p


def _check(args: argparse.Namespace, unknown: list[str]) -> None:
    """The rules that tie flags together; argparse checks each flag alone.

    ``unknown`` holds what argparse did not recognize; it is reported with
    a missing ``--pipeline`` in one error, so neither hides the other.
    """
    problems = []
    if unknown:
        problems.append(f"unrecognized arguments: {' '.join(unknown)}")
    if args.pipeline is None:
        problems.append("the following arguments are required: --pipeline")
    if problems:
        raise LrnDetectError("; ".join(problems))
    if args.pipeline in ("analyze", "stab", "ghz") and not args.input:
        raise LrnDetectError(f"pipeline {args.pipeline!r} requires --input")
    if args.format == "csv" and args.pipeline not in CSV_PIPELINES:
        raise LrnDetectError(
            f"--format csv applies to {' and '.join(CSV_PIPELINES)} only, "
            f"not {args.pipeline!r}"
        )
    if args.n_min < 1 or args.n_max < args.n_min:
        raise LrnDetectError("need 1 <= n-min <= n-max")
    # typicality_log_ratio counts states of at least two qubits.
    if args.pipeline == "typicality" and args.n_min < 2:
        raise OutOfRange(f"typicality needs n-min >= 2, got {args.n_min}", n_min=args.n_min)
    width = args.n_max - args.n_min + 1
    if args.pipeline in ("typicality", "verify") and width > _WINDOW_CAP:
        raise OutOfRange(f"N window of {width} sizes above cap {_WINDOW_CAP}")
    # lrn_entropy_check and srn_ratio_check refuse these too, but only after
    # the decomposition.
    if args.pipeline == "analyze" and not 0.0 < args.tol_int < 0.5:
        raise OutOfRange(f"--tol-int must lie in (0, 0.5), got {args.tol_int}")
    if args.pipeline == "analyze" and args.qmax < 1:
        raise OutOfRange(f"--qmax must be at least 1, got {args.qmax}", qmax=args.qmax)


def _error_json(exc: Exception) -> dict:
    """One stderr object: error type, message and diagnostic payload."""
    payload = {k: json_value(v) for k, v in getattr(exc, "payload", {}).items()}
    return {"error": type(exc).__name__, "message": str(exc), "payload": payload}


def main(argv=None) -> int:
    try:
        args, unknown = _parser().parse_known_args(argv)
        _check(args, unknown)
        with one_thread():
            return _COMMANDS[args.pipeline](args)
    except (LrnDetectError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(json.dumps(_error_json(exc)), file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
