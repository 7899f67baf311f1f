"""lrn-detect benchmark: seeded closed-loop workloads with checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One client in one process runs a workload's op list (a *pass*) again and
again, each pass on fresh seeded inputs, until ``--seconds`` are used up,
and checks every op's output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see README.md).  ``all`` runs every workload, each in a
fresh process.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("analyze_mix", "canonical_ladder", "verify_suite", "clifford_scale")
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 120


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


# --- environment ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses ROOT.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "seed": seed,
    }


# --- running ops ------------------------------------------------------------------


class Tally:
    """Ops attempted and the failures among them, with their input ids."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[list[str]] = []

    def run(self, op, tracer=None) -> float:
        """Run, time and check one op; returns its latency in seconds."""
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = op.op_id
            tracer.active = True
        t = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a counted failure
            dt = time.perf_counter() - t
            self.failures.append([op.op_id, type(exc).__name__, str(exc)])
            traceback.print_exc(file=sys.stderr)
            return dt
        finally:
            if tracer is not None:
                tracer.active = False
        dt = time.perf_counter() - t
        try:
            op.check(out)
        except Exception as exc:
            self.failures.append([op.op_id, type(exc).__name__, str(exc)])
        return dt


def setup_times(name: str, seed: int, workdir: str, tally: Tally) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh interpreters."""
    out = []
    for k in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed + k), workdir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"set-up probe exited with code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.attempted += res["attempted"]
        tally.failures.extend(res["failures"])
        out.append(res["setup_s"])
    return out


def _keep_going(t_start: float, seconds: float, last_pass_s: float) -> bool:
    return time.perf_counter() - t_start + last_pass_s <= seconds


def untraced(make_pass, seed: int, seconds: float, workdir: str, tally: Tally):
    """Passes until the time is up; per-pass wall times and per-op latencies."""
    walls, lat = [], []
    t_start = time.perf_counter()
    p = 0
    while True:
        t_pass = time.perf_counter()
        ops = make_pass(seed, p, workdir)
        lat_pass = [tally.run(op) for op in ops]
        walls.append(sum(lat_pass))
        lat.extend(lat_pass)
        p += 1
        if not _keep_going(t_start, seconds, time.perf_counter() - t_pass):
            return walls, lat


def traced(make_pass, seed: int, seconds: float, workdir: str, tally: Tally, tracer):
    """Untraced and traced copies of each pass, alternating which goes first.

    Counts come from traced pass 0, which the seed alone determines; self
    times are means over the traced passes.  Returns the metrics and the
    spans of every traced pass.
    """
    import tracer as tr

    plain, wrapped, all_spans = [], [], []
    pass_times = []
    t_start = time.perf_counter()
    p = 0
    while True:
        t_pass = time.perf_counter()
        for traced_now in ((False, True) if p % 2 == 0 else (True, False)):
            ops = make_pass(seed, p, workdir)
            if traced_now:
                tracer.spans, tracer.stack = [], []
                tracer.install()
                try:
                    wrapped.append(sum(tally.run(op, tracer) for op in ops))
                finally:
                    tracer.uninstall()
                all_spans.append(tracer.spans)
                pass_times.append(tr.times(tracer.spans))
            else:
                plain.append(sum(tally.run(op) for op in ops))
        p += 1
        if not _keep_going(t_start, seconds, time.perf_counter() - t_pass):
            break
    metrics = tr.counts(all_spans[0])
    for key in tr.TIME_METRICS:
        metrics[key] = statistics.fmean(t[key] for t in pass_times)
    metrics["trace.overhead_ratio"] = sum(wrapped) / sum(plain) - 1.0
    return metrics, all_spans


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args) -> dict:
    if not os.path.isdir(os.path.join(SRC, "lrn_detect")):
        fail(f"no lrn_detect sources under {SRC}")
    sys.path.insert(0, SRC)
    os.environ.pop("LRN_DETECT_CACHE", None)  # no timed op may be served from disk
    # One BLAS thread: the matrices here gain nothing from a second thread, and
    # a threaded call stalls whenever another process holds one of the cores.
    os.environ.update({v: "1" for v in BLAS_THREAD_VARS})
    import lrn_detect

    if not os.path.abspath(lrn_detect.__file__).startswith(SRC + os.sep):
        fail(f"imported lrn_detect from {lrn_detect.__file__}, not from {SRC}")
    import tracer as tr
    import workloads

    env = environment(args.seed)
    units = metric_units()
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        fail(f"BLAS runs {env['blas_threads']} threads on {env['nproc']} CPUs")
    make_pass, make_warmup = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        setups = [] if args.trace else setup_times(args.workload, args.seed, workdir, tally)
        for op in make_warmup(args.seed, workdir):
            tally.run(op)
        if args.trace:
            metrics, spans = traced(make_pass, args.seed, args.seconds, workdir, tally,
                                    tr.Tracer())
            samples = {}
            _write_spans(args, spans)
        else:
            walls, lat = untraced(make_pass, args.seed, args.seconds, workdir, tally)
            q = statistics.quantiles(lat, n=10, method="inclusive")
            metrics = {
                "wall_s": statistics.median(walls),
                "op_p50_s": statistics.median(lat),
                "op_p90_s": q[8],
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setups),
            }
            samples = {"wall_s": len(walls), "op_p50_s": len(lat), "op_p90_s": len(lat),
                       "peak_rss_mib": 1, "setup_s": len(setups)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    for op_id, kind, msg in tally.failures:
        print(f"  FAILED {op_id}: {kind}: {msg}")
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _write_spans(args, spans) -> None:
    """Spans of the traced passes as JSON lines, one file per run."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as f:
        for p, pass_spans in enumerate(spans):
            for i, (name, _, start, end, parent, op_id, _) in enumerate(pass_spans):
                f.write(json.dumps([p, i, name, start, end, parent, op_id]) + "\n")


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics prefixed by workload name."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        result["correct"] = result["correct"] and res["correct"]
        result["attempted"] += res["attempted"]
        result["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            result["metrics"][f"{name}.{k}"] = v
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
