"""File formats and the command-line front door."""

import hashlib
import json
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrn_detect import ExactWeight, causal_cone_reduce, rg_fixed_point
from lrn_detect.cli import main
from lrn_detect.errors import (
    ConvergenceFailure,
    DecompositionFailure,
    LrnDetectError,
    NonDiagonalizablePeripheral,
    OutOfRange,
    ScaleOutOfRange,
    SizeCap,
)
from lrn_detect.families import (
    alternating_tensor,
    counterexample_exact_weights,
    counterexample_tensor,
    ghz_tensor,
    phase_loop_tensor,
    random_normal_tensor,
)
from lrn_detect.io import dump_report, load_tensor, rows_to_csv, save_tensor, tensor_from_json
from oracles import weight_spectrum_from_json


@pytest.fixture
def fixture_dir(tmp_path):
    save_tensor(
        tmp_path / "ghz03.json",
        ghz_tensor(),
        [ExactWeight.from_rational(3, 10), ExactWeight.from_rational(7, 10)],
    )
    save_tensor(tmp_path / "ghz.json", ghz_tensor())
    save_tensor(
        tmp_path / "counter.json",
        counterexample_tensor(),
        counterexample_exact_weights(),
    )
    save_tensor(tmp_path / "loop.json", phase_loop_tensor(math.pi / 3))
    (tmp_path / "half.json").write_text('{"rat": [1, 2]}')
    (tmp_path / "w03.json").write_text('{"float": 0.3}')
    (tmp_path / "bell.json").write_text(
        json.dumps({"tableau": "+XXI\n+ZZI\n+IIZ", "region_a": [0], "region_b": [1]})
    )
    (tmp_path / "broken.json").write_text('{"d": 2, "chi": "nope"}')
    return tmp_path


def test_tensor_round_trip(tmp_path):
    t = random_normal_tensor(3, 2, seed=3)
    weights = [ExactWeight.from_float(0.25), ExactWeight.from_rational(3, 4)]
    save_tensor(tmp_path / "t.json", t, weights)
    back, w_back = load_tensor(tmp_path / "t.json")
    assert np.allclose(back.matrices, t.matrices)
    assert w_back == weights


def test_tensor_from_json_validates():
    from lrn_detect.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        tensor_from_json({"d": 2, "chi": 1, "matrices": [[[[0, 0]]]]})


@pytest.mark.parametrize("matrices", [5, [5], [[5]]] + [
    [[[entry]]]
    for entry in ([1.0], "ab", [1.0, "x"], None, [1.0, 0.0, 5.0], [True, False], [10**400, 0.0])
], ids=["int", "int-matrix", "int-row", "one-number", "string", "str-part", "null",
        "three-numbers", "bools", "overflow"])
def test_tensor_from_json_rejects_malformed_matrices(matrices):
    from lrn_detect.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        tensor_from_json({"d": 1, "chi": 1, "matrices": matrices})


def test_tensor_from_json_keeps_the_bits_of_each_part():
    entries = [[-0.0, 0.0], [0.0, -0.0], [1, -2], [0.1, 5e-324]]
    a, _ = tensor_from_json({"d": 1, "chi": 2, "matrices": [[entries[:2], entries[2:]]]})
    parts = np.stack([a.matrices.real, a.matrices.imag], axis=-1).reshape(-1, 2)
    assert parts.tobytes() == np.array(entries, dtype=float).tobytes()


@pytest.mark.parametrize(
    "d, chi",
    [(1.9, True), ("1", 1), (1, "1"), (1.0, 1), (1, 1.0), (True, 1), (None, 1)],
    ids=["float-bool", "str-d", "str-chi", "float-d", "float-chi", "bool-d", "null-d"],
)
def test_tensor_from_json_rejects_non_integer_header(d, chi):
    from lrn_detect.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        tensor_from_json({"d": d, "chi": chi, "matrices": [[[[1, 0]]]]})


def test_csv_rows():
    text = rows_to_csv([{"a": 1, "b": 2.5}, {"a": 3, "c": "x,y"}], None)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2.5,"
    assert lines[2] == '3,,"x,y"'


def test_cli_exit_codes(fixture_dir, capsys):
    assert main(["--pipeline", "analyze", "--input", str(fixture_dir / "ghz03.json")]) == 0
    capsys.readouterr()
    assert main(["--pipeline", "analyze", "--input", str(fixture_dir / "ghz.json")]) == 3
    capsys.readouterr()
    assert main(["--pipeline", "analyze", "--input", str(fixture_dir / "counter.json")]) == 2
    capsys.readouterr()
    assert main(["--pipeline", "analyze", "--input", str(fixture_dir / "broken.json")]) == 1
    out = capsys.readouterr()
    assert out.out == ""  # errors narrate on stderr only
    assert "error" in out.err


def test_cli_analyze_report_contents(fixture_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["--pipeline", "analyze", "--input", str(fixture_dir / "ghz.json"),
         "--out", str(out)]
    )
    assert code == 3
    report = json.loads(out.read_text())
    assert report["canonical_form"]["num_groups"] == 2
    v = report["verdicts"]["entropy_criterion"]
    assert v["status"] == "INCONCLUSIVE"
    assert abs(v["evidence"]["classes"][0]["entropy"] - 1.0) < 1e-9
    assert [set(b) for b in report["fixed_point"]] == [
        {"label", "lambda2", "schmidt_weights"}
    ] * 2
    assert [b["lambda2"] for b in report["fixed_point"]] == [0.0, 0.0]


def test_cli_analyze_counterexample_evidence(fixture_dir, tmp_path):
    out = tmp_path / "c.json"
    assert main(
        ["--pipeline", "analyze", "--input", str(fixture_dir / "counter.json"),
         "--out", str(out)]
    ) == 2
    report = json.loads(out.read_text())
    ratio = report["verdicts"]["ratio_criterion"]["evidence"]["offending_pair"]
    assert ratio["ratio"] == "3^(1/2)"
    assert abs(ratio["value"] - math.sqrt(3)) < 1e-9


def test_cli_determinism(fixture_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--pipeline", "analyze", "--input", str(fixture_dir / "loop.json"), "--seed", "7"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_ghz_pipeline(fixture_dir, capsys):
    assert main(["--pipeline", "ghz", "--input", str(fixture_dir / "half.json")]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["label"] == "SRN"
    assert main(["--pipeline", "ghz", "--input", str(fixture_dir / "w03.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["label"] == "LRN"


def test_cli_stab_pipeline(fixture_dir, capsys):
    assert main(["--pipeline", "stab", "--input", str(fixture_dir / "bell.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["entropy_a"] == 1
    assert report["mutual_information"] == 2


def test_cli_typicality_sweep(capsys):
    assert main(["--pipeline", "typicality", "--n-min", "20", "--n-max", "24",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(v < 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "pipeline, input_name",
    [("analyze", "ghz.json"), ("verify", None), ("stab", "bell.json"), ("ghz", "half.json")],
)
def test_cli_refuses_csv_without_rows(pipeline, input_name, fixture_dir, capsys):
    # Only typicality reports carry rows; the others must not fall back to
    # JSON under --format csv.
    argv = ["--pipeline", pipeline, "--format", "csv"]
    if input_name:
        argv += ["--input", str(fixture_dir / input_name)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "LrnDetectError"
    assert "--format csv" in error["message"]


def test_cli_verify_small(capsys):
    code = main(["--pipeline", "verify", "--n-min", "1", "--n-max", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["passed"] is True
    assert {s["suite"] for s in report["suites"]} == {
        "clifford_quantization", "invariance", "causal_cone", "flatness",
    }
    # verify runs one configuration: every suite runs, none is skipped.
    assert "depth" not in report
    assert not any("skipped" in s or "depth" in s for s in report["suites"])


def test_cli_verify_catches_a_wrong_causal_cone_reduction(monkeypatch, capsys):
    # u_a with its first two sites exchanged, on rows and columns alike: the
    # channel formula no longer equals the evolved state rotated by u_a ⊗ u_b.
    import dataclasses

    from lrn_detect import verify

    def swapped(circuit, partition):
        red = causal_cone_reduce(circuit, partition)
        k = len(partition.a)
        u = red.u_a.reshape([2] * (2 * k))
        axes = list(range(2 * k))
        axes[0], axes[1], axes[k], axes[k + 1] = 1, 0, k + 1, k
        u_a = u.transpose(axes).reshape(red.u_a.shape)
        return dataclasses.replace(red, u_a=u_a)

    monkeypatch.setattr(verify, "causal_cone_reduce", swapped)
    code = main(["--pipeline", "verify", "--n-min", "1", "--n-max", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["passed"] is False
    suite = next(s for s in report["suites"] if s["suite"] == "causal_cone")
    assert suite["passed"] is False
    assert suite["replay"] == {"seed": 0}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_split_suites_equal_the_in_process_composition(seed):
    # The cone suite runs in a forked child; its report, and the three the
    # parent runs, equal those of every suite run here over the same circuits.
    import itertools

    from lrn_detect import families, verify

    trials = 4
    shared = [verify._ring_circuit(s) for s in range(seed, seed + max(2, trials // 4))]
    rest = map(verify._ring_circuit, range(seed + len(shared), seed + trials))
    probs = families.counterexample_probs(families.counterexample_t_star())
    expected = [
        verify._verify_clifford_quantization(seed, trials * 4),
        verify._verify_invariance(shared, probs),
        verify._verify_flatness(seed, trials, probs),
        verify._verify_causal_cone(itertools.chain(shared, rest)),
    ]
    assert verify.suites(seed, trials) == expected
    assert multiprocessing.active_children() == []


def test_verify_suites_run_one_blas_thread_and_restore_the_count(monkeypatch):
    # Parent and child each at one BLAS thread: two pools as wide as the
    # machine stall each other.  The caller's count is back afterwards.
    from lrn_detect import verify

    calls = verify._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    set_threads, get_threads = calls
    flatness = verify._verify_flatness

    def counted_flatness(*args):
        return {**flatness(*args), "threads": get_threads()}

    monkeypatch.setattr(verify, "_verify_flatness", counted_flatness)
    monkeypatch.setattr(verify, "_verify_causal_cone", lambda circuits: {"threads": get_threads()})
    before = get_threads()
    set_threads(2)
    try:
        reports = verify.suites(0, 4)
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert [r["threads"] for r in reports[2:]] == [1, 1]


def _raise(exc):
    def raising(*args):
        raise exc
    return raising


def _exit_nine(*args):
    os._exit(9)


@pytest.mark.parametrize("patches, expect", [
    # The child's error reaches stderr as an in-process raise would.
    ({"_verify_causal_cone": _raise(SizeCap("cone", cap=1))},
     {"error": "SizeCap", "message": "cone", "payload": {"cap": 1}}),
    # A parent suite's error; the child is killed.
    ({"_verify_flatness": _raise(OutOfRange("flat", trial=3))},
     {"error": "OutOfRange", "message": "flat", "payload": {"trial": 3}}),
    # Both fail: the parent's suite comes first in report order.
    ({"_verify_flatness": _raise(OutOfRange("flat", trial=3)),
      "_verify_causal_cone": _raise(SizeCap("cone", cap=1))},
     {"error": "OutOfRange", "message": "flat", "payload": {"trial": 3}}),
    # The child dies without a word: a named error with its exit code.
    ({"_verify_causal_cone": _exit_nine},
     {"error": "LrnDetectError",
      "message": "the causal-cone suite's process ended without a result",
      "payload": {"exitcode": 9}}),
])
def test_cli_verify_suite_errors_leave_no_process(patches, expect, monkeypatch, capsys):
    from lrn_detect import verify

    for name, fn in patches.items():
        monkeypatch.setattr(verify, name, fn)
    code = main(["--pipeline", "verify", "--n-min", "1", "--n-max", "4"])
    streams = capsys.readouterr()
    assert code == 1 and streams.out == ""
    assert json.loads(streams.err) == expect  # one JSON object, no traceback
    assert multiprocessing.active_children() == []


def test_cli_verify_passing_run_leaves_no_process(capsys):
    assert main(["--pipeline", "verify", "--n-min", "1", "--n-max", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("depth", [-1, 0, 1, 2])
def test_cli_verify_depth_is_an_unknown_flag(depth, monkeypatch, capsys):
    from lrn_detect.dense import DenseState

    def refuse(self):
        raise AssertionError("a dense state was built for a malformed command line")

    monkeypatch.setattr(DenseState, "__post_init__", refuse)
    code = main(["--pipeline", "verify", "--n-min", "1", "--n-max", "4",
                 "--depth", str(depth)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    err = json.loads(out.err)
    assert err["error"] == "LrnDetectError"
    assert "--depth" in err["message"]


@pytest.mark.parametrize("window", [["--n-min", "0"], ["--n-min", "5", "--n-max", "4"]],
                         ids=["n-min-0", "n-min-above-n-max"])
def test_cli_rejects_bad_size_window(window, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["--pipeline", "typicality", *window, "--out", str(out)]) == 1
    streams = capsys.readouterr()
    assert streams.out == "" and not out.exists()
    assert json.loads(streams.err) == {
        "error": "LrnDetectError", "message": "need 1 <= n-min <= n-max", "payload": {},
    }


def test_cli_typicality_refuses_n_min_below_two_before_any_row(tmp_path, monkeypatch,
                                                               capsys):
    from lrn_detect import cli

    def refuse(n):
        raise AssertionError("a row was built for n-min 1")

    monkeypatch.setattr(cli, "typicality_log_ratio", refuse)
    out = tmp_path / "r.json"
    argv = ["--pipeline", "typicality", "--n-min", "1", "--n-max", "3", "--out", str(out)]
    assert main(argv) == 1
    streams = capsys.readouterr()
    assert streams.out == "" and not out.exists()
    assert json.loads(streams.err) == {
        "error": "OutOfRange", "message": "typicality needs n-min >= 2, got 1",
        "payload": {"n_min": 1},
    }


@pytest.mark.parametrize("pipeline, refused", [
    ("typicality", ["cli.typicality_log_ratio"]),
    ("verify", ["verify._verify_clifford_quantization", "verify._verify_invariance",
                "verify._verify_flatness", "verify._verify_causal_cone"]),
])
def test_cli_refuses_a_window_above_the_cap_before_any_work(pipeline, refused, tmp_path,
                                                           monkeypatch, capsys):
    from lrn_detect import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a row or trial was built for a window above the cap")

    for name in refused:
        monkeypatch.setattr(f"lrn_detect.{name}", refuse)
    out = tmp_path / "r.json"
    argv = ["--pipeline", pipeline, "--n-min", "2", "--n-max", str(cli._WINDOW_CAP + 2)]
    assert main([*argv, "--out", str(out)]) == 1
    streams = capsys.readouterr()
    assert streams.out == "" and not out.exists()
    assert json.loads(streams.err) == {
        "error": "OutOfRange", "payload": {},
        "message": f"N window of {cli._WINDOW_CAP + 1} sizes above cap {cli._WINDOW_CAP}",
    }


def test_cli_window_cap_admits_its_own_width_and_spares_analyze(fixture_dir, capsys):
    from lrn_detect import cli

    n_max = cli._WINDOW_CAP + 1  # n = 2 .. n_max is exactly the cap wide
    assert main(["--pipeline", "typicality", "--n-min", "2", "--n-max", str(n_max)]) == 0
    assert len(json.loads(capsys.readouterr().out)["sweep"]) == cli._WINDOW_CAP
    argv = ["--pipeline", "analyze", "--input", str(fixture_dir / "ghz.json"),
            "--n-min", "1", "--n-max", str(10 * cli._WINDOW_CAP)]
    assert main(argv) in (0, 2, 3)
    assert json.loads(capsys.readouterr().out)["canonical_form"]["num_blocks"] == 2


def test_cli_builds_one_parser_per_process(monkeypatch, capsys):
    import argparse

    from lrn_detect import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["--pipeline", "typicality", "--n-min", "20", "--n-max", "21"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_cli_requires_input(capsys):
    assert main(["--pipeline", "analyze"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_verify_deterministic_report(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--pipeline", "verify", "--n-min", "1", "--n-max", "3", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_stab_corrupted_tableau(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tableau": "+XX\n+XX", "region_a": [0]}))
    assert main(["--pipeline", "stab", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "dependent" in err.lower() or "anticommute" in err.lower()


def test_analyze_report_reingests(fixture_dir, tmp_path):
    out = tmp_path / "r.json"
    main(["--pipeline", "analyze", "--input", str(fixture_dir / "loop.json"),
          "--out", str(out)])
    report = json.loads(out.read_text())
    spectrum = weight_spectrum_from_json(report["weight_spectrum"])
    assert spectrum.num_blocks == 2


def test_cli_analyze_defective_peripheral_is_one_group(tmp_path, capsys):
    # A Jordan block on level 0 leaves the peripheral space defective; the
    # junk drops out, and one product block is left at its fixed point.
    from lrn_detect import MpsTensor

    jordan = np.zeros((2, 2, 2), dtype=complex)
    jordan[0] = [[1.0, 1.0], [0.0, 1.0]]
    save_tensor(tmp_path / "jordan.json", MpsTensor(jordan))
    assert main(["--pipeline", "analyze", "--input", str(tmp_path / "jordan.json")]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["fixed_point"] == [
        {"label": "group0", "lambda2": 0.0, "schmidt_weights": [1.0]}
    ]


def test_cli_stab_raw_text_input(tmp_path, capsys):
    raw = tmp_path / "gens.txt"
    raw.write_text("+XX\n+ZZ\n")
    assert main(["--pipeline", "stab", "--input", str(raw)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["canonical"] == ["+XX", "+ZZ"]
    assert "entropy_a" not in report


def test_cli_analyze_weight_count_mismatch(tmp_path, capsys):
    from lrn_detect.io import save_tensor

    save_tensor(tmp_path / "bad.json", ghz_tensor(), [ExactWeight.from_float(1.0)])
    assert main(["--pipeline", "analyze", "--input", str(tmp_path / "bad.json")]) == 1
    assert "exact weights" in capsys.readouterr().err


def test_cli_analyze_refuses_exact_weights_for_a_group_of_gauge_copies(tmp_path, capsys):
    # The π/2 loop has a singleton group and a group of two gauge copies,
    # whose weight |2 cos(πN/2)|² vanishes at every odd N.  Constant
    # weights 3/10 and 7/10 would certify it, where the tensor alone reads
    # INCONCLUSIVE.
    plain, annotated = tmp_path / "plain.json", tmp_path / "annotated.json"
    save_tensor(plain, phase_loop_tensor(math.pi / 2))
    save_tensor(annotated, phase_loop_tensor(math.pi / 2),
                [ExactWeight.from_rational(3, 10), ExactWeight.from_rational(7, 10)])
    assert main(["--pipeline", "analyze", "--input", str(plain)]) == 3
    capsys.readouterr()
    assert main(["--pipeline", "analyze", "--input", str(annotated)]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    err = json.loads(streams.err)
    assert err["error"] == "LrnDetectError"
    assert "group sizes [1, 2]" in err["message"]


def test_reports_stay_strict_json(tmp_path):
    from lrn_detect.io import dump_report

    text = dump_report({"x": float("inf"), "y": [float("-inf"), 1.0]}, None)
    parsed = json.loads(text)  # strict JSON: non-finite floats became strings
    assert parsed["x"] == "inf"
    assert parsed["y"][0] == "-inf"


def _json_dumps_report(obj) -> str:
    """Oracle: the report text as ``json.dumps`` writes it after a strict walk.

    The walk turns numpy scalars into Python numbers, arrays into lists,
    complex numbers into ``{re, im}`` and non-finite floats into their
    ``repr`` strings; ``allow_nan=False`` then refuses any bare NaN or
    Infinity.
    """

    def strict(x):
        if isinstance(x, np.ndarray):
            return strict(x.tolist())
        if isinstance(x, (complex, np.complexfloating)):
            return {"re": strict(x.real), "im": strict(x.imag)}
        if isinstance(x, (np.floating, np.integer)):
            return strict(x.item())
        if isinstance(x, float) and not math.isfinite(x):
            return repr(x)
        if isinstance(x, dict):
            return {k: strict(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(v) for v in x]
        return x

    return json.dumps(strict(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def test_report_writer_is_strict_on_numpy_and_complex_values():
    def refuse(name):
        raise AssertionError(f"bare {name} in the report text")

    inf, nan = float("inf"), float("nan")
    report = {
        "f64": np.float64(inf),
        "f32": np.float32(nan),
        "c": complex(inf, -inf),
        "arr": np.array([nan, 1.0, -inf]),
        "carr": np.array([1 + 1j, complex(nan, 0.0)]),
    }
    got = json.loads(dump_report(report, None), parse_constant=refuse)
    assert got == {
        "f64": "inf",
        "f32": "nan",
        "c": {"re": "inf", "im": "-inf"},
        "arr": ["nan", 1.0, "-inf"],
        "carr": [{"re": 1.0, "im": 1.0}, {"re": "nan", "im": 0.0}],
    }


@pytest.mark.parametrize("argv", [
    *[["--pipeline", "analyze", "--input", name] for name in (
        "ghz03.json", "ghz.json", "counter.json", "loop.json", "loop_irrational.json",
        "loop_7_997.json", "alternating.json", "product.json", "counter_plain.json",
    )],
    ["--pipeline", "stab", "--input", "bell.json"],
    ["--pipeline", "ghz", "--input", "half.json"],
    ["--pipeline", "ghz", "--input", "w03.json"],
    ["--pipeline", "typicality", "--n-min", "20", "--n-max", "24"],
    ["--pipeline", "typicality", "--n-min", "2", "--n-max", "1024"],  # 14 chunks
    ["--pipeline", "verify", "--n-min", "1", "--n-max", "1"],
], ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")))
def test_report_writer_matches_json_dumps(argv, fixture_dir, monkeypatch, capsys):
    from lrn_detect import cli
    from lrn_detect.families import pattern_tensor

    save_tensor(fixture_dir / "loop_irrational.json", phase_loop_tensor(math.sqrt(2.0)))
    save_tensor(fixture_dir / "loop_7_997.json", phase_loop_tensor(2 * math.pi * 7 / 997))
    save_tensor(fixture_dir / "alternating.json", alternating_tensor())
    save_tensor(fixture_dir / "product.json", pattern_tensor([0], [1.0], 2))
    save_tensor(fixture_dir / "counter_plain.json", counterexample_tensor())
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    reports = []

    def recording(obj, path):
        reports.append(obj)
        return dump_report(obj, path)

    monkeypatch.setattr(cli, "dump_report", recording)
    assert main(argv) in (0, 2, 3)
    (report,) = reports
    assert capsys.readouterr().out == _json_dumps_report(report)


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.complex_numbers(),
    st.lists(st.floats(), max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2))),
)
_json_trees = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_report_writer_matches_json_dumps_on_trees(tree):
    from unittest import mock

    from lrn_detect import io

    expected = _json_dumps_report(tree)
    assert dump_report(tree, None) == expected
    # Tiny chunks put a join between nearly every pair of members.
    for pieces in (0, 1, 2, 5):
        with mock.patch.object(io, "_CHUNK_PIECES", pieces):
            assert dump_report(tree, None) == expected


def _class_report(classes: int) -> dict:
    """A report with one evidence dict per residue class, as ``analyze`` writes them."""
    return {
        "mode": "periodic",
        "period": classes,
        "classes": [
            {"residue": r, "n": classes + r, "entropy": 1.0 + r / 7.0,
             "distance": 1.0 / (r + 3)}
            for r in range(classes)
        ],
    }


def _boundary_reports():
    from lrn_detect.io import _CHUNK_PIECES

    inf, nan = float("inf"), float("nan")
    odd_leaves = [inf, -inf, nan, np.float64(-inf), np.float32(0.5), np.int64(-7),
                  complex(nan, 1.0), np.complex128(2.0 - 3.0j), np.array([inf, 1.0]), None]
    return {
        "classes_1e4": _class_report(10**4),
        "nested_odd_leaves": [[odd_leaves] * 3, {"deep": [[odd_leaves]] * 200}] * 20,
        # Every member is empty, so each join is followed by an empty list,
        # tuple or dict, at four offsets of the piece count.
        "empty_members": [
            [[]] * (3 * _CHUNK_PIECES),
            [()] * (3 * _CHUNK_PIECES + 1),
            {f"k{i:05d}": {} for i in range(3 * _CHUNK_PIECES + 2)},
            [[[], {}]] * (2 * _CHUNK_PIECES),
        ],
    }


@pytest.mark.parametrize("name", ["classes_1e4", "nested_odd_leaves", "empty_members"])
def test_report_writer_matches_json_dumps_past_chunk_boundaries(name, tmp_path, monkeypatch):
    from lrn_detect import io

    joins = []
    join = io._join_pieces

    def counting(out, chunks):
        joins.append(len(out))
        join(out, chunks)

    monkeypatch.setattr(io, "_join_pieces", counting)
    report = _boundary_reports()[name]
    expected = _json_dumps_report(report)
    assert dump_report(report, None) == expected
    assert len(joins) >= 4  # three joins as it goes and the final one
    assert max(joins) <= io._CHUNK_PIECES + 16  # joined between members
    path = tmp_path / "report.json"
    assert dump_report(report, str(path)) == expected
    assert path.read_text(encoding="utf-8") == expected


def test_report_writer_peak_memory_is_bounded(tmp_path, traced_peak):
    # Every token was its own string until one final join: 9.6 times the
    # text, written.  Now at most one chunk of tokens is pending, and the
    # chunks and their join about double the text.
    report = _class_report(10**4)
    text, peak = traced_peak(lambda: dump_report(report, str(tmp_path / "r.json")))
    assert len(text) > 10**6
    assert peak <= 3 * len(text)


def test_writers_return_the_text_they_write(tmp_path):
    # The benchmark's tracer counts a written report's bytes as
    # len(returned text.encode()), so the two must agree byte for byte.
    report = {"input": "tensör.json", "x": [1.5, float("nan"), {"re": 0.0, "im": -1.0}]}
    rows = [{"n": 2, "label": "naïve, \"quoted\""}, {"n": 3, "log_ratio": -0.5}]
    for write, obj in ((dump_report, report), (rows_to_csv, rows)):
        path = tmp_path / f"{write.__name__}.out"
        text = write(obj, str(path))
        assert path.read_bytes() == text.encode()


def test_cli_analyze_decaying_block(tmp_path, capsys):
    from lrn_detect.families import pattern_tensor
    from lrn_detect.io import save_tensor

    save_tensor(tmp_path / "decay.json", pattern_tensor([0, 1], [1.0, 0.5], d=2))
    assert main(["--pipeline", "analyze", "--input", str(tmp_path / "decay.json")]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["canonical_form"]["num_blocks"] == 2
    surviving = [b for b in report["canonical_form"]["blocks"] if b["surviving"]]
    assert len(surviving) == 1
    assert report["verdicts"]["entropy_criterion"]["evidence"]["reason"] == "single block"


def test_cli_analyze_triangular_junk(tmp_path, capsys):
    import numpy as np

    from lrn_detect import MpsTensor
    from lrn_detect.io import save_tensor

    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0] = np.array([[1.0, 0.8], [0.0, 0.0]])
    mats[1] = np.array([[0.0, -0.3], [0.0, 1.0]])
    save_tensor(tmp_path / "junk.json", MpsTensor(mats))
    assert main(["--pipeline", "analyze", "--input", str(tmp_path / "junk.json")]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["canonical_form"]["num_groups"] == 2  # junk invisible to the family


def test_cli_analyze_chi12_normal(tmp_path, capsys):
    # The fixed point is read in closed form, so no flow step caps the bond
    # dimension: a single normal block is inconclusive, not an error.
    save_tensor(tmp_path / "chi12.json", random_normal_tensor(2, 12, seed=12))
    assert main(["--pipeline", "analyze", "--input", str(tmp_path / "chi12.json")]) == 3
    report = json.loads(capsys.readouterr().out)
    (entry,) = report["fixed_point"]
    lam = np.array(entry["schmidt_weights"])
    assert lam.shape == (12,)
    assert abs(float(np.sum(lam)) - 1.0) < 1e-12
    assert np.all(lam > 0) and np.all(np.diff(lam) <= 0)


@pytest.mark.parametrize("pipeline", ["analyze"])
def test_cli_transfer_cap_is_a_named_error(pipeline, tmp_path, capsys):
    # chi = 65 puts the transfer matrix past its cap (chi**2 <= 4096).
    from lrn_detect import MpsTensor

    rng = np.random.default_rng(65)
    save_tensor(tmp_path / "chi65.json", MpsTensor(rng.standard_normal((2, 65, 65))))
    assert main(["--pipeline", pipeline, "--input", str(tmp_path / "chi65.json")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "SizeCap"


def test_tensor_from_json_checks_shape_before_allocating(traced_peak):
    from lrn_detect.errors import DimensionMismatch

    def all_rejected():
        with pytest.raises(DimensionMismatch):
            tensor_from_json({"d": 1, "chi": 10**5, "matrices": []})
        with pytest.raises(DimensionMismatch):
            tensor_from_json({"d": 1, "chi": 10**5, "matrices": [[]]})
        with pytest.raises(DimensionMismatch):
            tensor_from_json({"d": -1, "chi": 2, "matrices": []})

    _, peak = traced_peak(all_rejected)
    assert peak < 2**20


def test_cli_analyze_composite_with_chi10_block(tmp_path, capsys):
    from lrn_detect import MpsTensor, transfer_spectral

    specs = [(10, 1.0), (2, -1.0), (2, 0.5)]  # the last block decays
    dim = sum(chi for chi, _ in specs)
    mats = np.zeros((2, dim, dim), dtype=complex)
    off = 0
    for k, (chi, mu) in enumerate(specs):
        t = random_normal_tensor(2, chi, seed=40 + k)
        t = t.scaled(mu / math.sqrt(transfer_spectral(t).radius))
        mats[:, off : off + chi, off : off + chi] = t.matrices
        off += chi
    rng = np.random.default_rng(10)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x += 2.5 * dim * np.eye(dim)
    save_tensor(tmp_path / "comp.json",
                MpsTensor(np.einsum("ab,ibc,cd->iad", np.linalg.inv(x), mats, x)))
    assert main(["--pipeline", "analyze", "--input", str(tmp_path / "comp.json")]) == 3
    report = json.loads(capsys.readouterr().out)
    blocks = report["canonical_form"]["blocks"]
    assert sorted(b["bond_dim"] for b in blocks) == [2, 2, 10]
    surviving = sorted({b["group"] for b in blocks if b["surviving"]})
    assert [e["label"] for e in report["fixed_point"]] == [f"group{g}" for g in surviving]
    assert sorted(len(e["schmidt_weights"]) for e in report["fixed_point"]) == [2, 10]


@pytest.mark.parametrize("name,eigvals_sizes,eig_sizes", [
    ("chi8", [64], []),
    ("chi12", [144], []),
    ("ghz", [4], [2, 2]),
], ids=["chi8", "chi12", "ghz"])
def test_cli_analyze_reuses_canonical_factorizations(
    name, eigvals_sizes, eig_sizes, tmp_path, count_linalg
):
    # The fixed point is read from the blocks' normality witnesses, so
    # analyze factorizes no matrix beyond canonical_decompose: one eigvals
    # per transfer matrix of chi > 1 (ghz's two scalar blocks need none), and
    # eig only on the 2 x 2 Ritz matrix of ghz's degenerate peripheral
    # cluster, once per inverse-iteration sweep.  No flow step caps the bond
    # dimension.
    tensor = {
        "chi8": lambda: random_normal_tensor(2, 8, seed=8),
        "chi12": lambda: random_normal_tensor(2, 12, seed=7),
        "ghz": ghz_tensor,
    }[name]()
    save_tensor(tmp_path / "t.json", tensor)
    calls = count_linalg()
    out = tmp_path / "r.json"
    assert main(["--pipeline", "analyze", "--input", str(tmp_path / "t.json"),
                 "--out", str(out)]) == 3
    assert sorted(calls["eigvals"]) == eigvals_sizes
    assert calls["eig"] == eig_sizes


@pytest.mark.parametrize("route", ["analyze", "rg"])
@pytest.mark.parametrize("name", [
    "ghz", "loop_pi3", "loop_7_997", "alternating", "counterexample", "chi6", "copy_composite",
])
def test_cli_runs_no_eig_on_a_transfer_matrix(
    name, route, tmp_path, count_linalg, copy_composite, capsys
):
    # Spectra come from eigvals; eig only ever sees a peripheral block's
    # Ritz matrix, which is smaller than any transfer matrix of the input.
    # The routes: the analyze pipeline, and rg_fixed_point, which verify's
    # invariance suite runs.
    tensor = {
        "ghz": ghz_tensor,
        "loop_pi3": lambda: phase_loop_tensor(math.pi / 3),
        "loop_7_997": lambda: phase_loop_tensor(2 * math.pi * 7 / 997),
        "alternating": alternating_tensor,
        "counterexample": counterexample_tensor,
        "chi6": lambda: random_normal_tensor(3, 6, seed=6),
        "copy_composite": lambda: copy_composite(np.random.default_rng(3), 2, [3, 2], np.exp(0.4j)),
    }[name]()
    save_tensor(tmp_path / "t.json", tensor)
    calls = count_linalg()
    if route == "analyze":
        assert main(["--pipeline", "analyze", "--input", str(tmp_path / "t.json")]) in (0, 2, 3)
    else:
        assert rg_fixed_point(tensor).blocks
    assert tensor.bond_dim ** 2 in calls["eigvals"]
    assert all(size < tensor.bond_dim ** 2 for size in calls["eig"])


# SHA-256 of the analyze report on stdout, and the exit code, per fixture.
# The same under 1 and 2 BLAS threads; a change that moves one bit of a
# report must update the digest and say why.
_REPORT_DIGESTS = {
    "ghz": (3, "6edde7bcc9c8be4c612905436db8fdae2a2d46fc4b97979d5461db3cc5f27102"),
    "ghz_3_7": (0, "68f1c5ba7b7982b99441ed13afe65eb920e45b2f74838023f0012983599a0a4d"),
    "loop_pi3": (3, "ecae93a38886aed8c10c7da337a2a7673e47675470bf3538826c7a2c04d621a9"),
    "loop_sqrt2": (0, "c55746bfb1476dcfe356877b835abd01e87909434842bd11c241abba0354e0ad"),
    "loop_7_997": (0, "18759e5b8aa572970f791bd071711c58eb23f9f3c25a3727ff5c65777875a8ee"),
    "alternating": (3, "358f00b39b83d4856c25895db987189cd814c5d4c815b2fb4e85a1a826b22f5c"),
    "counterexample": (2, "cc99df09167956a68937dfb35ead68f673212e6520ac9049487d2b34174f9bd9"),
}


@pytest.mark.parametrize("name", list(_REPORT_DIGESTS))
def test_cli_analyze_reports_are_byte_stable(name, tmp_path, monkeypatch, capsys):
    # The input path is relative, so the report does not depend on where
    # the test runs.
    tensor, weights = {
        "ghz": lambda: (ghz_tensor(), None),
        "ghz_3_7": lambda: (ghz_tensor(), [ExactWeight.from_rational(3, 10),
                                           ExactWeight.from_rational(7, 10)]),
        "loop_pi3": lambda: (phase_loop_tensor(math.pi / 3), None),
        "loop_sqrt2": lambda: (phase_loop_tensor(math.sqrt(2)), None),
        "loop_7_997": lambda: (phase_loop_tensor(2 * math.pi * 7 / 997), None),
        "alternating": lambda: (alternating_tensor(), None),
        "counterexample": lambda: (counterexample_tensor(), counterexample_exact_weights()),
    }[name]()
    monkeypatch.chdir(tmp_path)
    save_tensor(Path("t.json"), tensor, weights)
    code = main(["--pipeline", "analyze", "--input", "t.json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == _REPORT_DIGESTS[name]


@pytest.mark.parametrize("make_error,field,expect", [
    (lambda: DecompositionFailure("split failed", spectrum=np.array([1.0, 0.5j])),
     "spectrum", [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.5}]),
    (lambda: NonDiagonalizablePeripheral("defective", spectrum=np.array([1.0 + 0j, -1.0])),
     "spectrum", [{"re": 1.0, "im": 0.0}, {"re": -1.0, "im": 0.0}]),
    (lambda: LrnDetectError("clustered", singular_values=np.array([1.0, 1e-5])),
     "singular_values", [1.0, 1e-5]),
    (lambda: ConvergenceFailure("stuck", last_residual=np.float64(0.25)),
     "last_residual", 0.25),
    # A keyword passed as None is left out.
    (lambda: ScaleOutOfRange("underflow", norm=1e-170, spectrum=None), "norm", 1e-170),
    # Any keyword of the raise is payload, not only the ones above.
    (lambda: OutOfRange("x", margin=np.float64(0.5)), "margin", 0.5),
])
def test_cli_error_payload_on_stderr(make_error, field, expect, fixture_dir, tmp_path,
                                     monkeypatch, capsys):
    # No fixture reaches these failures through the CLI, so the decomposition
    # is made to raise; the diagnostics must reach stderr as one JSON object.
    from lrn_detect import cli

    exc = make_error()

    def failing(tensor):
        raise exc

    monkeypatch.setattr(cli, "canonical_decompose", failing)
    out = tmp_path / "r.json"
    assert main(["--pipeline", "analyze", "--input", str(fixture_dir / "ghz.json"),
                 "--out", str(out)]) == 1
    streams = capsys.readouterr()
    assert streams.out == "" and not out.exists()
    err = json.loads(streams.err)
    assert err == {"error": type(exc).__name__, "message": str(exc),
                   "payload": {field: expect}}


@pytest.mark.parametrize("argv, named", [
    ([], ["--pipeline"]),
    (["--pipeline", "nope"], ["nope"]),
    (["--pipeline", "typicality", "--seed", "abc"], ["--seed"]),
    (["--bogus"], ["--bogus", "--pipeline"]),
    (["--pipeline", "rg", "--input", "ghz.json"], ["rg"]),
], ids=["no-pipeline", "unknown-pipeline", "bad-int", "unknown-flag", "removed-rg"])
def test_cli_malformed_command_line_is_an_invalid_request(argv, named, capsys):
    # argparse's own exit code, 2, is that of EXACT_SRN_EXCLUDED; a
    # malformed command line is an error like any other invalid request.
    # An unknown flag and a missing --pipeline are named in one message.
    assert main(argv) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    (line,) = streams.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "LrnDetectError"
    assert all(name in err["message"] for name in named), err["message"]


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert "--pipeline" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["-1", "0", "0.5", "nan", "inf"])
def test_cli_tol_int_outside_its_range_is_refused(tol, fixture_dir, monkeypatch, capsys):
    # ghz's entropy is exactly 1, so a tolerance of zero or below would certify it.
    # The tolerance is refused before the tensor is decomposed.
    from lrn_detect import cli

    argv = ["--pipeline", "analyze", "--input", str(fixture_dir / "ghz.json")]
    assert main(argv) == 3
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a tensor was decomposed for an invalid --tol-int")

    monkeypatch.setattr(cli, "canonical_decompose", refuse)
    assert main([*argv, "--tol-int", tol]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    err = json.loads(streams.err)
    assert err["error"] == "OutOfRange" and "--tol-int" in err["message"]


@pytest.mark.parametrize("qmax", ["0", "-5"])
def test_cli_qmax_below_one_is_refused(qmax, fixture_dir, monkeypatch, capsys):
    # The bound is refused before the tensor is decomposed, whether or not
    # the input carries the exact weights that the ratio check reads.
    from lrn_detect import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a tensor was decomposed for an invalid --qmax")

    monkeypatch.setattr(cli, "canonical_decompose", refuse)
    for name in ("ghz.json", "ghz03.json"):
        assert main(["--pipeline", "analyze", "--input", str(fixture_dir / name),
                     "--qmax", qmax]) == 1
        streams = capsys.readouterr()
        assert streams.out == ""
        err = json.loads(streams.err)
        assert err["error"] == "OutOfRange" and "--qmax" in err["message"]
        assert err["payload"] == {"qmax": int(qmax)}


@pytest.mark.parametrize("content,error", [
    ({"region_a": [0]}, "DependentGenerators"),
    ({"tableau": "+XQ\n+ZZ"}, "DependentGenerators"),
    ({"tableau": "+XXI\n+ZZI\n+IIZ", "region_b": [2]}, "OverlappingRegions"),
], ids=["no-tableau", "unknown-letter", "region-b-alone"])
def test_cli_stab_malformed_request_is_refused(content, error, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    assert main(["--pipeline", "stab", "--input", str(path)]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert json.loads(streams.err)["error"] == error


def test_cli_error_without_payload_is_json(capsys):
    assert main(["--pipeline", "ghz"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "LrnDetectError",
                   "message": "pipeline 'ghz' requires --input", "payload": {}}


_GHZ_ENTRIES = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]


@pytest.mark.parametrize("pipeline,content", [
    ("ghz", None),
    ("ghz", {"rat": 5}),
    ("ghz", {"float": None}),
    ("analyze", {"d": 2, "chi": 2, "matrices": _GHZ_ENTRIES, "exact_weights": [None, 0.5]}),
    ("analyze", {"d": 2, "chi": 2, "matrices": _GHZ_ENTRIES, "exact_weights": 5}),
    ("analyze", {"d": 2, "chi": 2, "matrices": 5}),
    ("stab", {"tableau": 5}),
    ("stab", [1]),
    ("stab", {"tableau": "+XX\n+ZZ", "region_a": 0}),
    ("stab", {"tableau": "+XX\n+ZZ", "region_a": [0.5]}),
    ("stab", {"tableau": "+XXI\n+ZZI\n+IIZ", "region_a": [0], "region_b": "a"}),
    ("stab", {"tableau": "XX\nZZ", "region_a": [True]}),
    # Exact forms whose float value overflows.
    ("ghz", {"rat": [10**400, 1]}),
    ("ghz", {"root": {"r": [10**400, 1], "base": [2, 1], "n": 2}}),
    ("ghz", {"root": {"r": [1, 1], "base": [10**400, 1], "n": 2}}),
    ("analyze", {"d": 2, "chi": 2, "matrices": _GHZ_ENTRIES,
                 "exact_weights": [{"rat": [10**400, 1]}, {"rat": [1, 2]}]}),
], ids=["ghz-null", "ghz-rat-int", "ghz-float-null", "weight-null", "weights-int",
        "matrices-int", "tableau-int", "request-list", "region-int", "region-float",
        "region-str", "region-bool", "ghz-rat-huge", "ghz-root-r-huge", "ghz-root-base-huge",
        "weight-rat-huge"])
def test_cli_malformed_input_is_a_named_error(pipeline, content, tmp_path, capsys):
    from lrn_detect import errors

    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    assert main(["--pipeline", pipeline, "--input", str(path)]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    err = json.loads(streams.err)  # exactly one JSON object
    assert issubclass(getattr(errors, err["error"]), errors.LrnDetectError), err


@pytest.mark.parametrize("weights,pair", [
    ([1e200, 0.5], {"method": "heuristic", "rational": None, "value": "inf"}),
    ([0.5, 1e-200], {"method": "heuristic", "rational": None, "value": "inf"}),
    ([{"rat": [10**300, 1]}, {"rat": [1, 10**300]}],
     {"method": "symbolic", "rational": True, "value": "inf"}),
], ids=["float-square-overflows", "float-square-underflows", "symbolic-value-overflows"])
def test_cli_analyze_ratio_beyond_the_float_range_is_a_report(weights, pair, tmp_path, capsys):
    # Each weight is a finite float, but the squared ratio of the pair is
    # not: the float pairs are recorded without a rational guess, and the
    # symbolic pair keeps its exact decision.
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"d": 2, "chi": 2, "matrices": _GHZ_ENTRIES,
                                "exact_weights": weights}))
    assert main(["--pipeline", "analyze", "--input", str(path)]) == 3
    (got,) = json.loads(capsys.readouterr().out)["verdicts"]["ratio_criterion"][
        "evidence"]["pairs"]
    assert {k: got[k] for k in pair} == pair


@pytest.mark.parametrize("tiny,code,rational", [
    ({"rat": [1, 10**400]}, 3, True),
    ({"root": {"r": [1, 10**400], "base": [2, 1], "n": 4}}, 2, False),
], ids=["rat", "root"])
def test_cli_analyze_decides_an_exact_weight_whose_float_underflows(tiny, code, rational,
                                                                    tmp_path, capsys):
    # The weight's float value is 0.0, but its exact form is not zero: the
    # pair is decided symbolically, not skipped as vanishing.
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"d": 2, "chi": 2, "matrices": _GHZ_ENTRIES,
                                "exact_weights": [tiny, {"rat": [1, 2]}]}))
    assert main(["--pipeline", "analyze", "--input", str(path)]) == code
    ratio = json.loads(capsys.readouterr().out)["verdicts"]["ratio_criterion"]
    (got,) = ratio["evidence"]["pairs"]
    assert (got["method"], got["rational"]) == ("symbolic", rational)
    assert ratio["status"] == ("INCONCLUSIVE" if rational else "EXACT_SRN_EXCLUDED")


def test_cli_analyze_reports_a_zero_entropy_without_a_sign(tmp_path, capsys):
    # The float weights are (0, 1/2): one point after normalization, whose
    # entropy is a true zero, not -0.0.
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"d": 2, "chi": 2, "matrices": _GHZ_ENTRIES,
                                "exact_weights": [{"rat": [1, 10**400]}, {"rat": [1, 2]}]}))
    assert main(["--pipeline", "analyze", "--input", str(path)]) == 3
    text = capsys.readouterr().out
    classes = json.loads(text)["verdicts"]["entropy_criterion"]["evidence"]["classes"]
    assert [c["entropy"] for c in classes] == [0.0]
    assert [math.copysign(1.0, c["entropy"]) for c in classes] == [1.0]
    assert "-0.0" not in text


def test_cli_analyze_loads_no_scipy_and_no_numpy_random(fixture_dir, tmp_path):
    # numpy is the one dependency, and importing numpy.random costs every
    # process start; a fresh interpreter shows what an analyze run loads.
    import subprocess
    import sys

    import lrn_detect

    script = (
        "import sys\n"
        "from lrn_detect.cli import main\n"
        f"main(['--pipeline', 'analyze', '--input', {str(fixture_dir / 'loop.json')!r},"
        f" '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.startswith('numpy.random')))\n"
    )
    src = str(Path(lrn_detect.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert (tmp_path / "r.json").exists()
    assert done.stdout.strip() == "[]", done.stdout


def test_each_pipeline_loads_only_its_own_modules(fixture_dir, tmp_path):
    # A fresh interpreter runs analyze, ghz and typicality, then verify, and
    # lists the package's modules after each stage; the package namespace is
    # checked last, once every name may resolve.
    import subprocess
    import sys
    import textwrap

    import lrn_detect

    script = textwrap.dedent("""
        import importlib, json, sys
        import lrn_detect

        def loaded():
            return sorted(m.split(".")[1] for m in sys.modules if m.startswith("lrn_detect."))

        at_import = loaded()
        from lrn_detect.cli import main

        ghz, half, out = sys.argv[1:]
        listed = dir(lrn_detect)
        codes = [main(["--pipeline", "analyze", "--input", ghz, "--out", out]),
                 main(["--pipeline", "ghz", "--input", half, "--out", out]),
                 main(["--pipeline", "typicality", "--out", out])]
        before_verify = loaded()
        codes.append(main(["--pipeline", "verify", "--n-min", "1", "--n-max", "1",
                           "--out", out]))
        after_verify = loaded()
        unresolved = [n for n in lrn_detect.__all__ if getattr(lrn_detect, n) is not getattr(
            importlib.import_module("lrn_detect." + lrn_detect._MODULE_OF[n]), n)]
        star = {}
        exec("from lrn_detect import *", star)
        print(json.dumps({
            "codes": codes, "at_import": at_import, "before_verify": before_verify,
            "after_verify": after_verify,
            "unresolved": unresolved,
            "unlisted": sorted(set(lrn_detect.__all__) - set(listed)),
            "unbound": sorted(set(lrn_detect.__all__) - set(star)),
            "unknown_resolves": hasattr(lrn_detect, "no_such_name"),  # AttributeError only
        }))
    """)
    src = str(Path(lrn_detect.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [str(fixture_dir / "ghz.json"), str(fixture_dir / "half.json"),
            str(tmp_path / "r.json")]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    result = json.loads(done.stdout)
    verify_only = {"dense", "rg", "circuits", "causal", "partition", "stabilizer",
                   "families", "verify"}
    assert result["codes"] == [3, 3, 0, 0]
    assert result["at_import"] == []
    assert verify_only.isdisjoint(result["before_verify"]), result["before_verify"]
    assert verify_only <= set(result["after_verify"])
    assert result["unresolved"] == []
    assert result["unlisted"] == []
    assert result["unbound"] == []
    assert result["unknown_resolves"] is False


def _analyze_error(path, capsys):
    """The one stderr JSON object of a failing ``analyze``, checked warning-free."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--pipeline", "analyze", "--input", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and [str(w.message) for w in caught] == []
    (line,) = out.err.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("scale", [1e-100, 1e-120, 1e-160, 1e154, 1e300])
def test_cli_analyze_at_extreme_scales_is_a_named_error(scale, tmp_path, capsys):
    # The transfer matrix of ghz scaled by 1e-100 or 1e-120 has a norm that
    # underflows to zero (a bare ZeroDivisionError in the residual); at
    # 1e-160 and 1e154 numpy's "Singular matrix" followed overflow
    # warnings, and at 1e300 "Array must not contain infs or NaNs".
    from lrn_detect import errors

    save_tensor(tmp_path / "scaled.json", ghz_tensor().scaled(scale))
    err = _analyze_error(tmp_path / "scaled.json", capsys)
    assert err["error"] == "ScaleOutOfRange"
    assert issubclass(getattr(errors, err["error"]), errors.LrnDetectError)
    norm = err["payload"]["norm"]
    assert norm in ("inf", "nan") if scale > 1 else norm == 0.0


def test_cli_tiny_radius_is_named_where_the_resolvent_overflows(tmp_path, capsys):
    # The transfer norm is in range, but the shifted inverse, about
    # 1e10 / radius, overflows inverse iteration: the error carries the
    # spectrum it was iterating on as well as the norm.
    save_tensor(tmp_path / "tiny.json", phase_loop_tensor(math.pi / 3).scaled(1e-76))
    err = _analyze_error(tmp_path / "tiny.json", capsys)
    assert err["error"] == "ScaleOutOfRange"
    assert list(err["payload"]) == ["spectrum", "norm"]  # in the order of the raise
    assert 0.0 < err["payload"]["norm"] < 1e-140
    assert all(abs(z["re"]) < 1e-140 for z in err["payload"]["spectrum"])


def test_cli_zero_family_carries_the_spectrum_it_tested(tmp_path, capsys):
    # Radius 1e-26 < TAU_ZERO: the payload holds the transfer spectrum.
    save_tensor(tmp_path / "small.json", ghz_tensor().scaled(1e-13))
    err = _analyze_error(tmp_path / "small.json", capsys)
    assert err["error"] == "DecompositionFailure"
    assert err["message"] == "tensor generates the zero family"
    moduli = [math.hypot(z["re"], z["im"]) for z in err["payload"]["spectrum"]]
    assert moduli == sorted(moduli, reverse=True) and 0.0 < moduli[0] < 1e-24


def test_cli_all_nilpotent_parts_carry_the_spectrum_they_tested(fixture_dir, monkeypatch,
                                                                capsys):
    # No known tensor splits into parts that are all nilpotent, so the
    # splitter is made to drop every part.
    from lrn_detect import canonical

    monkeypatch.setattr(canonical, "_split_parts", lambda *args: [])
    err = _analyze_error(fixture_dir / "ghz.json", capsys)
    assert err["message"] == "all parts are nilpotent"
    spectrum = [complex(z["re"], z["im"]) for z in err["payload"]["spectrum"]]
    assert np.allclose(spectrum, [1, 1, 0, 0])


@pytest.mark.parametrize("name, message", [
    ("copy_composite", "fixed-point algebra projector fails to reduce the matrices"),
    ("decaying", "candidate invariant subspace leaks outside itself"),
], ids=["algebra_cut", "support_split"])
def test_cli_leak_failures_carry_the_leak_and_its_threshold(name, message, tmp_path,
                                                            monkeypatch, capsys,
                                                            composite_draw):
    # A gauge leaves round-off leaks of order 1e-16, which a tiny TAU_BLOCK
    # refuses: the cut of a degenerate fixed space, and the support split of
    # a decaying block's rank-deficient fixed point.
    from lrn_detect import canonical
    from lrn_detect.families import pattern_tensor

    if name == "copy_composite":
        tensor = composite_draw(0)
    else:
        x = np.random.default_rng(4).standard_normal((2, 2)) + 2 * np.eye(2)
        tensor = pattern_tensor([0, 1], [1.0, 0.5], 2).gauged(x)
    save_tensor(tmp_path / "t.json", tensor)
    monkeypatch.setattr(canonical, "TAU_BLOCK", 1e-30)
    err = _analyze_error(tmp_path / "t.json", capsys)
    assert (err["error"], err["message"]) == ("DecompositionFailure", message)
    payload = err["payload"]
    assert list(payload) == ["spectrum", "leak", "threshold"]
    assert 0.0 < payload["threshold"] < payload["leak"] < 1e-12


def test_cli_part_still_periodic_carries_period_and_sites(fixture_dir, monkeypatch, capsys):
    # No known tensor stays periodic after blocking, so the splitter is made
    # to report a period-2 part every time.
    from lrn_detect import canonical

    monkeypatch.setattr(canonical, "_split_parts", lambda t, *args: [(t, 2, None, None)])
    err = _analyze_error(fixture_dir / "ghz.json", capsys)
    assert err["message"] == "a part still has period 2 after grouping 2 sites"
    assert err["payload"] == {"period": 2, "sites": 2}


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8])
def test_cli_analyze_skips_sizes_where_a_cyclic_shift_has_no_state(p, tmp_path, capsys):
    # Cyclic shift on p bond states, level r mod 2 on the bond r -> r + 1.
    # Odd p: p translates of one product state, entropy log2(p).  Even p:
    # two states, (01)^(p/2) and its shift, at sizes divisible by p only;
    # the residues of the blocked size where the family has no state are
    # listed as empty, and the entropy is 1 at every other one.
    from lrn_detect import MpsTensor

    mats = np.zeros((2, p, p), dtype=complex)
    for r in range(p):
        mats[r % 2, r, (r + 1) % p] = 1.0
    save_tensor(tmp_path / "t.json", MpsTensor(mats))
    code = main(["--pipeline", "analyze", "--input", str(tmp_path / "t.json")])
    evidence = json.loads(capsys.readouterr().out)["verdicts"]["entropy_criterion"]["evidence"]
    entropies = [c["entropy"] for c in evidence["classes"]]
    if p % 2:
        assert code == 0 and "empty_residues" not in evidence
        assert entropies == pytest.approx([math.log2(p)], abs=1e-12)
    else:
        assert code == 3 and evidence["empty_residues"]
        residues = sorted(evidence["empty_residues"] + [c["residue"] for c in evidence["classes"]])
        assert residues == list(range(evidence["period"]))
        assert entropies == pytest.approx([1.0] * len(entropies), abs=1e-12)


@pytest.mark.parametrize("p, scale", [(5, 1e70), (7, 1e50), (5, 1e60)])
def test_cli_overflowing_blocked_words_are_out_of_scale(p, scale, tmp_path, capsys):
    # A scaled cyclic shift is blocked p sites at a time.  Every input entry
    # is finite, but at 1e70 (p = 5) and 1e50 (p = 7) the blocked words
    # overflow to inf, and at 1e60 (p = 5) only their transfer matrix does.
    # All three are one failure, a scale outside floating-point spectral
    # work, named with the transfer norm that left the range.
    from lrn_detect import MpsTensor

    mats = np.zeros((2, p, p), dtype=complex)
    for r in range(p):
        mats[r % 2, r, (r + 1) % p] = scale
    save_tensor(tmp_path / "t.json", MpsTensor(mats))
    err = _analyze_error(tmp_path / "t.json", capsys)
    assert err["error"] == "ScaleOutOfRange"
    assert err["payload"]["norm"] in ("inf", "nan")


def test_cli_verify_peak_memory_is_bounded(traced_peak, capsys):
    # The invariance suite holds a 1 MiB fixed-point state, one evolved
    # state and one transposed copy.  The bound covers the parent only: the
    # cone suite runs in a forked child, which tracemalloc does not see, and
    # the next test pins it in-process.  Before, a trial's evolved state or
    # density outlived it, and ρ_AB and σ were formed whole: 5.34 MiB.  A
    # first, small run imports what verify imports.
    assert main(["--pipeline", "verify", "--n-min", "1", "--n-max", "1"]) == 0
    capsys.readouterr()
    code, peak = traced_peak(lambda: main(["--pipeline", "verify", "--seed", "0"]))
    assert code == 0 and json.loads(capsys.readouterr().out)["passed"] is True
    assert peak <= 4.25 * 2**20


def test_cli_causal_cone_suite_peak_memory_is_bounded(traced_peak):
    # The suite's input state and two 1 MiB factors, or the gate loop's two
    # arrays.  It runs here in-process, as in verify's forked child.
    from lrn_detect import verify

    suite, peak = traced_peak(
        lambda: verify._verify_causal_cone(map(verify._ring_circuit, range(4))))
    assert suite["passed"] is True
    assert peak <= 4.25 * 2**20  # 5.29 MiB when ρ_AB and σ were both formed
