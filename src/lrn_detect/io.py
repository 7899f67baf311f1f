"""File formats: tensor JSON, exact-weight JSON, reports.

Tensor files carry ``{"d": int, "chi": int, "matrices": [...]}`` with
``matrices[i][row][col] == [re, im]`` and may annotate the exact squared
block weights of the family under ``"exact_weights"``.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .exact import ExactWeight
from .tensor import MpsTensor


def tensor_to_json(a: MpsTensor, exact_weights=None) -> dict:
    obj = {
        "d": a.phys_dim,
        "chi": a.bond_dim,
        "matrices": [
            [
                [[float(v.real), float(v.imag)] for v in row]
                for row in mat
            ]
            for mat in a.matrices
        ],
    }
    if exact_weights is not None:
        obj["exact_weights"] = [w.to_json() for w in exact_weights]
    return obj


def tensor_from_json(obj: dict) -> tuple[MpsTensor, list[ExactWeight] | None]:
    try:
        d, chi, raw = obj["d"], obj["chi"], obj["matrices"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed tensor object: {exc}") from exc
    # A JSON integer and nothing else: no float, string or bool is coerced.
    if type(d) is not int or type(chi) is not int:
        raise DimensionMismatch(f"d and chi must be integers, got {d!r} and {chi!r}")
    # The whole declared shape is checked against the file before anything
    # is allocated, so the array is never larger than the input.
    if d < 1 or chi < 1:
        raise DimensionMismatch(f"d and chi must be at least 1, got {d} and {chi}")
    if type(raw) is not list:
        raise DimensionMismatch(f"matrices must be a list, got {type(raw).__name__}")
    if len(raw) != d:
        raise DimensionMismatch(f"expected {d} matrices, got {len(raw)}")
    for i, mat in enumerate(raw):
        if type(mat) is not list or len(mat) != chi or any(
            type(row) is not list or len(row) != chi for row in mat
        ):
            raise DimensionMismatch(f"matrix {i} is not {chi} x {chi}")
    for val in (v for mat in raw for row in mat for v in row):
        # A JSON number and nothing else, as for d and chi: no bool is read as 1.
        if type(val) is not list or len(val) != 2 or any(type(x) not in (int, float) for x in val):
            raise DimensionMismatch(f"tensor entry {val!r} is not a [re, im] pair of numbers")
    try:
        parts = np.array(raw, dtype=float)
    except OverflowError as exc:
        raise DimensionMismatch(f"tensor entry out of float range: {exc}") from exc
    # Real and imaginary parts keep their bits, signed zeros included.
    mats = parts.view(complex)[..., 0]
    weights = None
    if obj.get("exact_weights") is not None:
        if type(obj["exact_weights"]) is not list:
            raise OutOfRange("exact_weights must be a list")
        weights = [ExactWeight.from_json(w) for w in obj["exact_weights"]]
    return MpsTensor(mats), weights


def load_tensor(path: str) -> tuple[MpsTensor, list[ExactWeight] | None]:
    with open(path, encoding="utf-8") as f:
        return tensor_from_json(json.load(f))


def save_tensor(path: str, a: MpsTensor, exact_weights=None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(tensor_to_json(a, exact_weights), f, sort_keys=True)
        f.write("\n")


# Pending strings the report writer holds before joining them into one
# chunk.  Each piece is a token a few bytes long but costs some 50 bytes
# as an object, so joining them as it goes keeps a report's intermediates
# near the size of its text.
_CHUNK_PIECES = 1024


def dump_report(obj, path: str | None) -> str:
    """Serialize a report deterministically; write it when a path is given.

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2)``,
    except that non-finite floats and the values JSON has no type for
    (numpy scalars, complex numbers, arrays) are written as ``json_value``
    converts them, so the output stays strict JSON.  Dictionary keys must
    be strings.  ``_write`` emits the tokens and, between the members of a
    container, joins the pending ones into one chunk once there are more
    than ``_CHUNK_PIECES``, so about that many small strings at most are
    alive at once.  The chunks are joined once at the end, and that text
    is written and returned: the writer's peak is about twice the text.
    """
    out: list[str] = []
    chunks: list[str] = []
    _write(obj, out, chunks, "\n")
    out.append("\n")
    _join_pieces(out, chunks)
    text = "".join(chunks)
    del chunks  # only the text is held while it is written
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return text


def _write(obj, out: list[str], chunks: list[str], pad: str) -> None:
    """Append the JSON text of ``obj`` to ``out``.

    ``pad`` is a newline plus the indent of the line ``obj`` starts on;
    the members of a container go one level (two spaces) deeper.  Before
    each member, ``out`` is joined onto ``chunks`` once it holds more than
    ``_CHUNK_PIECES`` strings.  Values JSON has no type for go through
    ``json_value`` first.
    """
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            out.append(float.__repr__(obj))
        else:
            out.append(_encode_str(float.__repr__(obj)))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for value in obj:
            if len(out) > _CHUNK_PIECES:
                _join_pieces(out, chunks)
            out.append(sep)
            _write(value, out, chunks, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {type(key)!r}")
            if len(out) > _CHUNK_PIECES:
                _join_pieces(out, chunks)
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write(obj[key], out, chunks, inner)
            sep = "," + inner
        out.append(pad + "}")
    else:
        _write(json_value(obj), out, chunks, pad)


def _join_pieces(out: list[str], chunks: list[str]) -> None:
    """Move the pending strings of ``out`` onto ``chunks`` as one string."""
    chunks.append("".join(out))
    out.clear()


def json_value(value):
    """``value`` as plain strict JSON data: the conversion every writer uses.

    Arrays become nested lists, numpy scalars Python numbers, complex
    numbers ``{"re": ..., "im": ...}`` and non-finite floats the strings
    "inf", "-inf" and "nan" (their ``float.__repr__``).  Lists, and dicts
    with string keys, are converted entry by entry.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": json_value(value.real), "im": json_value(value.imag)}
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else float.__repr__(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, int):  # an int or bool entry of an array
        return value
    raise TypeError(f"cannot serialize {type(value)!r}")


def rows_to_csv(rows: list[dict], path: str | None) -> str:
    """Flat CSV with a stable header union; one row per record."""
    header: list[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(k)) for k in header))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return text


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text
