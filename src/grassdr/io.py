"""File formats: datasets, fitted models, landmark shapes, and result tables.

Datasets and models are JSON with matrices as row-major nested arrays;
complex entries are stored as [re, im] pairs. Numbers use repr, which
round-trips binary64 exactly. Landmark files are JSON or delimited text
with one shape per row; a row with an odd field count carries its label
in the first field.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateShapeError, FormatError, ShapeError
from .geometry import Dataset, GrassmannPoint, as_dataset, check_orthonormal, orthonormal_columns
from .nested import NestedMap
from .shape import KAds

# Stored bases drifting more than 1e-11 but at most this far from orthonormality
# are re-orthonormalized on load; beyond it they are rejected.
LOAD_DRIFT_LIMIT = 1e-6


def _encode_matrix(m: np.ndarray) -> list:
    """Nested lists of floats, complex entries as [re, im] pairs; a stack of matrices gives a list of them."""
    if np.iscomplexobj(m):
        m = np.stack([m.real, m.imag], axis=-1)
    return np.asarray(m, dtype=float).tolist()


def _decode_matrix(data, field: str, shape: tuple, where: str) -> np.ndarray:
    """``data`` as one array of ``shape``, a matrix or a stack of them; complex entries come as [re, im] pairs."""
    expected = (*shape, 2) if field == "complex" else shape
    wanted = f"expected {field} entries of shape {expected}" + (" ([re, im] pairs)" if field == "complex" else "")
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{wanted}: {exc}", where) from exc
    if arr.shape != expected:
        raise FormatError(f"{wanted}, got shape {arr.shape}", where)
    return arr[..., 0] + 1j * arr[..., 1] if field == "complex" else arr


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}", str(path)) from exc


def _parse_json(text: str, where: str):
    """The JSON value of ``text``; malformed, too deeply nested or over-long numbers are a FormatError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError, as is an over-long integer
        raise FormatError(f"invalid JSON: {exc}", where) from exc


def _check_header(doc, where: str, counts: Sequence[str], lists: Sequence[str]) -> None:
    """Require a JSON object with a known ``field``, non-negative int ``counts`` and list-valued ``lists``."""
    if not isinstance(doc, dict):
        raise FormatError("top level must be a JSON object", where)
    for key in ("field", *counts, *lists):
        if key not in doc:
            raise FormatError(f"missing key {key!r}", where)
    if doc["field"] not in ("real", "complex"):
        raise FormatError(f"unknown field {doc['field']!r}", where)
    for key in counts:
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise FormatError(f"{key!r} must be a non-negative integer, got {value!r}", where)
    for key in lists:
        if not isinstance(doc[key], list):
            raise FormatError(f"{key!r} must be a list", where)


def save_dataset(path, points: Sequence[GrassmannPoint], labels=None) -> None:
    stacked = as_dataset(points).stacked
    doc = {
        "field": "complex" if np.iscomplexobj(stacked) else "real",
        "n": stacked.shape[1],
        "p": stacked.shape[2],
        "N": len(stacked),
        "labels": None if labels is None else [_jsonable_label(v) for v in labels],
        "points": _encode_matrix(stacked),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _jsonable_label(v):
    if isinstance(v, (np.integer, int)):
        return int(v)
    return str(v)


def load_dataset(path) -> tuple[Dataset, np.ndarray | None]:
    """The file's points as a Dataset, and its labels; only drifted bases (see LOAD_DRIFT_LIMIT) change."""
    where = str(path)
    doc = _parse_json(_read_text(path), where)
    _check_header(doc, where, ("n", "p", "N"), ("points",))
    if not (1 <= doc["p"] <= doc["n"] and doc["N"]):
        raise FormatError(f"need N >= 1 and 1 <= p <= n, got N = {doc['N']}, p = {doc['p']}, n = {doc['n']}", where)
    stacked = _decode_matrix(doc["points"], doc["field"], (doc["N"], doc["n"], doc["p"]), f"{where}: points")
    message = "stored basis is not orthonormal (drift {drift:.3e})"
    drifted = check_orthonormal(stacked, LOAD_DRIFT_LIMIT, FormatError, message, where) > 1e-11
    if drifted.any():
        stacked[drifted] = orthonormal_columns(stacked[drifted])
    return Dataset(stacked), _labels(doc, doc["N"], where)


def _labels(doc: dict, count: int, where: str) -> np.ndarray | None:
    """The document's ``labels``: null, or a list of ``count`` strings or numbers (as ``_jsonable_label`` writes)."""
    labels = doc.get("labels")
    if labels is None:
        return None
    if not isinstance(labels, list):
        raise FormatError("'labels' must be a list or null", where)
    if len(labels) != count:
        raise FormatError(f"{len(labels)} labels for {count} records", where)
    if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in labels):
        raise FormatError("every label must be a string or a number", where)
    return np.asarray(labels)


def save_model(path, nmap: NestedMap, metadata: dict | None = None) -> None:
    doc = {
        "field": nmap.field,
        "n": nmap.n,
        "m": nmap.m,
        "p": nmap.p,
        "A": _encode_matrix(nmap.A),
        "B": _encode_matrix(nmap.B),
        "metadata": metadata or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> tuple[NestedMap, dict]:
    where = str(path)
    doc = _parse_json(_read_text(path), where)
    _check_header(doc, where, ("n", "m", "p"), ("A", "B"))
    a = _decode_matrix(doc["A"], doc["field"], (doc["n"], doc["m"]), f"{where}: A")
    b = _decode_matrix(doc["B"], doc["field"], (doc["n"], doc["p"]), f"{where}: B")
    try:
        nmap = NestedMap(a, b)
    except ValueError as exc:
        raise FormatError(f"stored model violates map invariants: {exc}", where) from exc
    return nmap, doc.get("metadata", {})


def save_landmarks(path, shapes: KAds, labels=None) -> None:
    """Write a KAds stack as delimited text, one shape per row (label first if given)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for i, row in enumerate(shapes.points.reshape(-1, 2 * shapes.k)):
            label = [] if labels is None else [str(labels[i])]
            writer.writerow(label + list(map(repr, row.tolist())))


def load_landmarks(path) -> tuple[KAds, np.ndarray | None]:
    """Read a KAds stack from JSON ({"shapes": ..., "labels": ...}) or delimited text.

    Text rows hold flattened x,y coordinates; an odd number of fields means
    the first field is the label. All shapes must share the same k.
    """
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return _landmarks_from_json(str(path), _parse_json(stripped, str(path)))
    return _landmarks_from_csv(str(path), text)


def _kads(stack: np.ndarray, where: str, lines: Sequence[int] | None = None) -> KAds:
    """``stack`` as a KAds; a bad shape is a FormatError naming ``shape i``, or its line when ``lines`` are given."""
    try:
        return KAds(stack)
    except (ShapeError, DegenerateShapeError) as exc:
        if lines is None or exc.index is None:
            raise FormatError(str(exc), where) from exc
        reason = str(exc).removeprefix(f"shape {exc.index}: ")
        raise FormatError(f"line {lines[exc.index]}: {reason}", where) from exc


def _landmarks_from_json(where: str, doc) -> tuple[KAds, np.ndarray | None]:
    if isinstance(doc, list):
        doc = {"shapes": doc}
    message = "'shapes' must be a non-empty list of k x 2 arrays of numbers, all with the same k"
    try:
        stack = np.asarray(doc.get("shapes"), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{message}: {exc}", where) from exc
    if stack.ndim != 3 or stack.shape[-1] != 2:
        raise FormatError(f"{message}, got shape {stack.shape}", where)
    return _kads(stack, where), _labels(doc, len(stack), where)


def _csv_rows(text: str, where: str):
    """(line number, fields) of each delimited-text record; a malformed record is a FormatError naming its line."""
    reader = csv.reader(text.splitlines())
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"line {reader.line_num}: {exc}", where) from exc


def _landmarks_from_csv(where: str, text: str) -> tuple[KAds, np.ndarray | None]:
    rows, labels, lines = [], [], []  # each row's fields become floats as they are read, never all rows' at once
    for lineno, fields in _csv_rows(text, where):
        fields = [f.strip() for f in fields if f.strip() != ""]
        if not fields:
            continue
        if not rows:
            width = len(fields)
        elif len(fields) != width:
            raise FormatError(f"line {lineno}: {len(fields)} fields, but line {lines[0]} has {width}", where)
        has_label = width % 2
        labels += fields[:has_label]
        try:
            rows.append(np.array(fields[has_label:], dtype=float))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-numeric coordinate ({exc})", where) from exc
        lines.append(lineno)
    if not rows:
        raise FormatError("no shapes found", where)
    stack = np.array(rows).reshape(len(rows), width // 2, 2)
    return _kads(stack, where, lines), (np.asarray(labels) if labels else None)


def format_number(value) -> str:
    """An integer as written; any other number as the shortest decimal that round-trips the float."""
    if value is None or value == "":
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def write_table(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Tidy delimited table, one observation per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else format_number(v) for v in row])


def save_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
