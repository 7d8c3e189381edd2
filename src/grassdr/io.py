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

from .errors import FormatError
from .geometry import GrassmannPoint, adjoint, orthonormal_columns
from .nested import NestedMap
from .shape import KAds

# Stored bases drifting beyond construction tolerance but at most this far
# from orthonormality are re-orthonormalized on load; beyond it they are rejected.
LOAD_DRIFT_LIMIT = 1e-6


def _encode_matrix(m: np.ndarray) -> list:
    if np.iscomplexobj(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]
    return [[float(v) for v in row] for row in m]


def _decode_matrix(data, field: str, where: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix entries: {exc}", where) from exc
    if field == "complex":
        if arr.ndim != 3 or arr.shape[-1] != 2:
            raise FormatError("complex matrices need [re, im] pairs", where)
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim != 2:
        raise FormatError(f"expected a 2-d matrix, got shape {arr.shape}", where)
    return arr


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", str(path)) from exc


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


def _restore_basis(mat: np.ndarray, where: str) -> GrassmannPoint:
    drift = float(np.abs(adjoint(mat) @ mat - np.eye(mat.shape[1])).max())
    if not drift <= LOAD_DRIFT_LIMIT:  # NaN and inf fail too
        raise FormatError(f"stored basis is not orthonormal (drift {drift:.3e})", where)
    if drift > 1e-11:
        mat = orthonormal_columns(mat)
    return GrassmannPoint(mat)


def save_dataset(path, points: Sequence[GrassmannPoint], labels=None) -> None:
    first = points[0]
    doc = {
        "field": first.field,
        "n": first.n,
        "p": first.p,
        "N": len(points),
        "labels": None if labels is None else [_jsonable_label(v) for v in labels],
        "points": [_encode_matrix(pt.basis) for pt in points],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _jsonable_label(v):
    if isinstance(v, (np.integer, int)):
        return int(v)
    return str(v)


def load_dataset(path) -> tuple[list[GrassmannPoint], np.ndarray | None]:
    doc = _load_json(path)
    where = str(path)
    _check_header(doc, where, ("n", "p", "N"), ("points",))
    field = doc["field"]
    if not 1 <= doc["p"] <= doc["n"]:
        raise FormatError(f"need 1 <= p <= n, got p = {doc['p']}, n = {doc['n']}", where)
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise FormatError("'labels' must be a list or null", where)
    if len(doc["points"]) != doc["N"]:
        raise FormatError(f"N = {doc['N']} but {len(doc['points'])} points stored", where)
    points = []
    for i, rec in enumerate(doc["points"]):
        mat = _decode_matrix(rec, field, f"{where}: point {i}")
        if mat.shape != (doc["n"], doc["p"]):
            raise FormatError(f"point {i} has shape {mat.shape}, expected {(doc['n'], doc['p'])}", where)
        points.append(_restore_basis(mat, f"{where}: point {i}"))
    if labels is not None:
        if len(labels) != doc["N"]:
            raise FormatError("labels length differs from N", where)
        labels = np.asarray(labels)
    return points, labels


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
    doc = _load_json(path)
    where = str(path)
    _check_header(doc, where, ("n", "m", "p"), ("A", "B"))
    a = _decode_matrix(doc["A"], doc["field"], f"{where}: A")
    b = _decode_matrix(doc["B"], doc["field"], f"{where}: B")
    if a.shape != (doc["n"], doc["m"]) or b.shape != (doc["n"], doc["p"]):
        raise FormatError("stored matrix shapes disagree with the header", where)
    try:
        nmap = NestedMap(a, b)
    except ValueError as exc:
        raise FormatError(f"stored model violates map invariants: {exc}", where) from exc
    return nmap, doc.get("metadata", {})


def save_landmarks(path, shapes: Sequence[KAds], labels=None) -> None:
    """Write shapes as delimited text, one shape per row (label first if given)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for i, shape in enumerate(shapes):
            row = [] if labels is None else [str(labels[i])]
            for x, y in shape.points:
                row += [repr(float(x)), repr(float(y))]
            writer.writerow(row)


def load_landmarks(path) -> tuple[list[KAds], np.ndarray | None]:
    """Read shapes from JSON ({"shapes": ..., "labels": ...}) or delimited text.

    Text rows hold flattened x,y coordinates; an odd number of fields means
    the first field is the label. All shapes must share the same k.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return _landmarks_from_json(path, stripped)
    return _landmarks_from_csv(path, text)


def _landmarks_from_json(path, text: str) -> tuple[list[KAds], np.ndarray | None]:
    where = str(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", where) from exc
    if isinstance(doc, list):
        doc = {"shapes": doc, "labels": None}
    if "shapes" not in doc:
        raise FormatError("missing key 'shapes'", where)
    shapes = []
    for i, rec in enumerate(doc["shapes"]):
        arr = np.asarray(rec, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise FormatError(f"shape {i} must be a k x 2 array", where)
        shapes.append(_make_kads(arr, f"{where}: shape {i}"))
    labels = doc.get("labels")
    if labels is not None:
        if len(labels) != len(shapes):
            raise FormatError("labels length differs from shape count", where)
        labels = np.asarray(labels)
    _check_constant_k(shapes, where)
    return shapes, labels


def _landmarks_from_csv(path, text: str) -> tuple[list[KAds], np.ndarray | None]:
    where = str(path)
    shapes: list[KAds] = []
    labels: list[str] = []
    labeled = None
    for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
        row = [f.strip() for f in row if f.strip() != ""]
        if not row:
            continue
        has_label = len(row) % 2 == 1
        if labeled is None:
            labeled = has_label
        elif labeled != has_label:
            raise FormatError(f"line {lineno}: inconsistent label column", where)
        if has_label:
            labels.append(row[0])
            row = row[1:]
        try:
            values = [float(f) for f in row]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-numeric coordinate ({exc})", where) from exc
        shapes.append(_make_kads(np.asarray(values).reshape(-1, 2), f"{where}: line {lineno}"))
    if not shapes:
        raise FormatError("no shapes found", where)
    _check_constant_k(shapes, where)
    return shapes, (np.asarray(labels) if labeled else None)


def _make_kads(arr: np.ndarray, where: str) -> KAds:
    try:
        return KAds(arr)
    except ValueError as exc:
        raise FormatError(str(exc), where) from exc


def _check_constant_k(shapes: Sequence[KAds], where: str) -> None:
    ks = {s.k for s in shapes}
    if len(ks) > 1:
        raise FormatError(f"inconsistent landmark counts across records: {sorted(ks)}", where)


def format_number(value) -> str:
    """Shortest decimal that round-trips the float exactly."""
    if value is None or value == "":
        return ""
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
