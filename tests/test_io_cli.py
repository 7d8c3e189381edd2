import copy
import csv
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassdr as g
from grassdr import io
from grassdr.cli import main
from grassdr.errors import ConvergenceError, FormatError
from grassdr.nested import unsupervised_loss_and_grad


def make_dataset(rng, count=6, n=8, p=1, field="real"):
    return [g.sample_stiefel_uniform(n, p, field, rng=rng) for _ in range(count)]


def replace_everywhere(monkeypatch, original, replacement) -> None:
    """Bind ``replacement`` at every grassdr module name bound to ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "grassdr" or name.startswith("grassdr."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


class TestDatasetFiles:
    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_round_trip_exact(self, tmp_path, field):
        rng = np.random.default_rng(0)
        pts = make_dataset(rng, field=field, p=2)
        path = tmp_path / "data.json"
        io.save_dataset(path, pts, labels=[0, 1, 0, 1, 0, 1])
        loaded, labels = io.load_dataset(path)
        assert list(labels) == [0, 1, 0, 1, 0, 1]
        for a, b in zip(pts, loaded):
            assert np.array_equal(a.basis, b.basis)

    def test_small_drift_reorthonormalized(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = make_dataset(rng, count=2)
        path = tmp_path / "data.json"
        io.save_dataset(path, pts)
        doc = json.loads(path.read_text())
        doc["points"][0][0][0] += 1e-8
        path.write_text(json.dumps(doc))
        loaded, _ = io.load_dataset(path)
        assert isinstance(loaded, g.Dataset)
        assert g.GrassmannPoint(loaded[0].basis)  # orthonormality restored
        assert not np.array_equal(loaded.stacked[0], np.asarray(doc["points"][0]))
        assert loaded.stacked[1].tobytes() == pts[1].basis.tobytes()  # an undrifted point keeps its bytes

    def test_large_drift_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = make_dataset(rng, count=2)
        path = tmp_path / "data.json"
        io.save_dataset(path, pts)
        doc = json.loads(path.read_text())
        doc["points"][1][0][0] += 0.25
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="point 1: stored basis is not orthonormal"):
            io.load_dataset(path)

    def test_malformed_json_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"field": "real", "n": 3')
        with pytest.raises(FormatError):
            io.load_dataset(path)

    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_points_are_written_as_per_entry_floats(self, tmp_path, field):
        pts = make_dataset(np.random.default_rng(3), count=3, n=4, p=2, field=field)
        path = tmp_path / "data.json"
        io.save_dataset(path, pts)

        def entry(v):
            return [float(v.real), float(v.imag)] if field == "complex" else float(v)

        expected = [[[entry(v) for v in row] for row in pt.basis] for pt in pts]
        assert f'"points": {json.dumps(expected)}' in path.read_text()


class TestModelFiles:
    @pytest.mark.parametrize("field", ("real", "complex"))
    def test_round_trip_exact(self, tmp_path, field):
        rng = np.random.default_rng(3)
        a = g.sample_stiefel_uniform(7, 3, field, rng=rng).basis
        bt = rng.standard_normal((7, 2)).astype(a.dtype)
        nmap = g.NestedMap.from_unprojected(a, bt)
        path = tmp_path / "model.json"
        io.save_model(path, nmap, metadata={"loss": 0.25})
        loaded, meta = io.load_model(path)
        assert np.array_equal(loaded.A, nmap.A)
        assert np.array_equal(loaded.B, nmap.B)
        assert meta["loss"] == 0.25

    def test_invariants_revalidated(self, tmp_path):
        rng = np.random.default_rng(4)
        a = g.sample_stiefel_uniform(6, 2, rng=rng).basis
        nmap = g.NestedMap(a, np.zeros((6, 1)))
        path = tmp_path / "model.json"
        io.save_model(path, nmap)
        doc = json.loads(path.read_text())
        doc["B"] = (np.asarray(doc["A"])[:, [0]] * 2.0).tolist()  # violates A^H B = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            io.load_model(path)


def _edited(doc, path, value):
    """Copy of ``doc`` with the entry at ``path`` (keys and indices) replaced by ``value``."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# Each edit turns a valid document into one the loader must reject with FormatError.
BAD_DATASET_EDITS = {
    "top-level-list": lambda d: [d],
    "points-int": lambda d: _edited(d, ["points"], 5),
    "points-string": lambda d: _edited(d, ["points"], "abc"),
    "N-string": lambda d: _edited(d, ["N"], "4"),
    "N-negative": lambda d: _edited(d, ["N"], -1),
    "n-float": lambda d: _edited(d, ["n"], 5.0),
    "p-bool": lambda d: _edited(d, ["p"], True),
    "p-zero": lambda d: _edited(d, ["p"], 0),
    "no-points": lambda d: {**d, "N": 0, "points": [], "labels": None},
    "no-points-huge-n": lambda d: {**d, "N": 0, "n": 10**12, "points": [], "labels": None},
    "n-huge": lambda d: _edited(d, ["n"], 10**12),
    "labels-int": lambda d: _edited(d, ["labels"], 5),
    "field-unknown": lambda d: _edited(d, ["field"], "quaternion"),
    "nan-entry": lambda d: _edited(d, ["points", 0, 0, 0], float("nan")),
    "inf-entry": lambda d: _edited(d, ["points", 1, 2, 0], float("inf")),
    "point-wrong-shape": lambda d: _edited(d, ["points", 1], d["points"][1][:-1]),
    "N-not-point-count": lambda d: _edited(d, ["N"], 3),
    "real-entries-under-complex": lambda d: _edited(d, ["field"], "complex"),
    "pairs-under-real": lambda d: _edited(d, ["points"], [[[[v, 0.0] for v in row] for row in pt] for pt in d["points"]]),
}

BAD_MODEL_EDITS = {
    "top-level-list": lambda d: [d],
    "A-int": lambda d: _edited(d, ["A"], 5),
    "B-string": lambda d: _edited(d, ["B"], "x"),
    "m-negative": lambda d: _edited(d, ["m"], -1),
    "n-bool": lambda d: _edited(d, ["n"], True),
    "p-null": lambda d: _edited(d, ["p"], None),
    "field-unknown": lambda d: _edited(d, ["field"], 3),
    "nan-in-A": lambda d: _edited(d, ["A", 0, 0], float("nan")),
    "nan-in-B": lambda d: _edited(d, ["B", 2, 0], float("nan")),
    "A-wrong-shape": lambda d: _edited(d, ["A"], d["A"][:-1]),
}

# Malformed JSON inputs, each with the command that reads it: "shapes" takes
# the document as a landmark file, "fit" takes it as the labels of a
# two-point dataset fitted with --supervised.
TRIANGLES = [[[0, 0], [1, 0], [0, 1]], [[0, 0], [2, 0], [0, 3]]]
BAD_JSON_INPUTS = {
    "shapes-int": ("shapes", {"shapes": 5}),
    "shapes-string": ("shapes", {"shapes": "abc"}),
    "shapes-empty": ("shapes", {"shapes": []}),
    "coordinate-string": ("shapes", {"shapes": [[[0, 0], [1, "a"], [0, 1]], TRIANGLES[1]]}),
    "coordinate-huge-int": ("shapes", {"shapes": [[[0, 0], [10**400, 0], [0, 1]], TRIANGLES[1]]}),
    "shape-labels-int": ("shapes", {"shapes": TRIANGLES, "labels": 5}),
    "shape-labels-objects": ("shapes", {"shapes": TRIANGLES, "labels": [{"a": 1}, {"b": 2}]}),
    "labels-ragged": ("fit", [[1], [2, 3]]),
    "labels-objects": ("fit", [{"a": 1}, {"b": 2}]),
}


class TestUntrustedFiles:
    def _dataset_doc(self, tmp_path):
        rng = np.random.default_rng(20)
        path = tmp_path / "good.json"
        io.save_dataset(path, make_dataset(rng, count=4, n=5, p=1), labels=[0, 1, 0, 1])
        return json.loads(path.read_text())

    def _model_path(self, tmp_path):
        rng = np.random.default_rng(21)
        a = g.sample_stiefel_uniform(5, 3, rng=rng).basis
        path = tmp_path / "model.json"
        io.save_model(path, g.NestedMap.from_unprojected(a, rng.standard_normal((5, 1))))
        return path

    @pytest.mark.parametrize("edit", BAD_DATASET_EDITS)
    def test_bad_dataset_is_format_error_and_exit_3(self, tmp_path, edit):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_DATASET_EDITS[edit](self._dataset_doc(tmp_path))))
        with pytest.raises(FormatError):
            io.load_dataset(path)
        assert main(["fit", str(path), "-m", "3", "--out", str(tmp_path / "m.json")]) == 3

    @pytest.mark.parametrize("edit", BAD_MODEL_EDITS)
    def test_bad_model_is_format_error_and_exit_3(self, tmp_path, edit):
        model_path = self._model_path(tmp_path)
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(BAD_MODEL_EDITS[edit](json.loads(model_path.read_text()))))
        with pytest.raises(FormatError):
            io.load_model(path)
        data_path = tmp_path / "data.json"
        data_path.write_text(json.dumps(self._dataset_doc(tmp_path)))
        assert main(["project", str(path), str(data_path), "--out", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize("name", BAD_JSON_INPUTS)
    def test_malformed_json_input_exits_3(self, tmp_path, capsys, name):
        command, content = BAD_JSON_INPUTS[name]
        path = tmp_path / "in.json"
        if command == "shapes":
            doc, load, argv = content, io.load_landmarks, ["shapes", str(path), "-m", "1"]
        else:
            io.save_dataset(path, make_dataset(np.random.default_rng(22), count=2, n=5), labels=[0, 1])
            doc = {**json.loads(path.read_text()), "labels": content}
            load, argv = io.load_dataset, ["fit", str(path), "-m", "2", "--supervised"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load(path)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        assert "error:" in capsys.readouterr().err


def _valid_file_bytes() -> dict[str, bytes]:
    """A small valid file for each loader, as the writers make them."""
    rng = np.random.default_rng(23)
    with tempfile.TemporaryDirectory() as tmp:
        data, model, csv_path = Path(tmp, "d.json"), Path(tmp, "m.json"), Path(tmp, "s.csv")
        io.save_dataset(data, make_dataset(rng, count=2, n=3), labels=[0, 1])
        a = g.sample_stiefel_uniform(3, 2, rng=rng).basis
        io.save_model(model, g.NestedMap.from_unprojected(a, rng.standard_normal((3, 1))))
        shapes, labels = g.two_class_shapes(2, 3, rng=rng)
        io.save_landmarks(csv_path, shapes, labels)
        return {
            "dataset": data.read_bytes(),
            "model": model.read_bytes(),
            "landmarks": csv_path.read_bytes(),
            "landmarks-json": json.dumps({"shapes": TRIANGLES, "labels": [0, 1]}).encode(),
        }


VALID_FILES = _valid_file_bytes()


def _check_loaded(kind: str, loaded) -> None:
    """``loaded`` is what a valid file of ``kind`` gives."""
    if kind == "dataset":
        points, labels = loaded
        assert isinstance(points, g.Dataset) and np.isfinite(points.stacked).all()
        assert labels is None or len(labels) == len(points)
    elif kind == "model":
        assert isinstance(loaded[0], g.NestedMap) and isinstance(loaded[1], dict)
    else:
        shapes, labels = loaded
        assert isinstance(shapes, g.KAds) and shapes.points.ndim == 3 and len(shapes.points)
        assert labels is None or len(labels) == len(shapes.points)


def _spliced(valid: bytes):
    """``valid`` with up to 8 bytes at a drawn place replaced by up to 8 arbitrary bytes."""
    return st.tuples(st.integers(0, len(valid)), st.integers(0, 8), st.binary(max_size=8)).map(
        lambda t: valid[: t[0]] + t[2] + valid[t[0] + t[1]:])


class TestUnreadableFiles:
    LOADERS = {"dataset": io.load_dataset, "model": io.load_model, "landmarks": io.load_landmarks,
               "landmarks-json": io.load_landmarks}

    def _argvs(self, tmp_path, bad: Path) -> list[list[str]]:
        """A fit, a project (bad model, then bad dataset) and a shapes call reading ``bad``."""
        good = {}
        for kind in ("dataset", "model"):
            good[kind] = tmp_path / f"good_{kind}.json"
            good[kind].write_bytes(VALID_FILES[kind])
        out = str(tmp_path / "out")
        return [
            ["fit", str(bad), "-m", "2", "--out", out],
            ["project", str(bad), str(good["dataset"]), "--out", out],
            ["project", str(good["model"]), str(bad), "--out", out],
            ["shapes", str(bad), "-m", "1", "--out", out],
        ]

    @pytest.mark.parametrize("content,message", (
        (b'{"field": "real", "n": \xff\xfe}', "not UTF-8 text"),
        (b"[" * 200_000 + b"]" * 200_000, "invalid JSON: maximum recursion depth"),
        (b'{"shapes": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", "invalid JSON: maximum recursion depth"),
    ), ids=("non-utf8", "deep-list", "deep-object"))
    def test_unreadable_file_exits_3(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for load in (io.load_dataset, io.load_model, io.load_landmarks):
            with pytest.raises(FormatError, match=message):
                load(bad)
        for argv in self._argvs(tmp_path, bad):
            assert main(argv) == 3, argv
            assert message in capsys.readouterr().err, argv
        assert not (tmp_path / "out").exists()

    def test_over_long_csv_field_is_format_error_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,0,0,1,0,0,1\nb," + "1" * 140_000 + ",0,1,0,0,1\n")
        with pytest.raises(FormatError, match="line 2: field larger than field limit"):
            io.load_landmarks(bad)
        assert main(["shapes", str(bad), "-m", "1", "--out", str(tmp_path / "out")]) == 3
        assert "line 2: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", LOADERS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_bytes_load_or_raise_format_error(self, kind, data):
        content = data.draw(st.one_of(st.binary(max_size=64), _spliced(VALID_FILES[kind])))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "in")
            path.write_bytes(content)
            try:
                loaded = self.LOADERS[kind](path)
            except FormatError:
                return
        _check_loaded(kind, loaded)


class TestLandmarkFiles:
    def test_csv_round_trip_with_labels(self, tmp_path):
        rng = np.random.default_rng(5)
        shapes, labels = g.two_class_shapes(6, 12, rng=rng)
        path = tmp_path / "shapes.csv"
        io.save_landmarks(path, shapes, labels)
        loaded, loaded_labels = io.load_landmarks(path)
        assert loaded.points.shape == (6, 12, 2)
        assert list(loaded_labels) == [str(v) for v in labels]
        assert np.array_equal(shapes.points, loaded.points)

    def test_csv_unlabeled(self, tmp_path):
        rng = np.random.default_rng(6)
        shapes, _ = g.two_class_shapes(4, 10, rng=rng)
        path = tmp_path / "shapes.csv"
        io.save_landmarks(path, shapes)
        loaded, labels = io.load_landmarks(path)
        assert labels is None
        assert np.array_equal(shapes.points, loaded.points)

    def test_json_shapes(self, tmp_path):
        path = tmp_path / "shapes.json"
        doc = {"shapes": [[[0, 0], [1, 0], [0, 1]], [[0, 0], [2, 0], [0, 2]]], "labels": [0, 1]}
        path.write_text(json.dumps(doc))
        shapes, labels = io.load_landmarks(path)
        assert shapes.points.shape == (2, 3, 2) and list(labels) == [0, 1]

    def test_inconsistent_k_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,1,0,0,1\n0,0,1,0,0,1,2,2\n")
        with pytest.raises(FormatError):
            io.load_landmarks(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,xx,0,0,1\n")
        with pytest.raises(FormatError):
            io.load_landmarks(path)

    def test_json_inconsistent_k_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"shapes": [TRIANGLES[0], [[0, 0], [1, 0], [1, 1], [0, 1]]], "labels": [0, 1]}))
        with pytest.raises(FormatError, match="all with the same k"):
            io.load_landmarks(path)
        assert main(["shapes", str(path), "-m", "1", "--out", str(tmp_path / "t.csv")]) == 3

    @pytest.mark.parametrize("suffix,where", ((".csv", "line 4"), (".json", "shape 2")))
    def test_coincident_landmarks_are_format_error_naming_the_shape(self, tmp_path, capsys, suffix, where):
        shapes, labels = g.two_class_shapes(5, 6, rng=np.random.default_rng(17))
        path = tmp_path / f"shapes{suffix}"
        if suffix == ".csv":
            io.save_landmarks(path, shapes, labels)
            lines = path.read_text().splitlines()
            lines[2] = "0," + ",".join(["1.5"] * 12)
            path.write_text("\n" + "\n".join(lines) + "\n")  # the leading blank line moves shape 2 to line 4
        else:
            stack = shapes.points.copy()
            stack[2] = 1.5
            path.write_text(json.dumps({"shapes": stack.tolist(), "labels": labels.tolist()}))
        message = f"{path}: {where}: all landmarks coincide"
        with pytest.raises(FormatError) as err:
            io.load_landmarks(path)
        assert str(err.value) == message
        assert main(["shapes", str(path), "-m", "2", "--out", str(tmp_path / "t.csv")]) == 3
        assert message in capsys.readouterr().err


class TestCliFit:
    def _write_dataset(self, tmp_path, b_std=0.0, sigma=0.0, labels=None):
        data = g.generate(g.SynthConfig(N=20, n=8, m=3, p=1, sigma=sigma, b_std=b_std, seed=9))
        path = tmp_path / "data.json"
        io.save_dataset(path, data.points, labels)
        return path

    def test_fit_planted_dataset(self, tmp_path):
        data_path = self._write_dataset(tmp_path)
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        code = main([
            "fit", str(data_path), "-m", "3",
            "--out", str(model_path), "--report", str(report_path), "--seed", "1",
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["explained_variance"] > 0.999
        assert report["final_loss"] < 1e-6
        assert report["converged"] is True

    def test_report_carries_the_gradient_norm(self, tmp_path):
        data_path = self._write_dataset(tmp_path, b_std=0.1, sigma=0.2)
        report_path = tmp_path / "report.json"
        base = ["fit", str(data_path), "-m", "3", "--out", str(tmp_path / "m.json"), "--report", str(report_path)]
        assert main(base + ["--grad-tol", "1e-5"]) == 0
        report = json.loads(report_path.read_text())
        assert report["converged"] is True
        assert 0.0 <= report["grad_norm"] <= 1e-5
        # Stopped at max_iter, the report shows how far from the tolerance the fit was.
        assert main(base + ["--grad-tol", "1e-12", "--max-iter", "1"]) == 4
        report = json.loads(report_path.read_text())
        assert report["converged"] is False
        assert report["grad_norm"] > 1e-12

    def test_saved_model_reevaluates_identically(self, tmp_path):
        data_path = self._write_dataset(tmp_path, b_std=0.1, sigma=0.4)
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        assert main(["fit", str(data_path), "-m", "3", "--out", str(model_path), "--report", str(report_path)]) == 0
        nmap, meta = io.load_model(model_path)
        points, _ = io.load_dataset(data_path)
        loss, _ = unsupervised_loss_and_grad(nmap.A, nmap.B, g.stack_points(points))
        report = json.loads(report_path.read_text())
        assert abs(loss - report["final_loss"]) < 1e-12

    def test_supervised_without_labels_is_usage_error(self, tmp_path, capsys):
        data_path = self._write_dataset(tmp_path)
        assert main(["fit", str(data_path), "-m", "3", "--supervised", "--out", str(tmp_path / "m.json")]) == 2
        assert "label" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.json"), "-m", "3", "--out", str(tmp_path / "m.json")]) == 3

    def test_corrupt_file_is_data_error(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        assert main(["fit", str(path), "-m", "3", "--out", str(tmp_path / "m.json")]) == 3

    def test_linalg_error_is_data_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        replace_everywhere(monkeypatch, g.fit_unsupervised, fail)
        data_path = self._write_dataset(tmp_path)
        assert main(["fit", str(data_path), "-m", "3", "--out", str(tmp_path / "m.json")]) == 3
        assert "error: SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ("0", "1", "9"))
    def test_target_dimension_out_of_range_is_usage_error(self, tmp_path, capsys, m):
        # The data has p = 1 and n = 8, so m must be in [2, 8], as for shapes -m.
        data_path = self._write_dataset(tmp_path)
        out = tmp_path / "m.json"
        assert main(["fit", str(data_path), "-m", m, "--out", str(out)]) == 2
        assert "--m must be in [2, 8]" in capsys.readouterr().err
        assert not out.exists()


class TestCliProjectReconstruct:
    def _fit(self, tmp_path):
        data = g.generate(g.SynthConfig(N=12, n=8, m=3, p=1, sigma=0.2, seed=10))
        data_path = tmp_path / "data.json"
        io.save_dataset(data_path, data.points)
        model_path = tmp_path / "model.json"
        assert main(["fit", str(data_path), "-m", "3", "--out", str(model_path)]) == 0
        return data_path, model_path

    def test_project_then_embed_matches_reconstruct(self, tmp_path):
        data_path, model_path = self._fit(tmp_path)
        proj_path = tmp_path / "proj.json"
        recon_path = tmp_path / "recon.json"
        assert main(["project", str(model_path), str(data_path), "--out", str(proj_path)]) == 0
        assert main(["reconstruct", str(model_path), str(data_path), "--out", str(recon_path)]) == 0
        nmap, _ = io.load_model(model_path)
        projected, _ = io.load_dataset(proj_path)
        rebuilt, _ = io.load_dataset(recon_path)
        assert all(pt.n == 3 for pt in projected)
        for z, r in zip(projected, rebuilt):
            assert g.principal_angles(g.embed_point(nmap, z), r).max() < 1e-9

    def test_identity_model_reconstruction(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = make_dataset(rng, count=5, n=6, p=1)
        data_path = tmp_path / "data.json"
        io.save_dataset(data_path, pts)
        nmap = g.NestedMap(np.eye(6), np.zeros((6, 1)))
        model_path = tmp_path / "model.json"
        io.save_model(model_path, nmap)
        out_path = tmp_path / "recon.json"
        assert main(["reconstruct", str(model_path), str(data_path), "--out", str(out_path)]) == 0
        rebuilt, _ = io.load_dataset(out_path)
        for a, b in zip(pts, rebuilt):
            assert a.same_subspace(b)

    def test_dimension_mismatch_is_data_error(self, tmp_path):
        data_path, model_path = self._fit(tmp_path)
        rng = np.random.default_rng(12)
        other_path = tmp_path / "other.json"
        io.save_dataset(other_path, make_dataset(rng, count=4, n=5, p=1))
        assert main(["project", str(model_path), str(other_path), "--out", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize("command", ("project", "reconstruct"))
    def test_field_mismatch_is_data_error(self, tmp_path, capsys, command):
        # A real model applied to complex data once exited 0 from project.
        rng = np.random.default_rng(13)
        data_path = tmp_path / "data.json"
        io.save_dataset(data_path, make_dataset(rng, count=6, n=5, p=1))
        model_path = tmp_path / "m.json"
        assert main(["fit", str(data_path), "-m", "3", "--max-iter", "5", "--out", str(model_path)]) in (0, 4)
        complex_path = tmp_path / "dc.json"
        io.save_dataset(complex_path, make_dataset(rng, count=6, n=5, p=1, field="complex"))
        out = tmp_path / "o.json"
        capsys.readouterr()
        assert main([command, str(model_path), str(complex_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "'complex'" in err and "'real'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ("project", "reconstruct"))
    def test_degenerate_point_is_named(self, tmp_path, capsys, command):
        nmap = g.NestedMap(np.eye(4)[:, :2], np.zeros((4, 1)))
        model_path = tmp_path / "m.json"
        io.save_model(model_path, nmap)
        rng = np.random.default_rng(14)
        data_path = tmp_path / "data.json"
        io.save_dataset(data_path, [g.sample_stiefel_uniform(4, 1, rng=rng), g.GrassmannPoint(np.eye(4)[:, [3]])])
        assert main([command, str(model_path), str(data_path), "--out", str(tmp_path / "o.json")]) == 3
        assert "data point 1: subspace nearly orthogonal to span(A)" in capsys.readouterr().err


class TestCliSynth:
    def test_custom_run_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "synth", "--num-points", "12", "--ambient-dim", "6", "--planted-dim", "3",
            "--subspace-dim", "1", "--sigma", "0.3", "--reps", "2", "--seed", "5",
            "--max-iter", "80", "--no-timing",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "preset"
        assert len(lines) == 1 + 2 * 2  # reps x metrics
        assert all(line.split(",")[7] in ("ok", "no-convergence") for line in lines[1:])

    def test_table1_rep_computes_each_mean_once(self, tmp_path, monkeypatch):
        # One dataset mean and variance shared by PGA and the five fits, plus
        # one of each per projected dataset: 6 Karcher means and 6 variances
        # where each fit and PGA used to recompute the dataset's own (11 and 10).
        calls = {"frechet_mean": 0, "variance": 0}

        def counting(func):
            def counted(*args, **kwargs):
                calls[func.__name__] += 1
                return func(*args, **kwargs)
            return counted

        for original in (g.frechet_mean, g.variance):
            replace_everywhere(monkeypatch, original, counting(original))
        argv = ["synth", "--preset", "table1", "--reps", "1", "--max-iter", "5", "--no-timing"]
        assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
        assert calls == {"frechet_mean": 6, "variance": 6}

    def test_a_failing_mean_is_computed_once(self, tmp_path, monkeypatch):
        # PGA and the five fits all report the error of one failed Karcher
        # run on the dataset, where each used to run it again (7 runs).
        calls = []

        def fail(points, *args, **kwargs):
            calls.append(len(points))
            raise ConvergenceError("no mean", result=points[0])

        replace_everywhere(monkeypatch, g.frechet_mean, fail)
        out = tmp_path / "t.csv"
        assert main(["synth", "--preset", "table1", "--reps", "1", "--max-iter", "5", "--no-timing", "--out", str(out)]) == 0
        assert calls == [50]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(r["method"] for r in rows) == ["ng"] * 5 + ["pga"] * 5
        assert {r["status"] for r in rows} == {"error: no mean"}

    def test_runtimes_include_the_shared_mean(self, tmp_path, monkeypatch):
        # The dataset's own mean (n = 30; its projections have n <= 7) is
        # computed before any row's clock starts; each row that uses it
        # still reports its cost.
        original = g.frechet_mean

        def slow_dataset_mean(points, *args, **kwargs):
            if points[0].n == 30:
                time.sleep(0.2)
            return original(points, *args, **kwargs)

        replace_everywhere(monkeypatch, original, slow_dataset_mean)
        out = tmp_path / "t.csv"
        assert main(["synth", "--preset", "table1", "--reps", "1", "--max-iter", "2", "--out", str(out)]) == 0
        runtimes = [float(line.split(",")[6]) for line in out.read_text().strip().splitlines()[1:]]
        assert len(runtimes) == 10
        assert min(runtimes) >= 0.2

    def test_integer_columns_are_written_as_integers(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["synth", "--preset", "table1", "--reps", "1", "--max-iter", "2", "--no-timing", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["rep"] for r in rows} == {"0"}
        assert sorted({r["sigma_or_mdim"] for r in rows}, key=int) == ["2", "4", "6", "8", "10"]
        assert [io.format_number(v) for v in (np.int64(3), 2.0, True, 0.25)] == ["3", "2.0", "1.0", "0.25"]

    def test_preset_required_or_dims(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x.csv")]) == 2

    def test_custom_run_needs_planted_dim(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--ambient-dim", "5", "--out", str(out)]) == 2
        assert "--planted-dim" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fit_dim", ("9", "3", "0"))
    def test_fit_dim_out_of_range_is_usage_error(self, tmp_path, capsys, fit_dim):
        # p = 3 and n = 6, so the fit dimension must be in [4, 6].
        out = tmp_path / "x.csv"
        argv = ["synth", "--ambient-dim", "6", "--planted-dim", "4", "--subspace-dim", "3", "--fit-dim", fit_dim]
        assert main(argv + ["--reps", "1", "--out", str(out)]) == 2
        assert f"--fit-dim (default --planted-dim) must be in [4, 6] (p < m <= n), got {fit_dim}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("planted,subspace", (("6", "1"), ("7", "1"), ("1", "2"), ("0", "1"), ("3", "0")))
    def test_planted_dim_out_of_range_is_usage_error(self, tmp_path, capsys, planted, subspace):
        out = tmp_path / "x.csv"
        argv = ["synth", "--ambient-dim", "6", "--planted-dim", planted, "--subspace-dim", subspace]
        assert main(argv + ["--reps", "1", "--out", str(out)]) == 2
        assert "need 1 <= --subspace-dim <= --planted-dim < --ambient-dim" in capsys.readouterr().err
        assert not out.exists()

    def test_default_fit_dim_must_exceed_the_subspace_dim(self, tmp_path, capsys):
        # --planted-dim 2 = --subspace-dim is a valid generator, but the fit defaults to m = 2 = p.
        out = tmp_path / "x.csv"
        argv = ["synth", "--ambient-dim", "6", "--planted-dim", "2", "--subspace-dim", "2", "--reps", "1"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "--fit-dim (default --planted-dim)" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--fit-dim", "3", "--max-iter", "5", "--no-timing", "--out", str(out)]) == 0

    @pytest.mark.parametrize("flag,value", (
        ("--num-points", "7"), ("--ambient-dim", "6"), ("--planted-dim", "3"), ("--subspace-dim", "2"),
        ("--sigma", "5"), ("--fit-dim", "2"), ("--metric", "projection"),
        # each at its default value: given is enough
        ("--num-points", "50"), ("--subspace-dim", "1"), ("--sigma", "0"), ("--metric", "both"),
    ))
    def test_custom_option_with_a_preset_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert main(["synth", "--preset", "fig3", "--reps", "1", flag, value, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ("nan", "inf"))
    def test_non_finite_sigma_is_data_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "x.csv"
        argv = ["synth", "--ambient-dim", "5", "--planted-dim", "2", "--sigma", sigma, "--reps", "1", "--out", str(out)]
        assert main(argv) == 3
        assert "sigma must be finite" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flag,value", (("--reps", "0"), ("--reps", "-2"), ("--num-points", "0"), ("--num-points", "1")))
    def test_bad_count_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        argv = ["synth", "--ambient-dim", "5", "--planted-dim", "2", "--reps", "1", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ("1e7", "1e300"))
    def test_any_finite_sigma_runs(self, tmp_path, sigma):
        out = tmp_path / "x.csv"
        argv = ["synth", "--ambient-dim", "5", "--planted-dim", "3", "--sigma", sigma, "--reps", "2", "--max-iter", "20"]
        assert main(argv + ["--no-timing", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open(newline="")))
        assert len(rows) == 4
        for row in rows:
            assert row["status"].startswith("error: ") or np.isfinite(float(row["explained_variance"])), row

class TestCliOptimizerOptions:
    def _fit_argvs(self, tmp_path):
        """Argument lists of fit, shapes and synth runs on small inputs."""
        data = g.generate(g.SynthConfig(N=6, n=5, m=2, p=1, sigma=0.1, seed=1))
        data_path = tmp_path / "data.json"
        io.save_dataset(data_path, data.points)
        shapes_path = tmp_path / "shapes.csv"
        assert main(["synth-shapes", "--count", "6", "--landmarks", "6", "--out", str(shapes_path)]) == 0
        return (
            ["fit", str(data_path), "-m", "3", "--out", str(tmp_path / "m.json")],
            ["shapes", str(shapes_path), "-m", "3", "--out", str(tmp_path / "t.csv")],
            ["synth", "--preset", "fig3", "--reps", "1", "--out", str(tmp_path / "s.csv")],
        )

    @pytest.mark.parametrize("flag,value", (("--max-iter", "0"), ("--grad-tol", "-1"), ("--grad-tol", "nan")))
    def test_bad_option_is_usage_error(self, tmp_path, capsys, flag, value):
        for argv in self._fit_argvs(tmp_path):
            assert main(argv + [flag, value]) == 2, argv
            assert "bad optimizer option" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ("0", "-3"))
    def test_restarts_below_one_is_usage_error(self, tmp_path, capsys, value):
        fit_argv, shapes_argv, _ = self._fit_argvs(tmp_path)
        for argv in (fit_argv, shapes_argv):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--restarts", value])
            assert exc.value.code == 2, argv
            assert "--restarts" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "t.csv").exists()

    def test_synth_has_no_restarts_option(self, tmp_path, capsys):
        *_, synth_argv = self._fit_argvs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(synth_argv + ["--restarts", "2"])
        assert exc.value.code == 2
        assert "--restarts" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


class TestCliShapes:
    def test_pipeline_and_determinism(self, tmp_path):
        shapes_path = tmp_path / "shapes.csv"
        assert main(["synth-shapes", "--count", "16", "--landmarks", "20", "--seed", "3", "--out", str(shapes_path)]) == 0
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        args = ["shapes", str(shapes_path), "-m", "3", "--supervised", "--knn", "3", "--max-iter", "120"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["raw", "ng", "pga", "sng", "spga"]

    def test_unlabeled_reports_variance_only(self, tmp_path):
        rng = np.random.default_rng(13)
        shapes, _ = g.two_class_shapes(10, 15, rng=rng)
        shapes_path = tmp_path / "shapes.csv"
        io.save_landmarks(shapes_path, shapes)
        out = tmp_path / "t.csv"
        assert main(["shapes", str(shapes_path), "-m", "3", "--out", str(out), "--max-iter", "120"]) == 0
        lines = out.read_text().strip().splitlines()
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["ng", "pga"]

    def test_supervised_needs_labels(self, tmp_path):
        rng = np.random.default_rng(14)
        shapes, _ = g.two_class_shapes(6, 12, rng=rng)
        shapes_path = tmp_path / "shapes.csv"
        io.save_landmarks(shapes_path, shapes)
        assert main(["shapes", str(shapes_path), "-m", "3", "--supervised", "--out", str(tmp_path / "t.csv")]) == 2

    @pytest.mark.parametrize("flag,value", (
        ("--noise", "-1"), ("--noise", "nan"), ("--nuisance", "-1"), ("--nuisance", "inf"),
        ("--deform", "nan"), ("--deform", "inf"),
    ))
    def test_bad_generator_scale_is_data_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "shapes.csv"
        assert main(["synth-shapes", "--count", "6", "--landmarks", "8", flag, value, "--out", str(out)]) == 3
        assert f"error: {flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", (("--count", "1"), ("--count", "-3"), ("--landmarks", "2")))
    def test_too_few_shapes_or_landmarks_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "shapes.csv"
        with pytest.raises(SystemExit) as exc:
            main(["synth-shapes", "--count", "6", "--landmarks", "8", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_shape_is_format_error_naming_the_line(self, tmp_path, capsys):
        rng = np.random.default_rng(16)
        shapes, labels = g.two_class_shapes(6, 5, rng=rng)
        shapes_path = tmp_path / "shapes.csv"
        io.save_landmarks(shapes_path, shapes, labels)
        lines = shapes_path.read_text().splitlines()
        lines[2] = "1,1e308,0,-1e308,0,1,1,2,2,3,3"
        shapes_path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["shapes", str(shapes_path), "-m", "2", "--out", str(tmp_path / "t.csv")]) == 3
        assert "line 3: the landmarks' offsets from the first landmark overflow" in capsys.readouterr().err

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak from /proc/self/status")
    def test_peak_memory_grows_by_under_three_distance_matrices_from_100_to_1000_shapes(self, tmp_path):
        # Each run is its own process and reports VmHWM, the peak resident size of its own address
        # space. Its ru_maxrss would not do: a child's starts at the resident size of the process
        # that forked it, here the test runner. One BLAS thread keeps the BLAS buffers the same on
        # any machine. The growth is what N adds: the N x N distances and masks.
        src = str(Path(g.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = (
            "import pathlib, sys\n"
            "from grassdr.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "status = pathlib.Path('/proc/self/status').read_text().splitlines()\n"
            "print(next(line for line in status if line.startswith('VmHWM:')).split()[1])\n"
        )
        peak_kb = {}
        for count in (100, 1000):
            shapes_path = tmp_path / f"shapes{count}.csv"
            argv = ["synth-shapes", "--count", str(count), "--landmarks", "50", "--seed", "0", "--out", str(shapes_path)]
            assert main(argv) == 0
            argv = ["shapes", str(shapes_path), "-m", "10", "--no-timing", "--out", str(tmp_path / f"t{count}.csv")]
            proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            peak_kb[count] = int(proc.stdout.split()[-1])
        assert (peak_kb[1000] - peak_kb[100]) * 1024 <= 3 * 1000 * 1000 * 8, peak_kb

    def test_single_shape_duplicated_zero_variance_error(self, tmp_path):
        rng = np.random.default_rng(15)
        shape = g.two_class_shapes(2, 12, rng=rng)[0].points[0]
        shapes_path = tmp_path / "shapes.csv"
        io.save_landmarks(shapes_path, g.KAds(np.array([shape] * 6)), labels=[0, 1] * 3)
        assert main(["shapes", str(shapes_path), "-m", "3", "--out", str(tmp_path / "t.csv")]) == 3


class TestCliKnnOptions:
    """Bad kNN options are usage errors (exit 2), caught before any fit runs."""

    def _argvs(self, tmp_path):
        """Supervised fit and shapes argument lists on 12 labeled inputs."""
        data = g.generate(g.SynthConfig(N=12, n=5, m=2, p=1, sigma=0.1, seed=1))
        data_path = tmp_path / "data.json"
        io.save_dataset(data_path, data.points, [0, 1] * 6)
        shapes_path = tmp_path / "shapes.csv"
        assert main(["synth-shapes", "--count", "12", "--landmarks", "8", "--out", str(shapes_path)]) == 0
        return (
            ["fit", str(data_path), "-m", "3", "--supervised", "--max-iter", "5", "--out", str(tmp_path / "m.json")],
            ["shapes", str(shapes_path), "-m", "2", "--max-iter", "5", "--out", str(tmp_path / "t.csv")],
        )

    @pytest.mark.parametrize("value", ("0", "-2"))
    def test_knn_below_one_is_usage_error(self, tmp_path, capsys, value):
        _, shapes_argv = self._argvs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(shapes_argv + ["--knn", value])
        assert exc.value.code == 2
        assert "--knn" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_knn_above_other_shapes_is_usage_error(self, tmp_path, capsys):
        _, shapes_argv = self._argvs(tmp_path)
        assert main(shapes_argv + ["--knn", "50"]) == 2
        assert "--knn must be at most 11" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()
        assert main(shapes_argv + ["--knn", "11"]) == 0

    @pytest.mark.parametrize("flag,value", (("--k-within", "-1"), ("--k-between", "-3")))
    def test_negative_affinity_k_is_usage_error(self, tmp_path, capsys, flag, value):
        fit_argv, shapes_argv = self._argvs(tmp_path)
        for argv in (fit_argv, shapes_argv + ["--supervised"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag, value])
            assert exc.value.code == 2, argv
            assert flag in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "t.csv").exists()


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ("grassdr", "grassdr.cli"))
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        src = str(Path(g.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / "synth.csv"
        argv = [
            "synth", "--num-points", "8", "--ambient-dim", "4", "--planted-dim", "2", "--sigma", "0.1",
            "--reps", "1", "--max-iter", "5", "--metric", "projection", "--no-timing", "--out", str(out),
        ]
        proc = subprocess.run([sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("preset,") and len(lines) == 2
