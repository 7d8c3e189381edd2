import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grassdr as g
from grassdr import io
from grassdr.cli import main
from grassdr.errors import FormatError


def make_dataset(rng, count=6, n=8, p=1, field="real"):
    return [g.sample_stiefel_uniform(n, p, field, rng=rng) for _ in range(count)]


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
        assert g.GrassmannPoint(loaded[0].basis)  # orthonormality restored

    def test_large_drift_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = make_dataset(rng, count=2)
        path = tmp_path / "data.json"
        io.save_dataset(path, pts)
        doc = json.loads(path.read_text())
        doc["points"][1][0][0] += 0.25
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            io.load_dataset(path)

    def test_malformed_json_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"field": "real", "n": 3')
        with pytest.raises(FormatError):
            io.load_dataset(path)


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
    "labels-int": lambda d: _edited(d, ["labels"], 5),
    "field-unknown": lambda d: _edited(d, ["field"], "quaternion"),
    "nan-entry": lambda d: _edited(d, ["points", 0, 0, 0], float("nan")),
    "inf-entry": lambda d: _edited(d, ["points", 1, 2, 0], float("inf")),
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


class TestLandmarkFiles:
    def test_csv_round_trip_with_labels(self, tmp_path):
        rng = np.random.default_rng(5)
        shapes, labels = g.two_class_shapes(6, 12, rng=rng)
        path = tmp_path / "shapes.csv"
        io.save_landmarks(path, shapes, labels)
        loaded, loaded_labels = io.load_landmarks(path)
        assert [s.k for s in loaded] == [12] * 6
        assert list(loaded_labels) == [str(v) for v in labels]
        for a, b in zip(shapes, loaded):
            assert np.allclose(a.points, b.points)

    def test_csv_unlabeled(self, tmp_path):
        rng = np.random.default_rng(6)
        shapes, _ = g.two_class_shapes(4, 10, rng=rng)
        path = tmp_path / "shapes.csv"
        io.save_landmarks(path, shapes)
        loaded, labels = io.load_landmarks(path)
        assert labels is None
        assert len(loaded) == 4

    def test_json_shapes(self, tmp_path):
        path = tmp_path / "shapes.json"
        doc = {"shapes": [[[0, 0], [1, 0], [0, 1]], [[0, 0], [2, 0], [0, 2]]], "labels": [0, 1]}
        path.write_text(json.dumps(doc))
        shapes, labels = io.load_landmarks(path)
        assert len(shapes) == 2 and list(labels) == [0, 1]

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

    def test_saved_model_reevaluates_identically(self, tmp_path):
        data_path = self._write_dataset(tmp_path, b_std=0.1, sigma=0.4)
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        assert main(["fit", str(data_path), "-m", "3", "--out", str(model_path), "--report", str(report_path)]) == 0
        nmap, meta = io.load_model(model_path)
        points, _ = io.load_dataset(data_path)
        loss, _ = g.loss_unsupervised(nmap, points)
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

    def test_preset_required_or_dims(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x.csv")]) == 2

    def test_custom_run_needs_planted_dim(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--ambient-dim", "5", "--out", str(out)]) == 2
        assert "--planted-dim" in capsys.readouterr().err
        assert not out.exists()


class TestCliOptimizerOptions:
    @pytest.mark.parametrize("flag,value", (("--max-iter", "0"), ("--grad-tol", "-1"), ("--grad-tol", "nan")))
    def test_bad_option_is_usage_error(self, tmp_path, capsys, flag, value):
        data = g.generate(g.SynthConfig(N=6, n=5, m=2, p=1, sigma=0.1, seed=1))
        data_path = tmp_path / "data.json"
        io.save_dataset(data_path, data.points)
        shapes_path = tmp_path / "shapes.csv"
        assert main(["synth-shapes", "--count", "6", "--landmarks", "6", "--out", str(shapes_path)]) == 0
        for argv in (
            ["fit", str(data_path), "-m", "3", "--out", str(tmp_path / "m.json")],
            ["shapes", str(shapes_path), "-m", "3", "--out", str(tmp_path / "t.csv")],
            ["synth", "--preset", "fig3", "--reps", "1", "--out", str(tmp_path / "s.csv")],
        ):
            assert main(argv + [flag, value]) == 2, argv
            assert "bad optimizer option" in capsys.readouterr().err


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

    def test_single_shape_duplicated_zero_variance_error(self, tmp_path):
        rng = np.random.default_rng(15)
        shape = g.two_class_shapes(2, 12, rng=rng)[0][0]
        shapes_path = tmp_path / "shapes.csv"
        io.save_landmarks(shapes_path, [shape] * 6, labels=[0, 1] * 3)
        assert main(["shapes", str(shapes_path), "-m", "3", "--out", str(tmp_path / "t.csv")]) == 3


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
