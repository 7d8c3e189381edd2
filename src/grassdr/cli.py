"""Command-line front end: model fitting, projection, synthetic experiment
drivers, and the planar-shape pipeline.

Exit codes: 0 success, 2 usage error, 3 data or format error,
4 convergence failure. All commands are deterministic given --seed;
pass --no-timing to omit wall-clock fields (making outputs byte-stable).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__, io
from .baselines import gknn_loo, knn_loo_from_distances, pga_coordinates, pga_explained_variance, pga_fit, spga_fit
from .datagen import SynthConfig, generate, two_class_shapes
from .errors import ConvergenceError, GrassdrError
from .nested import fit_supervised, fit_unsupervised, project_dataset, reconstruct_point
from .optim import OptimizerConfig
from .shape import kads_to_grassmann

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4

SYNTH_HEADER = ("preset", "rep", "sigma_or_mdim", "method", "metric", "explained_variance", "runtime_seconds", "status")


class UsageError(GrassdrError):
    """Bad command-line arguments (exit 2)."""


def _optimizer_config(args) -> OptimizerConfig:
    try:
        return OptimizerConfig(max_iter=args.max_iter, grad_tol=args.grad_tol)
    except ValueError as exc:
        raise UsageError(f"bad optimizer option: {exc}") from exc


def _elapsed(start, enabled: bool):
    return (time.perf_counter() - start) if enabled else ""


# ---------------------------------------------------------------------------
# fit / project / reconstruct
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    points, labels = io.load_dataset(args.dataset)
    if args.supervised and labels is None:
        raise UsageError("--supervised requires a labeled dataset")
    config = _optimizer_config(args)
    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    if args.supervised:
        report = fit_supervised(
            points, labels, args.m, metric=args.metric,
            k_w=args.k_within, k_b=args.k_between,
            config=config, rng=rng, restarts=args.restarts,
        )
    else:
        report = fit_unsupervised(
            points, args.m, metric=args.metric,
            config=config, rng=rng, restarts=args.restarts,
        )
    wall = time.perf_counter() - start

    io.save_model(args.out, report.map, metadata={
        "loss": report.loss_trace[-1],
        "seed": args.seed,
        "tool_version": __version__,
    })
    if args.report:
        doc = {
            "command": "fit",
            "dataset": str(args.dataset),
            "m": args.m,
            "metric": args.metric,
            "supervised": bool(args.supervised),
            "seed": args.seed,
            "final_loss": report.loss_trace[-1],
            "loss_trace": report.loss_trace,
            "explained_variance": report.explained_variance_ratio,
            "iterations": report.iterations,
            "converged": report.converged,
        }
        if args.timing:
            doc["wall_time_seconds"] = wall
        io.save_report(args.report, doc)
    if not report.converged:
        print("fit did not reach the gradient tolerance; best point saved", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_project(args) -> int:
    nmap, _ = io.load_model(args.model)
    points, labels = io.load_dataset(args.dataset)
    projected = project_dataset(nmap, points)
    io.save_dataset(args.out, projected, labels)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    nmap, _ = io.load_model(args.model)
    points, labels = io.load_dataset(args.dataset)
    rebuilt = [reconstruct_point(nmap, pt) for pt in points]
    io.save_dataset(args.out, rebuilt, labels)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthetic experiment driver
# ---------------------------------------------------------------------------


def _rep_seed(seed: int, rep: int) -> int:
    return seed + rep


def _ng_row(preset, rep, level, points, fit_dim, metric, config, timing) -> tuple:
    """One nested-model row: its explained variance, or an ``error: ...`` status."""
    try:
        start = time.perf_counter()
        report = fit_unsupervised(points, fit_dim, metric=metric, config=config)
        runtime = _elapsed(start, timing)
    except GrassdrError as exc:
        return (preset, rep, level, "ng", metric, "", "", f"error: {exc}")
    status = "ok" if report.converged else "no-convergence"
    return (preset, rep, level, "ng", metric, report.explained_variance_ratio, runtime, status)


def _rows_fig3(rep: int, args, config) -> list[tuple]:
    rows = []
    for sigma in range(1, 11):
        data = generate(SynthConfig(N=50, n=10, m=3, p=1, sigma=float(sigma), seed=_rep_seed(args.seed, rep) * 100 + sigma))
        for metric in ("projection", "geodesic"):
            rows.append(_ng_row("fig3", rep, sigma, data.points, 3, metric, config, args.timing))
    return rows


def _rows_fig4(rep: int, args, config) -> list[tuple]:
    rows = []
    timing = args.timing
    for idx, sigma in enumerate((0.01, 0.25, 0.5, 1.0, 1.5, 2.0)):
        data = generate(SynthConfig(N=50, n=10, m=5, p=2, sigma=sigma, seed=_rep_seed(args.seed, rep) * 100 + idx))
        rows.append(_ng_row("fig4", rep, sigma, data.points, 3, "projection", config, timing))
        try:
            start = time.perf_counter()
            model = pga_fit(data.points, 2)
            ev = pga_explained_variance(model, data.points, 2)
            rows.append(("fig4", rep, sigma, "pga", "tpca", ev, _elapsed(start, timing), "ok"))
        except GrassdrError as exc:
            rows.append(("fig4", rep, sigma, "pga", "tpca", "", "", f"error: {exc}"))
    return rows


def _rows_table1(rep: int, args, config) -> list[tuple]:
    rows = []
    timing = args.timing
    mdims = (2, 4, 6, 8, 10)
    data = generate(SynthConfig(N=50, n=30, m=20, p=2, sigma=0.1, seed=_rep_seed(args.seed, rep)))
    pga_model = None
    try:
        start = time.perf_counter()
        pga_model = pga_fit(data.points, max(mdims))
        pga_time = _elapsed(start, timing)
    except GrassdrError as exc:
        for mdim in mdims:
            rows.append(("table1", rep, mdim, "pga", "tpca", "", "", f"error: {exc}"))
    if pga_model is not None:
        for mdim in mdims:
            ev = pga_explained_variance(pga_model, data.points, mdim)
            rows.append(("table1", rep, mdim, "pga", "tpca", ev, pga_time, "ok"))
    for mdim in mdims:
        fit_dim = mdim // 2 + 2  # Gr(2, mdim/2 + 2) has dimension mdim
        rows.append(_ng_row("table1", rep, mdim, data.points, fit_dim, "projection", config, timing))
    return rows


def _rows_custom(rep: int, args, config) -> list[tuple]:
    metrics = ("projection", "geodesic") if args.metric == "both" else (args.metric,)
    data = generate(SynthConfig(
        N=args.num_points, n=args.ambient_dim, m=args.planted_dim,
        p=args.subspace_dim, sigma=args.sigma, seed=_rep_seed(args.seed, rep),
    ))
    fit_dim = args.fit_dim if args.fit_dim is not None else args.planted_dim
    return [_ng_row("custom", rep, args.sigma, data.points, fit_dim, metric, config, args.timing) for metric in metrics]


PRESETS = {"fig3": _rows_fig3, "fig4": _rows_fig4, "table1": _rows_table1}


def cmd_synth(args) -> int:
    if args.preset is None and args.ambient_dim is None:
        raise UsageError("choose a --preset or give explicit dimensions")
    if args.preset is None and args.planted_dim is None:
        raise UsageError("a custom synth run needs --planted-dim as well as --ambient-dim")
    config = _optimizer_config(args)
    rows_for = PRESETS.get(args.preset, _rows_custom)
    rows = [row for rep in range(args.reps) for row in rows_for(rep, args, config)]
    rows.sort(key=lambda r: (r[0], float(r[2]), r[1], r[3], r[4]))
    io.write_table(args.out, SYNTH_HEADER, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# shape pipeline
# ---------------------------------------------------------------------------


def _nested_row(method: str, report, points, labels, args) -> tuple:
    """Shapes row of a nested fit: LOO geodesic kNN accuracy of the projections (if labeled) and EV."""
    acc = ""
    if labels is not None:
        acc, _ = gknn_loo(project_dataset(report.map, points), labels, k=args.knn)
    return (method, acc, report.explained_variance_ratio)


def _pga_row(method: str, model, points, labels, args) -> tuple:
    """Shapes row of a PGA-type model: LOO kNN accuracy on its coordinates (if labeled) and EV."""
    acc = ""
    if labels is not None:
        coeffs = pga_coordinates(model, points)
        dists = np.linalg.norm(coeffs[:, None, :] - coeffs[None, :, :], axis=-1)
        acc, _ = knn_loo_from_distances(dists, labels, args.knn)
    return (method, acc, pga_explained_variance(model, points, args.m))


def cmd_shapes(args) -> int:
    shapes, labels = io.load_landmarks(args.landmarks)
    if args.supervised and labels is None:
        raise UsageError("--supervised requires a labeled landmark file")
    points = [kads_to_grassmann(s) for s in shapes]
    ambient = points[0].n
    fit_dim = args.m + 1  # reduce Gr(1, k-1) to Gr(1, m+1): manifold dimension m
    if not 1 < fit_dim <= ambient:
        raise UsageError(f"--m must be in [1, {ambient - 1}], got {args.m}")
    config = _optimizer_config(args)
    rng = np.random.default_rng(args.seed)

    rows = []
    if labels is not None:
        acc_raw, _ = gknn_loo(points, labels, k=args.knn)
        rows.append(("raw", acc_raw, ""))

    report = fit_unsupervised(points, fit_dim, metric=args.metric, config=config, rng=rng, restarts=args.restarts)
    rows.append(_nested_row("ng", report, points, labels, args))
    rows.append(_pga_row("pga", pga_fit(points, args.m), points, labels, args))

    if args.supervised:
        sng = fit_supervised(
            points, labels, fit_dim, metric=args.metric,
            k_w=args.k_within, k_b=args.k_between,
            config=config, rng=rng, restarts=args.restarts,
        )
        rows.append(_nested_row("sng", sng, points, labels, args))
        rows.append(_pga_row("spga", spga_fit(points, labels, args.m), points, labels, args))

    io.write_table(args.out, ("method", "knn_accuracy", "explained_variance"), rows)
    return EXIT_OK


def cmd_synth_shapes(args) -> int:
    rng = np.random.default_rng(args.seed)
    shapes, labels = two_class_shapes(
        args.count, args.landmarks, rng=rng,
        deform=args.deform, nuisance=args.nuisance, noise=args.noise,
    )
    io.save_landmarks(args.out, shapes, labels)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_common_fit_options(sub, allow_both_metrics: bool = False) -> None:
    choices = ("projection", "geodesic", "both") if allow_both_metrics else ("projection", "geodesic")
    sub.add_argument("--metric", choices=choices, default="both" if allow_both_metrics else "projection")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-iter", type=int, default=300)
    sub.add_argument("--grad-tol", type=float, default=1e-6)
    sub.add_argument("--restarts", type=int, default=1)
    sub.add_argument("--no-timing", dest="timing", action="store_false")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grassdr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"grassdr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit a nested model to a dataset file")
    fit.add_argument("dataset")
    fit.add_argument("-m", "--m", type=int, required=True, help="target ambient dimension (fit to Gr(p, m))")
    fit.add_argument("--supervised", action="store_true")
    fit.add_argument("--k-within", type=int, default=5)
    fit.add_argument("--k-between", type=int, default=5)
    fit.add_argument("--out", default="model.json")
    fit.add_argument("--report", default=None)
    _add_common_fit_options(fit)
    fit.set_defaults(func=cmd_fit)

    for name, func in (("project", cmd_project), ("reconstruct", cmd_reconstruct)):
        sub = subs.add_parser(name, help=f"{name} a dataset through a fitted model")
        sub.add_argument("model")
        sub.add_argument("dataset")
        sub.add_argument("--out", required=True)
        sub.set_defaults(func=func)

    synth = subs.add_parser("synth", help="run the synthetic-data protocol and emit a tidy CSV")
    synth.add_argument("--preset", choices=tuple(PRESETS), default=None)
    synth.add_argument("--num-points", type=int, default=50)
    synth.add_argument("--ambient-dim", type=int, default=None)
    synth.add_argument("--planted-dim", type=int, default=None)
    synth.add_argument("--subspace-dim", type=int, default=1)
    synth.add_argument("--sigma", type=float, default=0.0)
    synth.add_argument("--fit-dim", type=int, default=None)
    synth.add_argument("--reps", type=int, default=20)
    synth.add_argument("--out", required=True)
    _add_common_fit_options(synth, allow_both_metrics=True)
    synth.set_defaults(func=cmd_synth)

    shapes = subs.add_parser("shapes", help="shape pipeline: convert, reduce, classify")
    shapes.add_argument("landmarks")
    shapes.add_argument("-m", "--m", type=int, required=True, help="reduced manifold dimension (to Gr(1, m+1) over C)")
    shapes.add_argument("--supervised", action="store_true")
    shapes.add_argument("--knn", type=int, default=5)
    shapes.add_argument("--k-within", type=int, default=5)
    shapes.add_argument("--k-between", type=int, default=5)
    shapes.add_argument("--out", required=True)
    _add_common_fit_options(shapes)
    shapes.set_defaults(func=cmd_shapes)

    gen = subs.add_parser("synth-shapes", help="generate a labeled two-class landmark file")
    gen.add_argument("--count", type=int, default=40)
    gen.add_argument("--landmarks", type=int, default=100)
    gen.add_argument("--deform", type=float, default=0.25)
    gen.add_argument("--nuisance", type=float, default=0.12)
    gen.add_argument("--noise", type=float, default=0.003)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_synth_shapes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (GrassdrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
