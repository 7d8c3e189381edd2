"""Command-line front end: model fitting, projection, synthetic experiment
drivers, and the planar-shape pipeline.

Exit codes: 0 success, 2 usage error, 3 data or format error,
4 convergence failure. All commands are deterministic given --seed;
pass --no-timing to omit wall-clock fields (making outputs byte-stable).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import numpy as np

from . import __version__, io
from .baselines import gknn_loo, knn_loo_from_distances, pga_distances, pga_explained_variance, pga_fit, spga_fit
from .datagen import SynthConfig, generate, two_class_shapes
from .errors import ConvergenceError, GrassdrError
from .geometry import Dataset
from .nested import embed_dataset, fit_supervised, fit_unsupervised, project_dataset
from .optim import OptimizerConfig
from .shape import kads_to_grassmann

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4

SYNTH_HEADER = ("preset", "rep", "sigma_or_mdim", "method", "metric", "explained_variance", "runtime_seconds", "status")
PRESETS = ("fig3", "fig4", "table1")


class UsageError(GrassdrError):
    """Bad command-line arguments (exit 2)."""


def _optimizer_config(args) -> OptimizerConfig:
    try:
        return OptimizerConfig(max_iter=args.max_iter, grad_tol=args.grad_tol)
    except ValueError as exc:
        raise UsageError(f"bad optimizer option: {exc}") from exc


def _elapsed(start, enabled: bool):
    return (time.perf_counter() - start) if enabled else ""


def _fit(args, points, fit_dim: int, config: OptimizerConfig, rng, labels=None):
    """A nested fit with the fit options of ``fit`` and ``shapes``: supervised when ``labels`` are given."""
    if labels is not None:
        return fit_supervised(
            points, labels, fit_dim, metric=args.metric,
            k_w=args.k_within, k_b=args.k_between,
            config=config, rng=rng, restarts=args.restarts,
        )
    return fit_unsupervised(points, fit_dim, metric=args.metric, config=config, rng=rng, restarts=args.restarts)


# ---------------------------------------------------------------------------
# fit / project / reconstruct
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    points, labels = io.load_dataset(args.dataset)
    if args.supervised and labels is None:
        raise UsageError("--supervised requires a labeled dataset")
    n, p = points.stacked.shape[1:]
    if not p < args.m <= n:
        raise UsageError(f"--m must be in [{p + 1}, {n}] (p < m <= n), got {args.m}")
    config = _optimizer_config(args)
    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    report = _fit(args, points, args.m, config, rng, labels if args.supervised else None)
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
            "grad_norm": report.grad_norm,
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
    out = project_dataset(nmap, points)
    if args.command == "reconstruct":
        out = embed_dataset(nmap, out)
    io.save_dataset(args.out, out, labels)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthetic experiment driver
# ---------------------------------------------------------------------------


def _synth_dataset(**config) -> tuple[Dataset, float]:
    """The Dataset ``generate(SynthConfig(**config)).points``, and the seconds its Karcher mean and variance took.

    Each row that uses the mean adds those seconds to its runtime, so it
    reports its fit's cost end to end; a failed mean is each such row's error.
    """
    ds = generate(SynthConfig(**config)).points
    start = time.perf_counter()
    with contextlib.suppress(ConvergenceError):
        ds.variance
    return ds, time.perf_counter() - start


def _ng_row(preset, rep, level, ds, mean_s, fit_dim, metric, config, timing) -> tuple:
    """One nested-model row: its explained variance, or an ``error: ...`` status."""
    try:
        start = time.perf_counter() - mean_s
        report = fit_unsupervised(ds, fit_dim, metric=metric, config=config)
        runtime = _elapsed(start, timing)
    except GrassdrError as exc:
        return (preset, rep, level, "ng", metric, "", "", f"error: {exc}")
    status = "ok" if report.converged else "no-convergence"
    return (preset, rep, level, "ng", metric, report.explained_variance_ratio, runtime, status)


def _pga_rows(preset, rep, pga_rows, ds, mean_s, timing) -> list[tuple]:
    """Rows of one PGA model with as many components as the largest k: its EV at each (level, k), or ``error: ...``."""
    if not pga_rows:
        return []
    try:
        start = time.perf_counter() - mean_s
        model = pga_fit(ds, max(k for _, k in pga_rows))
        evs = [pga_explained_variance(model, ds, k) for _, k in pga_rows]
        runtime = _elapsed(start, timing)
    except GrassdrError as exc:
        return [(preset, rep, level, "pga", "tpca", "", "", f"error: {exc}") for level, _ in pga_rows]
    return [(preset, rep, level, "pga", "tpca", ev, runtime, "ok") for (level, _), ev in zip(pga_rows, evs)]


def _synth_experiments(preset: str, seed: int, args) -> list[tuple[dict, list, list]]:
    """One rep's experiments, with ``seed`` the rep's seed: (SynthConfig keywords, NG fits, PGA rows) per dataset.

    The NG fits are (level, fit_dim, metric) and the PGA rows (level, k), all
    read off one PGA model; the level is the row's sigma_or_mdim.
    """
    if preset == "fig3":
        return [(dict(N=50, n=10, m=3, p=1, sigma=float(sigma), seed=seed * 100 + sigma),
                 [(sigma, 3, "projection"), (sigma, 3, "geodesic")], [])
                for sigma in range(1, 11)]
    if preset == "fig4":
        return [(dict(N=50, n=10, m=5, p=2, sigma=sigma, seed=seed * 100 + idx),
                 [(sigma, 3, "projection")], [(sigma, 2)])
                for idx, sigma in enumerate((0.01, 0.25, 0.5, 1.0, 1.5, 2.0))]
    if preset == "table1":
        mdims = (2, 4, 6, 8, 10)  # Gr(2, mdim/2 + 2) has dimension mdim
        return [(dict(N=50, n=30, m=20, p=2, sigma=0.1, seed=seed),
                 [(mdim, mdim // 2 + 2, "projection") for mdim in mdims], [(mdim, mdim) for mdim in mdims])]
    metrics = ("projection", "geodesic") if args.metric == "both" else (args.metric,)
    fit_dim = args.fit_dim if args.fit_dim is not None else args.planted_dim
    return [(dict(N=args.num_points, n=args.ambient_dim, m=args.planted_dim, p=args.subspace_dim,
                  sigma=args.sigma, seed=seed),
             [(args.sigma, fit_dim, metric) for metric in metrics], [])]


def _check_custom_dims(args) -> None:
    """Reject a custom run's missing or inconsistent dimensions before any data is generated."""
    if args.ambient_dim is None:
        raise UsageError("choose a --preset or give explicit dimensions")
    if args.planted_dim is None:
        raise UsageError("a custom synth run needs --planted-dim as well as --ambient-dim")
    n, m, p = args.ambient_dim, args.planted_dim, args.subspace_dim
    if not 1 <= p <= m < n:
        raise UsageError(f"need 1 <= --subspace-dim <= --planted-dim < --ambient-dim, got {p}, {m} and {n}")
    fit_dim = m if args.fit_dim is None else args.fit_dim
    if not p < fit_dim <= n:
        raise UsageError(f"--fit-dim (default --planted-dim) must be in [{p + 1}, {n}] (p < m <= n), got {fit_dim}")


def cmd_synth(args) -> int:
    given = [flag for flag in CUSTOM_SYNTH_OPTIONS if _dest(flag) in vars(args)]
    if args.preset is not None and given:
        raise UsageError(f"{given[0]} applies to a custom run only, not to --preset {args.preset}")
    for flag, option in CUSTOM_SYNTH_OPTIONS.items():
        vars(args).setdefault(_dest(flag), option["default"])
    if args.preset is None:
        _check_custom_dims(args)
    config = _optimizer_config(args)
    preset = args.preset or "custom"
    rows = []
    for rep in range(args.reps):
        for synth_config, ng_fits, pga_rows in _synth_experiments(preset, args.seed + rep, args):
            ds, mean_s = _synth_dataset(**synth_config)
            rows += _pga_rows(preset, rep, pga_rows, ds, mean_s, args.timing)
            rows += [_ng_row(preset, rep, level, ds, mean_s, fit_dim, metric, config, args.timing)
                     for level, fit_dim, metric in ng_fits]
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
        acc, _ = knn_loo_from_distances(pga_distances(model, points), labels, args.knn)
    return (method, acc, pga_explained_variance(model, points, args.m))


def cmd_shapes(args) -> int:
    shapes, labels = io.load_landmarks(args.landmarks)
    if args.supervised and labels is None:
        raise UsageError("--supervised requires a labeled landmark file")
    points = kads_to_grassmann(shapes)
    if labels is not None and args.knn > len(points) - 1:
        raise UsageError(f"--knn must be at most {len(points) - 1} (the number of other shapes), got {args.knn}")
    ambient = points.stacked.shape[1]
    fit_dim = args.m + 1  # reduce Gr(1, k-1) to Gr(1, m+1): manifold dimension m
    if not 1 < fit_dim <= ambient:
        raise UsageError(f"--m must be in [1, {ambient - 1}], got {args.m}")
    config = _optimizer_config(args)
    rng = np.random.default_rng(args.seed)

    rows = []
    if labels is not None:
        acc_raw, _ = gknn_loo(points, labels, k=args.knn)
        rows.append(("raw", acc_raw, ""))

    rows.append(_nested_row("ng", _fit(args, points, fit_dim, config, rng), points, labels, args))
    rows.append(_pga_row("pga", pga_fit(points, args.m), points, labels, args))

    if args.supervised:
        rows.append(_nested_row("sng", _fit(args, points, fit_dim, config, rng, labels), points, labels, args))
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


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


# A custom synth run's options; a preset fixes them and rejects each one given, whatever its value.
CUSTOM_SYNTH_OPTIONS = {
    "--num-points": {"type": _int_at_least(2), "default": 50},
    "--ambient-dim": {"type": int, "default": None},
    "--planted-dim": {"type": int, "default": None},
    "--subspace-dim": {"type": int, "default": 1},
    "--sigma": {"type": float, "default": 0.0},
    "--fit-dim": {"type": int, "default": None},
    "--metric": {"choices": ("projection", "geodesic", "both"), "default": "both"},
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_optimizer_options(sub) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-iter", type=int, default=300)
    sub.add_argument("--grad-tol", type=float, default=1e-6)
    sub.add_argument("--no-timing", dest="timing", action="store_false")


def _add_model_fit_options(sub) -> None:
    """The options that ``_fit`` reads, shared by ``fit`` and ``shapes``."""
    sub.add_argument("--metric", choices=("projection", "geodesic"), default="projection")
    sub.add_argument("--supervised", action="store_true")
    sub.add_argument("--k-within", type=_nonnegative_int, default=5)
    sub.add_argument("--k-between", type=_nonnegative_int, default=5)
    sub.add_argument("--restarts", type=_positive_int, default=1)
    _add_optimizer_options(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grassdr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"grassdr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit a nested model to a dataset file")
    fit.add_argument("dataset")
    fit.add_argument("-m", "--m", type=int, required=True, help="target ambient dimension (fit to Gr(p, m))")
    fit.add_argument("--out", default="model.json")
    fit.add_argument("--report", default=None)
    _add_model_fit_options(fit)
    fit.set_defaults(func=cmd_fit)

    for name in ("project", "reconstruct"):
        sub = subs.add_parser(name, help=f"{name} a dataset through a fitted model")
        sub.add_argument("model")
        sub.add_argument("dataset")
        sub.add_argument("--out", required=True)
        sub.set_defaults(func=cmd_project)

    synth = subs.add_parser("synth", help="run the synthetic-data protocol and emit a tidy CSV")
    synth.add_argument("--preset", choices=PRESETS, default=None)
    for flag, option in CUSTOM_SYNTH_OPTIONS.items():
        synth.add_argument(flag, **{**option, "default": argparse.SUPPRESS})
    synth.add_argument("--reps", type=_positive_int, default=20)
    synth.add_argument("--out", required=True)
    _add_optimizer_options(synth)
    synth.set_defaults(func=cmd_synth)

    shapes = subs.add_parser(
        "shapes",
        help="shape pipeline: convert, reduce, classify",
        description="Map the landmark file to Gr(1, C^(k-1)), fit and compare the methods, and write one row "
        "per method with its LOO kNN accuracy (labeled files) and explained variance. A nested row's "
        "explained variance is the Frechet variance of the projected shapes over that of the shapes; for "
        "the supervised sng row it is not a fraction and can exceed 1, because the map pulls the classes "
        "apart. A PGA row's is the share of tangent variance in its first m components.",
    )
    shapes.add_argument("landmarks")
    shapes.add_argument("-m", "--m", type=int, required=True, help="reduced manifold dimension (to Gr(1, m+1) over C)")
    shapes.add_argument("--knn", type=_positive_int, default=5)
    shapes.add_argument("--out", required=True)
    _add_model_fit_options(shapes)
    shapes.set_defaults(func=cmd_shapes)

    gen = subs.add_parser("synth-shapes", help="generate a labeled two-class landmark file")
    gen.add_argument("--count", type=_int_at_least(2), default=40)
    gen.add_argument("--landmarks", type=_int_at_least(3), default=100)
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
    except (GrassdrError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
