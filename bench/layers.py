"""Per-layer tracing of grassdr, applied from outside the package.

``Tracer.install`` replaces each traced function at every name through which
callers look it up (``grassdr.nested.minimize`` and ``grassdr.optim.minimize``
are separate bindings of one function), so the program itself is unchanged.
Each wrapper records a span: its call count, its self time (duration minus
the time of traced calls made inside it) and the quantities listed in
``LAYERS``. Spans are kept in memory as running totals.

``FitCapture`` uses the same rebinding to keep every fit's input and report
so that the checks can recompute losses after the timed phase; it only
appends to a list and is installed in untraced runs as well.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Per-layer metric names are "<module>.<function>.<quantity>". ``workloads``
# names where the layer is exercised; the quick tests require at least one
# call there, so a renamed function cannot leave its metrics silently at 0.
LAYERS = {
    "nested.unsupervised_loss_and_grad": (("calls", "self_s"), ("fig3", "table1", "shapes-large")),
    "nested.supervised_loss_and_grad": (("calls", "self_s"), ("shapes",)),
    "nested.variance": (("calls", "self_s"), ("table1", "shapes")),
    "nested.project_dataset": (("points", "self_s"), ("shapes", "shapes-large")),
    "nested.build_affinity": (("self_s",), ("shapes",)),
    "optim.minimize": (
        ("calls", "iterations", "self_s", "stop_grad_tol", "stop_max_iter", "stop_stall"),
        ("fig3", "table1", "shapes", "shapes-large"),
    ),
    "optim.retract": (("calls", "self_s"), ("fig3", "table1", "shapes", "shapes-large")),
    "geometry.frechet_mean": (("calls", "failed", "self_s"), ("fig3", "table1", "shapes", "shapes-large")),
    "geometry.pairwise_distances": (("pairs", "bytes_computed", "self_s"), ("shapes", "shapes-large")),
    "geometry.orthonormal_columns": (("calls", "self_s"), ("fig3", "table1", "shapes", "shapes-large")),
    "baselines.pga_fit": (("self_s",), ("table1", "shapes", "shapes-large")),
    "baselines.spga_fit": (("self_s",), ("shapes",)),
    "baselines.gknn_loo": (("self_s",), ("shapes", "shapes-large")),
    "baselines.knn_loo_from_distances": (("self_s",), ("shapes", "shapes-large")),
    "datagen.generate": (("self_s",), ("fig3", "table1")),
    "datagen.two_class_shapes": (("self_s",), ("shapes", "shapes-large")),
    "shape.kads_to_grassmann": (("calls", "self_s"), ("shapes", "shapes-large")),
    "io.load_landmarks": (("self_s",), ("shapes", "shapes-large")),
    "io.write_table": (("self_s",), ("fig3", "table1", "shapes", "shapes-large")),
    "cli.main": (("self_s",), ("fig3", "table1", "shapes", "shapes-large")),
}

# Derived metric: line-search loss evaluations per optimizer iteration.
EVALS_PER_ITER = "optim.line_search.evals_per_iter"
LOSS_FUNCTIONS = ("nested.unsupervised_loss_and_grad", "nested.supervised_loss_and_grad")

UNITS = {
    "calls": "count", "points": "count", "pairs": "count", "failed": "count",
    "iterations": "count", "bytes_computed": "bytes", "self_s": "s",
    "stop_grad_tol": "count", "stop_max_iter": "count", "stop_stall": "count",
}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, (quantities, _) in LAYERS.items():
        for q in quantities:
            better = "higher" if q == "stop_grad_tol" else "lower"
            out.append((f"{layer}.{q}", UNITS[q], better))
    out.append((EVALS_PER_ITER, "evals/iter", "lower"))
    return out


def _resolve(dotted: str):
    module_name, func_name = dotted.split(".")
    module = sys.modules[f"grassdr.{module_name}"]
    return getattr(module, func_name)


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every grassdr module attribute bound to ``original`` at ``replacement``."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "grassdr" or mod_name.startswith("grassdr.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _p_and_itemsize(points) -> tuple[int, int]:
    """Subspace dimension p and bytes per scalar of a dataset (list or stacked array)."""
    basis = getattr(points[0], "basis", points[0])
    return basis.shape[-1], basis.dtype.itemsize


class _Patch:
    """Replaces grassdr functions with wrappers until ``uninstall``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, original, replacement) -> None:
        self._undo += _rebind(original, replacement)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


class Tracer(_Patch):
    """Running per-layer totals; ``snapshot`` gives the current values."""

    def __init__(self):
        super().__init__()
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._loss_calls = 0

    def install(self) -> None:
        self._convergence_error = sys.modules["grassdr.errors"].ConvergenceError
        for layer in LAYERS:
            original = _resolve(layer)
            self._replace(original, self._wrap(layer, original))

    def snapshot(self) -> dict[str, float]:
        values = {name: self.totals.get(name, 0.0) for name, _, _ in metric_names() if name != EVALS_PER_ITER}
        values["_line_search_evals"] = self.totals.get("_line_search_evals", 0.0)
        return values

    def _wrap(self, layer: str, func):
        totals = self.totals
        stack = self._stack
        is_loss = layer in LOSS_FUNCTIONS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if is_loss:
                self._loss_calls += 1
            loss_calls_before = self._loss_calls
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            outcome = None
            try:
                result = func(*args, **kwargs)
                outcome = result
                return result
            except Exception as exc:
                outcome = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[f"{layer}.calls"] += 1
                totals[f"{layer}.self_s"] += elapsed - frame[0]
                totals[f"{layer}.total_s"] += elapsed
                self._count(layer, args, outcome, self._loss_calls - loss_calls_before)

        return wrapper

    def _count(self, layer: str, args, outcome, inner_loss_calls: int) -> None:
        totals = self.totals
        failed = isinstance(outcome, Exception)
        if failed:
            totals[f"{layer}.failed"] += 1
        if layer == "nested.project_dataset":
            totals[f"{layer}.points"] += len(args[1])
        elif layer == "geometry.pairwise_distances":
            n = len(args[0])
            p, itemsize = _p_and_itemsize(args[0])
            totals[f"{layer}.pairs"] += n * n
            # The (N, N, p, p) gram of inner products that the function forms.
            totals[f"{layer}.bytes_computed"] += n * n * p * p * itemsize
        elif layer == "optim.minimize":
            # A ConvergenceError out of minimize is a line-search stall; it
            # carries the best result so far, like a normal return.
            stalled = isinstance(outcome, self._convergence_error)
            result = outcome.result if stalled else outcome
            if failed and not stalled:
                return
            totals[f"{layer}.iterations"] += result.iterations
            if stalled:
                totals[f"{layer}.stop_stall"] += 1
            elif result.converged:
                totals[f"{layer}.stop_grad_tol"] += 1
            else:
                totals[f"{layer}.stop_max_iter"] += 1
            # Every loss evaluation after the one at the starting point is a
            # line-search trial.
            totals["_line_search_evals"] += max(inner_loss_calls - 1, 0)


def per_round(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Metric values for the work done between two snapshots."""
    delta = {k: after[k] - before.get(k, 0.0) for k in after}
    iters = delta.get("optim.minimize.iterations", 0.0)
    evals = delta.pop("_line_search_evals", 0.0)
    delta[EVALS_PER_ITER] = evals / iters if iters else 0.0
    return delta


class FitCapture(_Patch):
    """Keeps the dataset, metric and report of every nested fit."""

    def __init__(self):
        super().__init__()
        self.fits: list[dict] = []  # the caller may swap in a fresh list

    def install(self) -> None:
        for name, supervised in (("fit_unsupervised", False), ("fit_supervised", True)):
            original = _resolve(f"nested.{name}")
            self._replace(original, self._wrap(original, supervised))

    def _wrap(self, func, supervised: bool):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            report = func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.fits.append({
                "dataset": bound.arguments["dataset"],
                "metric": bound.arguments["metric"],
                "report": report,
                "supervised": supervised,
            })
            return report

        return wrapper
