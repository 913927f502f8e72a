"""Layer tracing from outside the program.

``traced(tracer)`` replaces public finegrid functions, at the binding their
caller looks up, with wrappers that record a span (name, start, end, parent)
or, for per-point functions, only a call count. Spans stay in memory; the
wrappers are removed when the ``with`` block ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, 0.0, 0.0])
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index][2:] = (start, end)

    def wrap_span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def wrap_counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
        return dict(totals)

    def total_times(self) -> dict:
        """Total inclusive duration per span name."""
        totals: dict = defaultdict(float)
        for name, _, start, end in self.spans:
            totals[name] += end - start
        return dict(totals)


def _read_bytes(counts, args, result):
    counts["grid.read_bytes"] += os.path.getsize(args[0])


def _write_bytes(counts, args, result):
    counts["grid.write_bytes"] += os.path.getsize(args[1])


def _clipped(counts, args, result):
    counts["region.clip_in"] += len(args[0])
    counts["region.clip_kept"] += len(result)


def _pairs(counts, args, result):
    counts["features.distance_pairs"] += args[0].shape[0] * args[1].shape[0]


def _retained(counts, args, result):
    counts["covariates.retained"] += result.retained


def _hyppo_evals(counts, args, result):
    from finegrid.models.hyppo import admissible_degrees

    _, queries, cfg, space = args[:4]
    fitted = [d for d in admissible_degrees(space.nvars, cfg.k, cfg.max_degree) if d >= 1]
    counts["hyppo.loo_evals"] += len(queries) * len(fitted)
    counts["hyppo.k"] = cfg.k


def _forest(counts, args, result):
    counts["forest.trees_grown"] += result.ntree
    counts["forest.nodes"] += sum(tree.n_nodes for tree in result.trees)


def _routed(counts, args, result):
    counts["forest.rows_routed"] += len(args[1])


def _bindings():
    """(spans, counters): the attributes to wrap, as
    (owner, attribute, span name, count hook) and (owner, attribute, counter name)."""
    import finegrid.covariates as covariates
    import finegrid.models.forest as forest
    import finegrid.models.hyppo as hyppo
    import finegrid.models.knn as knn
    import finegrid.pipeline as pipeline
    import finegrid.region as region

    spans = [
        (pipeline, "run_pipeline", "pipeline", None),
        (pipeline, "read_ascii_grid", "grid.read", _read_bytes),
        (pipeline, "write_ascii_grid", "grid.write", _write_bytes),
        (pipeline, "sample_covariates", "grid.sample", None),
        (pipeline, "clip_points", "region.clip", _clipped),
        (covariates, "pca_fit", "covariates.pca", _retained),
        (covariates, "pca_transform", "covariates.pca", None),
        (knn, "neighbor_search", "features.search", _pairs),
        (hyppo, "neighbor_search", "features.search", _pairs),
        (pipeline, "knn_predict", "knn.predict", None),
        (pipeline, "hyppo_predict_with_degrees", "hyppo.predict", _hyppo_evals),
        (pipeline, "tune_mtry", "forest.tune", None),
        (pipeline, "rf_fit", "forest.fit", _forest),
        (forest, "rf_fit", "forest.fit", _forest),  # the fits inside tune_mtry
        (pipeline, "rf_predict", "forest.predict", None),
        (forest, "rf_predict", "forest.predict", None),
        (forest.Tree, "predict", "forest.route", _routed),
        (pipeline, "write_forest", "forest.write", None),
        (pipeline, "aggregate_fine_to_coarse", "analysis.aggregate", None),
        (pipeline, "residual_report", "analysis.report", None),
        (pipeline, "scatter_export", "analysis.scatter", None),
        (pipeline, "render_heatmap", "render.render", None),
    ]
    counters = [
        (region, "contains", "region.points_tested"),  # once per point in clip_points
        (region, "boundary_distance_km", "region.buffer_tests"),
        (pipeline, "contains", "region.report_tests"),
        (hyppo, "fit_polynomial", "hyppo.fit_polynomial_calls"),  # k per LOO fallback
    ]
    return spans, counters


def current_bindings() -> list:
    """The objects currently bound at every traced attribute."""
    spans, counters = _bindings()
    return [getattr(owner, attr) for owner, attr, *_ in spans + counters]


@contextmanager
def traced(tracer: Tracer):
    """Install the tracing wrappers for the duration of the block."""
    spans, counters = _bindings()
    installed = []
    try:
        for owner, attr, name, count in spans:
            installed.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap_span(name, owner.__dict__[attr], count))
        for owner, attr, name in counters:
            installed.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap_counter(name, owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self times and counts of one traced run.

    ``forest.tune_s`` is the inclusive time of ``tune_mtry``, whose own
    self time is only fold bookkeeping. Ratios come with their bases:
    ``region.kept_ratio`` over ``region.points_tested`` and
    ``hyppo.fallback_ratio`` over ``hyppo.loo_evals``.
    """
    self_s = tracer.self_times()
    c = tracer.counts
    # each LOO fallback refits once per neighbour, k times in all
    fallbacks = c["hyppo.fit_polynomial_calls"] / c["hyppo.k"] if c["hyppo.k"] else 0
    return {
        "grid.read_s": self_s.get("grid.read", 0.0),
        "grid.write_s": self_s.get("grid.write", 0.0),
        "grid.sample_s": self_s.get("grid.sample", 0.0),
        "grid.read_bytes": c["grid.read_bytes"],
        "grid.write_bytes": c["grid.write_bytes"],
        "region.clip_s": self_s.get("region.clip", 0.0),
        "region.points_tested": c["region.points_tested"],
        "region.buffer_tests": c["region.buffer_tests"],
        "region.report_tests": c["region.report_tests"],
        "region.kept_ratio": c["region.clip_kept"] / max(c["region.clip_in"], 1),
        "covariates.pca_s": self_s.get("covariates.pca", 0.0),
        "covariates.retained": c["covariates.retained"],
        "features.search_s": self_s.get("features.search", 0.0),
        "features.distance_pairs": c["features.distance_pairs"],
        "knn.predict_s": self_s.get("knn.predict", 0.0),
        "hyppo.predict_s": self_s.get("hyppo.predict", 0.0),
        "hyppo.loo_fallbacks": fallbacks,
        "hyppo.loo_evals": c["hyppo.loo_evals"],
        "hyppo.fallback_ratio": fallbacks / max(c["hyppo.loo_evals"], 1),
        "forest.fit_s": self_s.get("forest.fit", 0.0),
        "forest.tune_s": tracer.total_times().get("forest.tune", 0.0),
        "forest.trees_grown": c["forest.trees_grown"],
        "forest.nodes": c["forest.nodes"],
        "forest.route_s": self_s.get("forest.route", 0.0),
        "forest.rows_routed": c["forest.rows_routed"],
        "forest.write_s": self_s.get("forest.write", 0.0),
        "render.render_s": self_s.get("render.render", 0.0),
        "analysis.aggregate_s": self_s.get("analysis.aggregate", 0.0),
        "analysis.report_s": self_s.get("analysis.report", 0.0),
        "analysis.scatter_s": self_s.get("analysis.scatter", 0.0),
        "pipeline.self_s": self_s.get("pipeline", 0.0),
    }


# metrics that count work; they must repeat exactly between traced runs
COUNT_METRICS = (
    "grid.read_bytes",
    "grid.write_bytes",
    "region.points_tested",
    "region.buffer_tests",
    "region.report_tests",
    "region.kept_ratio",
    "covariates.retained",
    "features.distance_pairs",
    "hyppo.loo_fallbacks",
    "hyppo.loo_evals",
    "hyppo.fallback_ratio",
    "forest.trees_grown",
    "forest.nodes",
    "forest.rows_routed",
)
