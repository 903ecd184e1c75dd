"""Span tracing of abcgof's public functions, from outside the package.

A :class:`Tracer` rebinds the public functions named in :data:`TARGETS` (and
the ``simulate`` methods of the built-in simulators) to wrappers that record
one span per call: id, parent id, name, start, end, thread and a few
attributes. Every ``abcgof`` module that imported a function gets the wrapper,
so calls made inside the package are traced too; :meth:`Tracer.uninstall`
puts the originals back. Spans stay in memory until :func:`layer_metrics`
turns them into per-layer numbers.

The self time of a span is its duration minus the union of its children's
intervals. ``parallel.task`` spans are children of their ``parallel.map``
span even when a worker thread runs them, and their self time (the caller's
per-task code) is charged to the layer of the code that called the map.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

# (module, attribute, span name). "Class.method" attributes wrap a method.
# Only public names: a target that no longer exists is reported as missing.
TARGETS = (
    ("abcgof.cli", "main", "cli.main"),
    ("abcgof.harness", "run_power", "harness.study"),
    ("abcgof.harness", "run_calibration", "harness.study"),
    ("abcgof.harness", "emit_pvalue_histogram", "harness.histogram"),
    ("abcgof.gof", "gfit", "gof.gfit"),
    ("abcgof.gof", "gfit_post", "gof.gfit_post"),
    ("abcgof.gof", "d_prior", "gof.d_prior"),
    ("abcgof.gof", "d_post", "gof.d_post"),
    ("abcgof.gof", "null_distribution_prior", "gof.null_prior"),
    ("abcgof.gof", "posterior_replicates", "gof.replicates"),
    ("abcgof.gof", "replicate_scaling", "gof.replicate_scaling"),
    ("abcgof.gof", "observed_d_post", "gof.observed_d_post"),
    ("abcgof.gof", "p_value", "gof.p_value"),
    ("abcgof.rejection", "reject", "rejection.reject"),
    ("abcgof.adjust", "adjusted_posterior", "adjust.posterior"),
    ("abcgof.adjust", "sample_posterior", "adjust.sample"),
    ("abcgof.models", "build_reference_table", "models.build"),
    ("abcgof.models", "CoalescentSimulator.simulate", "coalescent.simulate"),
    ("abcgof.models", "ToySimulator.simulate", "toy.simulate"),
    ("abcgof.coalescent", "simulate_genealogy", "coalescent.genealogy"),
    ("abcgof.coalescent", "drop_mutations", "coalescent.mutations"),
    ("abcgof.coalescent", "stats_sfs", "coalescent.stats"),
    ("abcgof.coalescent", "stats_pi_tajima", "coalescent.stats"),
    ("abcgof.core", "load_reference_table", "core.load"),
    ("abcgof.core", "load_observed", "core.load"),
    ("abcgof.core", "reference_table_tsv", "core.tsv_render"),
    ("abcgof.core", "fit_scaling", "core.fit_scaling"),
    ("abcgof.core", "scaled_distances", "core.distances"),
    ("abcgof.core", "distance", "core.distances"),
    ("abcgof.parallel", "parallel_map", "parallel.map"),
    ("abcgof.pca", "pca_fit", "pca.fit"),
    ("abcgof.pca", "envelope", "pca.envelope"),
    ("abcgof.pca", "scores_tsv", "pca.tsv"),
    ("abcgof.pca", "polygon_tsv", "pca.tsv"),
    ("abcgof.ppc", "ppc_report", "ppc.report"),
    ("abcgof.ppc", "ppc_histogram_data", "ppc.histogram"),
    ("abcgof.ppc", "histogram_tsv", "ppc.tsv"),
)

LAYERS = (
    "coalescent", "toy", "models", "core", "rejection", "adjust",
    "gof", "harness", "parallel", "pca", "ppc", "cli",
)

CLI_SUBCOMMANDS = ("gfit", "gfitpca", "ppc", "simulate", "rerun", "study")

# Warning text -> counter, for warnings.catch_warnings(record=True).
WARNING_KINDS = (
    ("clamping to 1", "rejection.clamp_warnings"),
    ("singular regression design", "adjust.singular_warnings"),
    ("dropping constant statistics", "core.dropped_warnings"),
    ("degenerate score covariance", "pca.degenerate_warnings"),
)


def _attrs(span_name, args, kwargs, result):
    """Span attributes read from a call's arguments and result."""
    if span_name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        return {"sub": str(argv[0]) if argv else ""}
    if span_name == "coalescent.simulate":
        return {"stat_set": args[0].stat_set}
    if span_name == "models.build":
        return {"rows": int(args[1] if len(args) > 1 else kwargs["n_sims"])}
    if span_name == "core.load":  # an observed file is one row
        return {"rows": 0 if result is None else int(getattr(result, "n", 1))}
    if span_name == "harness.study":
        return {"pvalues": 0 if result is None else len(result.p_values)}
    return None


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, thread, attrs)
        self.missing = []  # targets that no longer exist
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, parent, fn, args, kwargs, attrs=None):
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        result = None  # stays None when fn raises
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if attrs is None:
                attrs = _attrs(name, args, kwargs, result)
            self.spans.append((sid, parent, name, start, end, threading.get_ident(), attrs))

    def _wrap(self, name, fn):
        tracer = self

        if name == "parallel.map":

            @functools.wraps(fn)
            def wrapper(task_fn, items, threads=1):
                items = list(items)
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                map_id = []

                def task(item):
                    return tracer._call("parallel.task", map_id[0], task_fn, (item,), {}, {})

                def run():
                    map_id.append(tracer._stack()[-1])
                    return fn(task, items, threads=threads)

                workers = 1 if threads <= 1 or len(items) <= 1 else min(threads, len(items))
                attrs = {"tasks": len(items), "workers": workers}
                return tracer._call(name, parent, run, (), {}, attrs)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            return tracer._call(name, stack[-1] if stack else None, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every target in every abcgof module that holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "abcgof"]
        self.missing = []
        for module_name, attr, span_name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or method not in vars(cls):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = vars(cls)[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(span_name, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    def write_tsv(self, path) -> None:
        """Write the spans, one per line, times in seconds from the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tthread\tstart_s\tend_s\tattrs\n")
            for sid, parent, name, start, end, thread, attrs in self.spans:
                fh.write(
                    f"{sid}\t{parent or ''}\t{name}\t{thread}\t{start - origin:.9f}"
                    f"\t{end - origin:.9f}\t{attrs or ''}\n"
                )


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _quantile(values, q) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def self_times(spans) -> dict:
    """Map span id -> (layer, self seconds). Task spans take their caller's layer."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))

    def layer_of(span):
        if span[2] != "parallel.task":
            return span[2].split(".")[0]
        caller = by_id.get(by_id[span[1]][1]) if span[1] in by_id else None
        return layer_of(caller) if caller else "parallel"

    return {
        s[0]: (layer_of(s), (s[4] - s[3]) - _covered(children.get(s[0], ()), s[3], s[4]))
        for s in spans
    }


# Per-layer metric -> (unit, span names it is computed from). A metric whose
# spans come only from missing targets is reported as missing, never as zero.
METRICS = {
    "coalescent.calls": ("count", ["coalescent.simulate"]),
    "coalescent.sfs.sim_ms": ("ms", ["coalescent.simulate"]),
    "coalescent.pi_tajima.sim_ms": ("ms", ["coalescent.simulate"]),
    "coalescent.genealogy_us": ("us", ["coalescent.genealogy"]),
    "coalescent.mutations_us": ("us", ["coalescent.mutations"]),
    "coalescent.stats_us": ("us", ["coalescent.stats"]),
    "coalescent.busy_frac": ("ratio", ["coalescent.simulate"]),
    "toy.calls": ("count", ["toy.simulate"]),
    "toy.sim_us": ("us", ["toy.simulate"]),
    "toy.busy_frac": ("ratio", ["toy.simulate"]),
    "models.build_s": ("s", ["models.build"]),
    "models.rows": ("count", ["models.build"]),
    "core.load_s": ("s", ["core.load"]),
    "core.load_rows_per_s": ("1/s", ["core.load"]),
    "core.tsv_render_s": ("s", ["core.tsv_render"]),
    "core.fit_scaling_ms": ("ms", ["core.fit_scaling"]),
    "core.distance_calls": ("count", ["core.distances"]),
    "core.dropped_warnings": ("count", ["core.fit_scaling"]),
    "rejection.calls": ("count", ["rejection.reject"]),
    "rejection.reject_us_p50": ("us", ["rejection.reject"]),
    "rejection.reject_us_p99": ("us", ["rejection.reject"]),
    "rejection.busy_frac": ("ratio", ["rejection.reject"]),
    "rejection.clamp_warnings": ("count", ["rejection.reject"]),
    "adjust.calls": ("count", ["adjust.posterior"]),
    "adjust.posterior_us": ("us", ["adjust.posterior"]),
    "adjust.sample_us": ("us", ["adjust.sample"]),
    "adjust.singular_warnings": ("count", ["adjust.posterior"]),
    "adjust.fallback_frac": ("ratio", ["adjust.posterior"]),
    "gof.null_prior_s": ("s", ["gof.null_prior"]),
    "gof.replicates_calls": ("count", ["gof.replicates"]),
    "gof.replicates_self_us": ("us", ["gof.replicates"]),
    "gof.replicate_scaling_us": ("us", ["gof.replicate_scaling"]),
    "harness.study_s": ("s", ["harness.study"]),
    "harness.pvalues": ("count", ["harness.study"]),
    "parallel.tasks": ("count", ["parallel.map"]),
    "parallel.map_s": ("s", ["parallel.map"]),
    "parallel.efficiency": ("ratio", ["parallel.map"]),
    "pca.fit_ms": ("ms", ["pca.fit"]),
    "pca.envelope_ms": ("ms", ["pca.envelope"]),
    "pca.degenerate_warnings": ("count", ["pca.envelope"]),
    "ppc.report_ms": ("ms", ["ppc.report"]),
    "ppc.histogram_ms": ("ms", ["ppc.histogram"]),
    **{f"cli.{sub}_s": ("s", ["cli.main"]) for sub in CLI_SUBCOMMANDS},
    **{
        f"{layer}.self_s": ("s", sorted({s for _, _, s in TARGETS if s.startswith(layer + ".")}))
        for layer in LAYERS
    },
    # Whole-trace figures: summed self time over traced wall time, and the
    # traced over the untraced iteration time minus 1 (computed by run.py).
    "trace.accounted_frac": ("ratio", []),
    "trace_overhead_frac": ("ratio", []),
}


def layer_metrics(spans, warning_messages, traced_wall: float, iterations: int,
                  missing_targets) -> tuple[dict, list]:
    """Per-layer metrics from the spans and warnings of `iterations` traced iterations.

    Totals are per iteration; per-call times are medians over calls; busy
    fractions divide summed span time by the traced wall time (they can
    exceed 1 when worker threads overlap). Returns (metrics, missing names).
    """
    warning_counts = {}
    for message in warning_messages:
        for text, counter in WARNING_KINDS:
            if text in message:
                warning_counts[counter] = warning_counts.get(counter, 0) + 1
    missing_spans = {
        span for module, attr, span in TARGETS if f"{module}.{attr}" in missing_targets
    }
    present_spans = {span for _, _, span in TARGETS} - missing_spans
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def durations(name):
        return [s[4] - s[3] for s in by_name.get(name, ())]

    def calls(name):
        return per_iter(len(by_name.get(name, ())))

    def per_iter(value):
        return value / iterations

    def median(values, scale):
        return statistics.median(values) * scale if values else 0.0

    def busy(name):
        return sum(durations(name)) / traced_wall

    sim = by_name.get("coalescent.simulate", ())
    loads = by_name.get("core.load", ())
    load_s = sum(s[4] - s[3] for s in loads)
    adjust_calls = len(by_name.get("adjust.posterior", ()))
    maps = by_name.get("parallel.map", ())
    map_capacity = sum(s[6]["workers"] * (s[4] - s[3]) for s in maps)
    cli_spans = by_name.get("cli.main", ())
    cli_ids = {s[0] for s in cli_spans}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for layer, seconds in selfs.values():
        layer_self[layer] += seconds

    m = {
        "coalescent.calls": calls("coalescent.simulate"),
        "coalescent.sfs.sim_ms": median(
            [s[4] - s[3] for s in sim if s[6]["stat_set"] == "sfs"], 1e3),
        "coalescent.pi_tajima.sim_ms": median(
            [s[4] - s[3] for s in sim if s[6]["stat_set"] == "pi-tajima"], 1e3),
        "coalescent.genealogy_us": median(durations("coalescent.genealogy"), 1e6),
        "coalescent.mutations_us": median(durations("coalescent.mutations"), 1e6),
        "coalescent.stats_us": median(durations("coalescent.stats"), 1e6),
        "coalescent.busy_frac": busy("coalescent.simulate"),
        "toy.calls": calls("toy.simulate"),
        "toy.sim_us": median(durations("toy.simulate"), 1e6),
        "toy.busy_frac": busy("toy.simulate"),
        "models.build_s": per_iter(sum(durations("models.build"))),
        "models.rows": per_iter(sum(s[6]["rows"] for s in by_name.get("models.build", ()))),
        "core.load_s": per_iter(load_s),
        "core.load_rows_per_s": sum(s[6]["rows"] for s in loads) / load_s if load_s else 0.0,
        "core.tsv_render_s": per_iter(sum(durations("core.tsv_render"))),
        "core.fit_scaling_ms": median(durations("core.fit_scaling"), 1e3),
        "core.distance_calls": calls("core.distances"),
        "rejection.calls": calls("rejection.reject"),
        "rejection.reject_us_p50": median(durations("rejection.reject"), 1e6),
        "rejection.reject_us_p99": _quantile(durations("rejection.reject"), 0.99) * 1e6,
        "rejection.busy_frac": busy("rejection.reject"),
        "adjust.calls": calls("adjust.posterior"),
        "adjust.posterior_us": median(durations("adjust.posterior"), 1e6),
        "adjust.sample_us": median(durations("adjust.sample"), 1e6),
        "adjust.fallback_frac": (
            warning_counts.get("adjust.singular_warnings", 0) / adjust_calls
            if adjust_calls else 0.0),
        "gof.null_prior_s": per_iter(sum(durations("gof.null_prior"))),
        "gof.replicates_calls": calls("gof.replicates"),
        "gof.replicates_self_us": median(
            [selfs[s[0]][1] for s in by_name.get("gof.replicates", ())], 1e6),
        "gof.replicate_scaling_us": median(durations("gof.replicate_scaling"), 1e6),
        "harness.study_s": per_iter(sum(durations("harness.study"))),
        "harness.pvalues": per_iter(
            sum(s[6]["pvalues"] for s in by_name.get("harness.study", ()))),
        "parallel.tasks": per_iter(sum(s[6]["tasks"] for s in maps)),
        "parallel.map_s": per_iter(sum(s[4] - s[3] for s in maps)),
        "parallel.efficiency": (
            sum(durations("parallel.task")) / map_capacity if map_capacity else 0.0),
        "pca.fit_ms": median(durations("pca.fit"), 1e3),
        "pca.envelope_ms": median(durations("pca.envelope"), 1e3),
        "ppc.report_ms": median(durations("ppc.report"), 1e3),
        "ppc.histogram_ms": median(durations("ppc.histogram"), 1e3),
    }
    for _, counter in WARNING_KINDS:
        m[counter] = per_iter(warning_counts.get(counter, 0))
    for sub in CLI_SUBCOMMANDS:
        top = [s for s in cli_spans if s[6]["sub"] == sub and s[1] not in cli_ids]
        m[f"cli.{sub}_s"] = per_iter(sum(s[4] - s[3] for s in top))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_iter(layer_self[layer])
    m["trace.accounted_frac"] = sum(layer_self.values()) / traced_wall

    missing = sorted(
        name for name, (_, needs) in METRICS.items()
        if needs and not any(span in present_spans for span in needs)
    )
    for name in missing:
        m.pop(name, None)
    return m, missing
