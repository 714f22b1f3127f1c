"""Spans around the calls into each wordfourier layer, for the traced run.

A layer is a module.  The traced run replaces a layer's public functions
in the namespaces where their callers look them up (every function that
``wordfourier.cli`` imports, plus the lookups one layer makes into
another, listed in ``INNER_LOOKUPS``) with wrappers that record a span:
name, start, end and parent.  Nothing in the program changes, and the
originals are put back when the run ends.  Words helpers that reduction
calls internally are not wrapped, so their time counts as reduction time.

A span's self time is its duration minus the time its child spans cover.
The root span of every query is ``cli.main``, so the self times of all
spans add up to the time spent inside the CLI.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYER_OF_MODULE = {
    "wordfourier.cli": "cli",
    "wordfourier.words": "words",
    "wordfourier.reduction": "reduction",
    "wordfourier.analysis": "reduction",
    "wordfourier.groups": "groups",
    "wordfourier.chartable": "chartable",
    "wordfourier.fourier": "fourier",
    "wordfourier._kernels": "kernels",
}
LAYERS = ("cli", "words", "reduction", "groups", "chartable", "fourier", "kernels")

# (namespace the caller looks the function up in, attribute)
INNER_LOOKUPS = (
    ("wordfourier.chartable", "conjugacy_classes"),
    ("wordfourier.fourier", "conjugacy_classes"),
    ("wordfourier.fourier", "fs_indicator"),
    ("wordfourier._kernels", "element_counts"),
    ("wordfourier._kernels", "split_character_sum"),
)

# The traced run may lose at most this share of its wall time outside the
# spans (the benchmark's own loop between queries).
ACCOUNTING_BOUND = 0.05


def targets():
    """(module, attribute, span name) for every function the traced run wraps."""
    cli = sys.modules["wordfourier.cli"]
    found = [("wordfourier.cli", "main")]
    for attr, obj in sorted(vars(cli).items()):
        if (
            inspect.isfunction(obj)
            and not attr.startswith("_")
            and obj.__module__ in LAYER_OF_MODULE
            and obj.__module__ != "wordfourier.cli"
        ):
            found.append(("wordfourier.cli", attr))
    found.extend(INNER_LOOKUPS)
    out = []
    for module, attr in found:
        fn = getattr(sys.modules[module], attr)
        out.append((module, attr, f"{LAYER_OF_MODULE[fn.__module__]}.{fn.__name__}"))
    return out


class Tracer:
    """Keeps spans and counters in memory while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._query: dict = {}

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for module, attr, name in targets():
                namespace = sys.modules[module]
                original = getattr(namespace, attr)
                setattr(namespace, attr, self._wrap(name, original))
                patched.append((namespace, attr, original))
            yield self
        finally:
            for namespace, attr, original in reversed(patched):
                setattr(namespace, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(result, *args, **kwargs)
            return result

        return traced

    # Counters, recorded where the work happens.  Each takes the wrapped
    # function's result and its arguments.

    def _count_words_parse_word(self, word, *args, **kwargs):
        self.counts["words.letters_parsed"] += len(word.letters)

    def _count_reduction_normalize(self, form, word, *args, **kwargs):
        self.counts["reduction.letters_in"] += len(word.letters)
        self._query["form"] = form

    def _count_groups_builtin_group(self, group, *args, **kwargs):
        self._query["group"] = group

    def _count_chartable_builtin_table(self, table, *args, **kwargs):
        self._query["characters"] = len(table)

    def _count_kernels_element_counts(self, _, group, letters, rank, *args, **kwargs):
        assignments = group.order**rank
        self.counts["kernels.counts_assignments"] += assignments
        self.counts["kernels.counts_lookups"] += assignments * len(letters)

    def _count_kernels_split_character_sum(self, _, group, word_letter_lists, rank, *args, **kwargs):
        assignments = group.order**rank
        self.counts["kernels.split_sum_assignments"] += assignments
        self.counts["kernels.split_sum_lookups"] += assignments * sum(
            len(letters) for letters in word_letter_lists
        )

    def _count_cli_main(self, *args, **kwargs):
        """Per query: what the formula route enumerates against the oracle's |G|^d."""
        query, self._query = self._query, {}
        if "form" in query and "group" in query:
            order = query["group"].order
            residual = query["form"].summation_count(order)
            self.counts["reduction.residual_assignments"] += residual
            self.counts["formula_enumerated"] += residual * query["characters"]
            self.counts["oracle_space"] += order ** query["form"].word.alphabet.rank

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts per span name."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        selfs: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            selfs[name] += end - start - covered[index]
            calls[name] += 1
        return selfs, calls


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float, slowdown: float):
    """Per-pass layer metrics: {name: (value, unit)}.

    ``slowdown`` is traced over untraced time, each query at its latency
    (run.query_latencies), so host contention bursts do not pose as
    tracing overhead.
    """
    selfs, calls = tracer.self_times()
    counts = tracer.counts

    def seconds(*names):
        return sum(selfs.get(n, 0.0) for n in names) / passes

    def per_pass(n):
        value = n / passes
        return int(value) if value == int(value) else value

    def rate(assignments, secs):
        return assignments / secs / 1e6 if secs > 0 else 0.0

    layer_self = {
        layer: sum(v for n, v in selfs.items() if n.split(".")[0] == layer) / passes
        for layer in LAYERS
    }
    wall = traced_wall / passes
    counts_s = seconds("kernels.element_counts")
    split_s = seconds("kernels.split_character_sum")
    metrics = {
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.calls": (per_pass(calls["cli.main"]), "count"),
        "words.self_s": (layer_self["words"], "s"),
        "words.parse_s": (seconds("words.parse_word"), "s"),
        "words.parse_calls": (per_pass(calls["words.parse_word"]), "count"),
        "words.letters_parsed": (per_pass(counts["words.letters_parsed"]), "count"),
        "reduction.self_s": (layer_self["reduction"], "s"),
        "reduction.normalize_s": (seconds("reduction.normalize"), "s"),
        "reduction.normalize_calls": (per_pass(calls["reduction.normalize"]), "count"),
        "reduction.letters_in": (per_pass(counts["reduction.letters_in"]), "count"),
        "reduction.residual_assignments": (
            per_pass(counts["reduction.residual_assignments"]), "count"),
        "reduction.enum_ratio": (
            counts["formula_enumerated"] / counts["oracle_space"]
            if counts["oracle_space"] else 0.0, "ratio"),
        "groups.self_s": (layer_self["groups"], "s"),
        "groups.load_s": (seconds("groups.builtin_group"), "s"),
        "groups.load_calls": (per_pass(calls["groups.builtin_group"]), "count"),
        "groups.classes_s": (seconds("groups.conjugacy_classes"), "s"),
        "chartable.self_s": (layer_self["chartable"], "s"),
        "chartable.load_s": (seconds("chartable.builtin_table"), "s"),
        "chartable.load_calls": (per_pass(calls["chartable.builtin_table"]), "count"),
        "chartable.fs_s": (seconds("chartable.fs_indicator"), "s"),
        "fourier.self_s": (layer_self["fourier"], "s"),
        "fourier.distribution_s": (seconds("fourier.distribution"), "s"),
        "fourier.project_s": (seconds("fourier.project"), "s"),
        "fourier.formula_s": (seconds("fourier.coefficient_formula"), "s"),
        "fourier.formula_calls": (per_pass(calls["fourier.coefficient_formula"]), "count"),
        "fourier.annotate_s": (seconds("fourier.divisors", "fourier.rational_annotation"), "s"),
        "kernels.self_s": (layer_self["kernels"], "s"),
        "kernels.counts_s": (counts_s, "s"),
        "kernels.counts_calls": (per_pass(calls["kernels.element_counts"]), "count"),
        "kernels.counts_assignments": (per_pass(counts["kernels.counts_assignments"]), "count"),
        "kernels.counts_lookups": (per_pass(counts["kernels.counts_lookups"]), "count"),
        "kernels.counts_massign_per_s": (
            rate(counts["kernels.counts_assignments"] / passes, counts_s), "Massign/s"),
        "kernels.split_sum_s": (split_s, "s"),
        "kernels.split_sum_calls": (per_pass(calls["kernels.split_character_sum"]), "count"),
        "kernels.split_sum_assignments": (
            per_pass(counts["kernels.split_sum_assignments"]), "count"),
        "kernels.split_sum_lookups": (per_pass(counts["kernels.split_sum_lookups"]), "count"),
        "kernels.split_sum_massign_per_s": (
            rate(counts["kernels.split_sum_assignments"] / passes, split_s), "Massign/s"),
        "trace.wall_s": (wall, "s"),
        "trace.unaccounted_frac": (1.0 - sum(layer_self.values()) / wall, "ratio"),
        "trace.overhead_frac": (slowdown - 1.0, "ratio"),
    }
    return metrics
