"""Span recorder for the traced benchmark run.

Spans are recorded around the public tabfusion functions each module looks up
at call time (``cli.train_gbdt``, ``gbdt.build_tree``, ``xdeepfm.backward``,
``ensemble.auc``, ...). ``Tracer.installed()`` swaps every module attribute
bound to a traced function for a span-recording wrapper and restores the
originals on exit, so the package itself is never edited. Spans stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _rows(result) -> dict:
    """Rows scored: a probability array, or a bare float for a single row."""
    return {"rows": getattr(result, "size", 1)}


LAYERS = ("cli", "dataset", "gbdt", "xdeepfm", "ensemble", "metrics")

# (span name, defining module, function, count extractor over the result).
# The layer of a span is the part of its name before the first dot.
TARGETS = (
    ("dataset.load_csv", "dataset", "load_csv", lambda r: {"rows": r.n_rows}),
    ("dataset.split", "dataset", "stratified_split", None),
    ("dataset.fit_transform", "dataset", "fit_transform", None),
    ("dataset.apply_transform", "dataset", "apply_transform", lambda r: {"rows": r.labels.size}),
    ("dataset.to_dict", "dataset", "transform_to_dict", None),
    ("dataset.from_dict", "dataset", "transform_from_dict", None),
    ("gbdt.fit", "gbdt", "train_gbdt", None),
    ("gbdt.build_tree", "gbdt", "build_tree", lambda r: {"leaves": r.n_leaves}),
    ("gbdt.predict", "gbdt", "predict_gbdt", _rows),
    ("gbdt.to_dict", "gbdt", "gbdt_to_dict", None),
    ("gbdt.from_dict", "gbdt", "gbdt_from_dict", None),
    ("xdeepfm.fit", "xdeepfm", "train_xdeepfm", None),
    ("xdeepfm.backward", "xdeepfm", "backward", None),
    ("xdeepfm.forward", "xdeepfm", "forward", _rows),
    ("xdeepfm.to_dict", "xdeepfm", "xdeepfm_to_dict", None),
    ("xdeepfm.from_dict", "xdeepfm", "xdeepfm_from_dict", None),
    ("ensemble.grid_search", "ensemble", "grid_search_alpha", lambda r: {"points": len(r[1])}),
    ("ensemble.blend", "ensemble", "blend", None),
    ("ensemble.to_dict", "ensemble", "ensemble_to_dict", None),
    ("ensemble.from_dict", "ensemble", "ensemble_from_dict", None),
    ("metrics.auc", "metrics", "auc", None),
    ("metrics.evaluate", "metrics", "evaluate", None),
    ("metrics.format_report", "metrics", "format_report_table", None),
)

# Per-layer metric -> (span name, what to sum). Times are inclusive span time.
SPAN_METRICS = {
    "gbdt.fit_s": ("gbdt.fit", "time"),
    "gbdt.build_tree_s": ("gbdt.build_tree", "time"),
    "gbdt.build_tree_calls": ("gbdt.build_tree", "calls"),
    "gbdt.leaves": ("gbdt.build_tree", "leaves"),
    "gbdt.predict_s": ("gbdt.predict", "time"),
    "gbdt.predict_calls": ("gbdt.predict", "calls"),
    "gbdt.predict_rows": ("gbdt.predict", "rows"),
    "gbdt.to_dict_s": ("gbdt.to_dict", "time"),
    "gbdt.from_dict_s": ("gbdt.from_dict", "time"),
    "xdeepfm.fit_s": ("xdeepfm.fit", "time"),
    "xdeepfm.backward_s": ("xdeepfm.backward", "time"),
    "xdeepfm.backward_calls": ("xdeepfm.backward", "calls"),
    "xdeepfm.forward_s": ("xdeepfm.forward", "time"),
    "xdeepfm.forward_rows": ("xdeepfm.forward", "rows"),
    "xdeepfm.to_dict_s": ("xdeepfm.to_dict", "time"),
    "xdeepfm.from_dict_s": ("xdeepfm.from_dict", "time"),
    "dataset.load_csv_s": ("dataset.load_csv", "time"),
    "dataset.load_csv_calls": ("dataset.load_csv", "calls"),
    "dataset.load_csv_rows": ("dataset.load_csv", "rows"),
    "dataset.apply_transform_s": ("dataset.apply_transform", "time"),
    "dataset.apply_transform_calls": ("dataset.apply_transform", "calls"),
    "dataset.apply_transform_rows": ("dataset.apply_transform", "rows"),
    "dataset.fit_transform_s": ("dataset.fit_transform", "time"),
    "dataset.split_s": ("dataset.split", "time"),
    "ensemble.grid_search_s": ("ensemble.grid_search", "time"),
    "ensemble.grid_points": ("ensemble.grid_search", "points"),
    "metrics.auc_s": ("metrics.auc", "time"),
    "metrics.auc_calls": ("metrics.auc", "calls"),
    "metrics.evaluate_s": ("metrics.evaluate", "time"),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    root: int  # index of the root span: spans of one request or run share it
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; each root span is one operation or one set-up."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> imported tabfusion module, plus "tabfusion"
        self.spans: list[Span] = []
        self.root_kind: dict[int, str] = {}  # root index -> "op" | "setup"
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.spans[parent].root if self._stack else index)
        self.spans.append(span)
        self._stack.append(index)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, kind: str):
        """One traced operation ("op") or one traced set-up ("setup")."""
        span = self._open(name)
        self.root_kind[span.root] = kind
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                try:
                    span.counts = count(result)
                except (AttributeError, TypeError):
                    pass  # result shape changed by a refactor; the count reads 0
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every module attribute bound to a traced function through a wrapper."""
        replaced = []
        try:
            for name, module_name, attr, count in TARGETS:
                original = getattr(self.modules[module_name], attr, None)
                if original is None:
                    continue  # a later refactor removed it; its metrics read 0
                wrapper = self._wrap(name, original, count)
                for module in self.modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            replaced.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(replaced):
                setattr(module, key, original)

    def to_json(self) -> list:
        return [
            [s.name, s.start, s.end, s.parent, s.root, self.root_kind[s.root], s.counts]
            for s in self.spans
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, each per traced operation or per traced set-up.

        A span inside an operation adds (its value / number of operations); a
        span inside a set-up adds (its value / number of set-ups). Self times
        (span duration minus its child spans) are taken over operations only,
        so ``cli.self_s`` plus the other layers' ``self_s`` equals ``trace.op_s``
        when every operation is a ``cli.main`` call.
        """
        n_roots = {"op": 0, "setup": 0}
        for kind in self.root_kind.values():
            n_roots[kind] += 1
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        totals = {kind: {} for kind in n_roots}  # kind -> (span name, what) -> sum
        self_time = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        op_time = 0.0
        for i, s in enumerate(self.spans):
            kind = self.root_kind[s.root]
            duration = s.end - s.start
            for what, value in (("time", duration), ("calls", 1), *s.counts.items()):
                totals[kind][s.name, what] = totals[kind].get((s.name, what), 0) + value
            if kind == "op":
                layer_key = s.name.split(".", 1)[0] + ".self_s"
                if layer_key in self_time:
                    self_time[layer_key] += duration - child_time[i]
                if s.parent < 0:
                    op_time += duration
        out = {
            metric: sum(totals[kind].get(key, 0) / n for kind, n in n_roots.items() if n)
            for metric, key in SPAN_METRICS.items()
        }
        out["gbdt.fit_other_s"] = out["gbdt.fit_s"] - out["gbdt.build_tree_s"]
        out["xdeepfm.fit_other_s"] = out["xdeepfm.fit_s"] - out["xdeepfm.backward_s"]
        out.update({key: value / n_roots["op"] for key, value in self_time.items()})
        out["trace.op_s"] = op_time / n_roots["op"]
        return out
