"""Spans recorded from outside the package, around calls into each layer.

A wrapper records one span per call: its name, start, end, the span open
around it (its parent) and the item being processed. Spans stay in
memory, in flat arrays, until the run ends. Every span name is
registered up front, so a layer that never runs reports zero calls
instead of disappearing from the output.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# Functions the pipeline looks up in its own module globals, by the span
# name recorded for them. Patching those globals is how a wrapper sits
# where the pipeline binds the function.
PIPELINE_BINDINGS = {
    "pipeline.reference_predictor": "reference_predictor",
    "infix.parse": "parse_infix",
    "infix.to_postfix": "to_postfix",
    "tokenizer.encode": "encode",
    "conversion.convert": "convert",
    "evaluator.evaluate": "evaluate_with_trace",
    "pipeline.make_segment": "make_segment",
    "render.render": "render",
}
# Spans around calls the benchmark itself makes.
CALLER_SPANS = (
    "pipeline.run",
    "pipeline.responder",
    "gates.label",
    "gates.train",
    "gates.policy_build",
    "gates.agreement",
)
SPAN_NAMES = tuple(PIPELINE_BINDINGS) + CALLER_SPANS
# Work done by one call, read off its result.
SIZES = {
    "tokenizer.encode": len,
    "conversion.convert": lambda program: program.length,
    "evaluator.evaluate": lambda trace: len(trace.steps),
    "gates.label": len,
    "gates.train": lambda out: len(out[1].events),
    "gates.agreement": lambda rows: sum(row.ok for row in rows),
}


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.size = array("q")
        self.item_kinds: list[str] = []
        self._open: list[int] = []

    def begin_item(self, kind: str) -> None:
        """Later spans belong to a new item of this kind."""
        self.item_kinds.append(kind)

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.item.append(len(self.item_kinds) - 1)
            self.start.append(0)
            self.end.append(0)
            self.size.append(0)
            self._open.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._open.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if size is not None:
                self.size[idx] = size(result)
            return result

        return traced

    def self_times(self) -> array:
        """Each span's duration minus the time its direct children cover."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def root_ns(self) -> int:
        """Time covered by spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def summary(self) -> dict[tuple[str, str], list[int]]:
        """[calls, total ns, self ns, size] per (span name, item kind), kind
        "*" summing over all kinds."""
        own = self.self_times()
        out: dict[tuple[str, str], list[int]] = {}
        for name in self.names:
            out[(name, "*")] = [0, 0, 0, 0]
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            kind = self.item_kinds[self.item[i]] if self.item[i] >= 0 else ""
            dur = self.end[i] - self.start[i]
            for key in ((name, "*"), (name, kind)):
                row = out.setdefault(key, [0, 0, 0, 0])
                row[0] += 1
                row[1] += dur
                row[2] += own[i]
                row[3] += self.size[i]
        return out

    def write_tsv(self, path) -> None:
        """Every span, one per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\tkind\tsize\n")
            for i, nid in enumerate(self.name_id):
                kind = self.item_kinds[self.item[i]] if self.item[i] >= 0 else ""
                fh.write(f"{i}\t{self.names[nid]}\t{self.start[i]}\t{self.end[i]}\t"
                         f"{self.parent[i]}\t{self.item[i]}\t{kind}\t{self.size[i]}\n")


@contextmanager
def bound_in_pipeline(tracer: Tracer):
    """Replace the pipeline's bindings with traced wrappers, restoring them on exit."""
    from gatecalc import pipeline

    saved = {attr: getattr(pipeline, attr) for attr in PIPELINE_BINDINGS.values()}
    try:
        for name, attr in PIPELINE_BINDINGS.items():
            setattr(pipeline, attr, tracer.wrap(name, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(pipeline, attr, fn)
