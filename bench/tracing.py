"""Span tracing for the benchmark's traced run, installed from outside ``kcir``.

Every wrapped layer call becomes a span: its name, start, end and the span
it ran under.  A circuit's read map and evaluator run tens of thousands of
times per command, so instead of a span per call they add a call count and
busy seconds to the span they run under (the "hot leaves").  A span's self
time is its duration minus its child spans and its leaves.

Functions are wrapped under the module attribute their caller looks them up
by, so nothing in the package changes.  A name the package no longer has is
skipped and listed in :attr:`Tracer.missing`; it records nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Optional

READ_MAP = "circuits.read_map"
EVALUATE = "circuits.evaluate"


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    leaves: dict[str, list] = field(default_factory=dict)  # name -> [calls, seconds]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _count_enumerate(args, kwargs, result) -> dict[str, float]:
    return {"count": len(result)}


def _count_prefix_relation(args, kwargs, result) -> dict[str, float]:
    return {"pairs": len(result)}


def _count_derive(args, kwargs, result) -> dict[str, float]:
    relation = args[1] if len(args) > 1 else kwargs["relation"]
    return {
        "source_pairs": len(relation),
        "image_pairs": len(result.pairs),
        "excluded_undefined": result.excluded_undefined,
    }


#: (module, attribute, span name, counter) for every layer boundary traced.
#: Stages are wrapped in ``kcir.classifier`` and commands in ``kcir.cli``,
#: because that is where their callers look them up.
SPAN_TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("kcir.cli", "main", "cli.main", None),
    ("kcir.cli", "classify", "classifier.classify", None),
    ("kcir.cli", "output_stream", "circuits.output_stream", None),
    ("kcir.cli", "causality_check", "circuits.causality_check", None),
    ("kcir.cli", "read_soundness_check", "circuits.read_soundness_check", None),
    ("kcir.circuits", "output_stream", "circuits.output_stream", None),
    ("kcir.classifier", "enumerate_causal_signals", "signals.enumerate", _count_enumerate),
    ("kcir.classifier", "build_prefix_relation", "signals.prefix_relation", _count_prefix_relation),
    ("kcir.classifier", "evaluate_reads", "classifier.evaluate_reads", None),
    ("kcir.classifier", "derive_relation", "classifier.derive", _count_derive),
    ("kcir.classifier", "check_partial_order", "classifier.axioms", None),
    ("kcir.classifier", "find_antisymmetry_witness", "classifier.witness", None),
    ("kcir.dsl", "parse", "dsl.parse", None),
    ("kcir.dsl", "elaborate", "dsl.elaborate", None),
)

#: The loader whose result gets its read map and evaluator wrapped as leaves.
LOADER_TARGET = ("kcir.cli", "load_circuit")


class Tracer:
    """Keeps spans in memory; :meth:`installed` patches and restores the package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._in_leaf = False

    def span(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span.counts.update(counter(args, kwargs, result))
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass  # the stage changed shape; its counts are simply absent
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self._in_leaf or not self._stack:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_leaf = False
                entry = self.spans[self._stack[-1]].leaves.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

        return wrapper

    def _wrap_loader(self, load: Callable) -> Callable:
        @functools.wraps(load)
        def wrapper(*args, **kwargs):
            element = load(*args, **kwargs)
            if not dataclasses.is_dataclass(element):
                return element
            changes = {}
            if getattr(element, "reads", None) is not None:
                changes["reads"] = self.leaf(READ_MAP, element.reads)
            if getattr(element, "evaluate", None) is not None:
                changes["evaluate"] = self.leaf(EVALUATE, element.evaluate)
            return dataclasses.replace(element, **changes) if changes else element

        return wrapper

    @contextmanager
    def installed(self, targets=SPAN_TARGETS) -> Iterator["Tracer"]:
        """Wrap every target that exists for the duration of the block."""
        saved = []
        plan = [(m, a, lambda fn, n=n, c=c: self.span(n, fn, c)) for m, a, n, c in targets]
        plan.append((*LOADER_TARGET, self._wrap_loader))
        try:
            for module_name, attr, make in plan:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, make(original))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- aggregation ---------------------------------------------------------

    def total_seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_seconds(self, name: str) -> float:
        """Busy time of spans called ``name`` minus their child spans and leaves."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.seconds
        total = 0.0
        for i, span in enumerate(self.spans):
            if span.name == name:
                leaves = sum(seconds for _, seconds in span.leaves.values())
                total += span.seconds - child[i] - leaves
        return total

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def leaf_totals(self, name: str) -> tuple[int, float]:
        calls, seconds = 0, 0.0
        for span in self.spans:
            entry = span.leaves.get(name)
            if entry is not None:
                calls += entry[0]
                seconds += entry[1]
        return calls, seconds
