"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces each hooked function at the module attribute
where its callers look it up (``pullup.engine.pass_rule_3``,
``pullup.rules.common_props``, ...) with a wrapper that records a span or
counts a call, and ``Tracer.uninstall`` puts the originals back. A hook
whose module or attribute no longer exists is reported in
``Tracer.missing``, and one whose extra counting no longer fits the call in
``Tracer.broken``; either way the run goes on without those numbers.

A span is ``(id, parent, op, phase, name, start, end, self)``: ``parent`` is
the span that was open when it started, ``op`` the operation (one model
transformed or rechecked) it belongs to, and ``self`` its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_classes(tracer, args, kwargs):
    tracer.count("analysis.common_props.classes", len(_arg(args, kwargs, 1, "classes")))
    return args, kwargs


def _count_candidates(tracer, result):
    tracer.count("analysis.common_props.candidates", len(result))


def _count_fired(tracer, result):
    if result is not None:
        tracer.count("rules.apply_shared_superclass_rule.fired")


def _decls_after_core(tracer, args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    tracer.count("engine.decls_after_core", model.declared_property_count)
    return args, kwargs


def _input_bytes(tracer, args, kwargs):
    tracer.count("modelfile.input_bytes", len(_arg(args, kwargs, 0, "data")))
    return args, kwargs


# (module, attribute path, metric name, kind, before-hook, after-hook).
# ``span`` hooks record a span and count calls; ``count`` hooks only count
# calls, for primitives called too often to afford a span each.
HOOKS = (
    ("pullup.engine", "restructure", "engine.restructure", "span", None, None),
    ("pullup.engine", "pass_rules_1_2", "engine.pass_rules_1_2", "span", None, None),
    ("pullup.engine", "pass_rule_3", "engine.pass_rule_3", "span", None, None),
    ("pullup.engine", "apply_shared_superclass_rule",
     "rules.apply_shared_superclass_rule", "span", None, _count_fired),
    ("pullup.engine", "exploit_multiple_inheritance",
     "rules.exploit_multiple_inheritance", "span", _decls_after_core, None),
    ("pullup.engine", "snapshot", "metrics.snapshot", "span", None, None),
    ("pullup.rules", "common_props", "analysis.common_props", "span",
     _count_classes, _count_candidates),
    ("pullup.modelfile", "load_model", "modelfile.load_model", "span",
     _input_bytes, None),
    ("pullup.modelfile", "save_model", "modelfile.save_model", "span", None, None),
    ("pullup.generate", "generate_model", "generate.generate_model", "span",
     None, None),
    ("pullup.model", "ClassModel.add_property", "model.add_property", "count",
     None, None),
    ("pullup.model", "ClassModel.delete_property", "model.delete_property",
     "count", None, None),
    ("pullup.model", "ClassModel.add_generalization", "model.add_generalization",
     "count", None, None),
    ("pullup.model", "ClassModel.create_entity", "model.create_entity", "count",
     None, None),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    def __init__(self) -> None:
        self.missing: list[str] = []
        self.hooked: list[str] = []
        self.broken: set[str] = set()
        self.spans: list[tuple] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self.op = 0
        self.phase = "transform"
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- hooks ------------------------------------------------------------

    def install(self) -> None:
        self.missing, self.hooked = [], []
        for module, path, name, kind, before, after in HOOKS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            self.hooked.append(name)
            wrap = self._span if kind == "span" else self._counter
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrap(fn, name, before, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    def _counter(self, fn, name, before, after):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.phase, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, name, before, after):
        key = name + ".calls"
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.phase, key)] += 1
            if before is not None:
                try:
                    args, kwargs = before(self, args, kwargs)
                except (LookupError, AttributeError, TypeError):
                    self.broken.add(name)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append((span_id, parent, self.op, self.phase, name,
                              frame[1], end, duration - frame[2]))
            if after is not None:
                try:
                    after(self, result)
                except (AttributeError, TypeError):
                    self.broken.add(name)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over and reset the spans and counts recorded so far."""
        spans, counts = self.spans[:], self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans, counts) -> dict[tuple[str, str], float]:
    """Per (phase, metric): summed ``.s`` and ``.self_s`` of spans, plus counts."""
    out: dict[tuple[str, str], float] = dict(counts)
    for _, _, _, phase, name, start, end, self_time in spans:
        for key, value in (((phase, name + ".s"), end - start),
                           ((phase, name + ".self_s"), self_time)):
            out[key] = out.get(key, 0.0) + value
    return out
