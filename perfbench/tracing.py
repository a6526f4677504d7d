"""Spans and counters recorded around the calls into each spacestates layer.

The tracer never edits the package: it replaces a function or method with a
timing wrapper in every spacestates module (or on the class) that holds it,
so calls made inside ``cli.run`` and ``asymmetry_experiment`` are timed as the
program's own modules reference them. ``restore`` puts every original back.

A span is ``[name, parent, start, end]``; its id is its index in
``Tracer.spans``, so parents always precede their children. Spans stay in
memory until ``write`` is called at the end of the operation.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the part of its interval that its direct
    children cover (children clipped to the parent, overlaps merged)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_name, _parent, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def self_by_name(spans: list) -> dict[str, float]:
    """Summed self time per span name."""
    out: dict[str, float] = {}
    for (name, *_rest), value in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0.0) + value
    return out


def inclusive_times(spans: list) -> dict[str, float]:
    """Per name, the summed duration of its outermost spans: a span nested
    (at any depth) in a span of the same name is not counted twice."""
    totals: dict[str, float] = {}
    for name, parent, start, end in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


class Tracer:
    """Records spans and counters for one operation (one ``run_id``)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.missing: list[str] = []
        self.captured: dict = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            record = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(record)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            counts[name] += 1
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def high(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    # -- installing --------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` in every loaded spacestates module that
        references the same function object."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = self._wrap(original, name, after)
        for mod in [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "spacestates"]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        """Wrap a plain method or classmethod defined on ``cls``."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name, after))
        else:
            replacement = self._wrap(raw, name, after)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, parent, start, end, run id."""
        with open(path, "w") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, parent, start, end, self.run_id]) + "\n")
