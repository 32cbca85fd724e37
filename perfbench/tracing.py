"""Spans recorded around the public functions at each ``fdht.*`` module
boundary, from outside the package.

A :class:`Tracer` replaces each target function with a wrapper under
every name a module bound it to (``fdht.lstm.run_plan``,
``fdht.train.bptt``, the package re-exports, ...), so callers that
imported the function by name are traced too. Modules are resolved
through ``importlib``: ``fdht.train`` as an attribute of the package is
the re-exported *function* ``train``, not the module.

Spans are kept in memory as name, parent span index (-1 for a root),
start and end, and written out only at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (defining module, function name, span name). The span name is the
# layer (module without the package prefix) and the function.
FUNCTIONS = (
    ("fdht.config", "load_config", "config.load_config"),
    ("fdht.io", "load_checkpoint", "io.load_checkpoint"),
    ("fdht.io", "save_checkpoint", "io.save_checkpoint"),
    ("fdht.ht", "run_plan", "ht.run_plan"),
    ("fdht.grad", "backward_from_tape", "grad.backward_from_tape"),
    ("fdht.tensor", "contract_vjp", "tensor.contract_vjp"),
    ("fdht.lstm", "forward_sequence", "lstm.forward_sequence"),
    ("fdht.lstm", "bptt", "lstm.bptt"),
    ("fdht.train", "adam_step", "train.adam_step"),
    ("fdht.train", "evaluate", "train.evaluate"),
)
# (module, class, method, span name). ``FdhtLstmCell.step`` delegates to
# ``step_cached``, so one span covers the forward step on every path.
METHODS = (
    ("fdht.lstm", "FdhtLstmCell", "step_cached", "lstm.step"),
    ("fdht.lstm", "FdhtLstmCell", "step_backward", "lstm.step_backward"),
)


class Tracer:
    """In-memory span recorder; :meth:`installed` patches the targets for
    the duration of a ``with`` block and always restores them.

    Spans live in flat typed arrays rather than one Python object per
    span, so a long trace adds no work to the garbage collector and does
    not slow the untraced units that follow it.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._wrappers = {}

    def _open(self, name) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(sid)
        return sid

    def _wrap(self, name, fn):
        start = self._start
        end = self._end
        stack = self._stack
        open_span = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_span(name)
            start[sid] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        return traced

    def _wrapper(self, name, fn):
        if name not in self._wrappers:
            self._wrappers[name] = self._wrap(name, fn)
        return self._wrappers[name]

    @contextmanager
    def installed(self):
        patched = []
        try:
            for mod_name, attr, name in FUNCTIONS:
                original = getattr(importlib.import_module(mod_name), attr)
                wrapper = self._wrapper(name, original)
                for mod in _fdht_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
            for mod_name, cls_name, attr, name in METHODS:
                cls = getattr(importlib.import_module(mod_name), cls_name)
                original = cls.__dict__[attr]
                patched.append((cls, attr, original))
                setattr(cls, attr, self._wrapper(name, original))
            yield self
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one unit of work."""
        sid = self._open(name)
        self._start[sid] = perf_counter()
        try:
            yield
        finally:
            self._end[sid] = perf_counter()
            self._stack.pop()

    @property
    def active(self) -> bool:
        """Whether a span is open."""
        return bool(self._stack)

    @property
    def spans(self) -> list[tuple]:
        """``(name, parent, start, end)`` per span, in start order."""
        return list(zip((self.names[i] for i in self._name), self._parent,
                        self._start, self._end))

    def analyze(self) -> "SpanStats":
        return SpanStats(self.spans)

    def write(self, path):
        """Spans as JSON rows ``[id, parent, name, start_us, end_us]``,
        times relative to the first span."""
        t0 = self._start[0] if self._start else 0.0
        rows = [[i, p, n, round((a - t0) * 1e6, 3), round((b - t0) * 1e6, 3)]
                for i, (n, p, a, b) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "name", "start_us", "end_us"],
                       "spans": rows}, fh)


def _fdht_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "fdht" or k.startswith("fdht."))]


class SpanStats:
    """Durations, self times and per-root call counts of recorded spans.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of a tree add up to its root's duration.
    """

    def __init__(self, spans):
        n = len(spans)
        self.spans = spans
        self.duration = [b - a for _, _, a, b in spans]
        child_time = [0.0] * n
        self.root = [0] * n
        for i, (_, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += self.duration[i]
                self.root[i] = self.root[parent]
            else:
                self.root[i] = i
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def durations(self, name):
        return [d for (n, *_), d in zip(self.spans, self.duration) if n == name]

    def self_times(self, name):
        return [d for (n, *_), d in zip(self.spans, self.self_time) if n == name]

    def roots(self, name):
        return [i for i, (n, p, _, _) in enumerate(self.spans) if n == name and p < 0]

    def calls_per_root(self, root_name) -> dict[str, list[int]]:
        """For each span name, its call count inside every root span
        called ``root_name`` (one list entry per root, in order)."""
        roots = self.roots(root_name)
        index = {r: k for k, r in enumerate(roots)}
        counts = defaultdict(lambda: [0] * len(roots))
        for i, (name, _, _, _) in enumerate(self.spans):
            k = index.get(self.root[i])
            if k is not None and i != roots[k]:
                counts[name][k] += 1
        return dict(counts)

    def time_per_root(self, root_name, name) -> list[float]:
        """Total duration of ``name`` spans inside each ``root_name`` root."""
        roots = self.roots(root_name)
        index = {r: k for k, r in enumerate(roots)}
        out = [0.0] * len(roots)
        for i, (n, _, _, _) in enumerate(self.spans):
            k = index.get(self.root[i])
            if n == name and k is not None:
                out[k] += self.duration[i]
        return out

    def self_time_by_name(self, root_name) -> dict[str, float]:
        """Self time summed per span name over the trees under the
        ``root_name`` roots."""
        keep = set(self.roots(root_name))
        out = defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            if self.root[i] in keep:
                out[name] += self.self_time[i]
        return dict(out)

    def nesting_violations(self) -> int:
        """Spans that do not lie inside their parent's interval."""
        bad = 0
        for name, parent, a, b in self.spans:
            if parent >= 0:
                _, _, pa, pb = self.spans[parent]
                bad += not (pa <= a <= b <= pb)
        return bad
