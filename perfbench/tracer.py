"""Spans around the library's public functions, and a Fraction-op counter.

``Tracer`` replaces every public function of the traced ``wdpoly``
modules, in every module namespace that holds it, by a wrapper that
records a span (name, job, start, end, parent) in CPU seconds of the
process, like the end-to-end times.  A span's self time is
its duration minus the durations of its child spans, so time in private
helpers and in untraced code is charged to the nearest public caller.
``FractionOps`` counts calls of ``Fraction`` addition, subtraction,
negation and comparison through a profile hook.  Both only observe: the
library's code is not changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

PACKAGE = "wdpoly"
# The semiring helpers (tval, tadd, ...) are not wrapped: they are called
# per entry, so a wrapper would cost more than they do.  Fraction-op
# counts measure that layer instead.
TRACED_MODULES = ("matrix", "digraph", "envelope", "covector", "formats", "dot", "svg", "cli")


class Tracer:
    """Records spans of public library calls while installed."""

    def __init__(self):
        self.spans = []  # [name, job, start, end, parent]
        self.stack = []  # [span id, time covered by children]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.job = None
        self.observers = {}
        self._patched = []

    def install(self):
        namespaces = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.process_time
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                spans[sid] = (name, tracer.job, start, end, parent)
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(args, result)
            return result

        return wrapper

    def under(self, ancestor):
        """Per span, whether some enclosing span is named ``ancestor``."""
        inside = []
        for name, _, _, _, parent in self.spans:
            inside.append(
                parent is not None and (self.spans[parent][0] == ancestor or inside[parent])
            )
        return inside


class FractionOps:
    """Counts Fraction add/sub/neg/compare calls while entered."""

    NAMES = ("_add", "_sub", "__neg__", "_richcmp", "__eq__")

    def __init__(self):
        self.count = 0
        self._codes = frozenset(
            getattr(Fraction, name).__code__ for name in self.NAMES if hasattr(Fraction, name)
        )

    def __enter__(self):
        codes = self._codes
        box = [0]

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                box[0] += 1

        self._box = box
        sys.setprofile(hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        self.count += self._box[0]
        return False
