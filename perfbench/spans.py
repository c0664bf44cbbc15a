"""In-memory span tracing of a Python package, from outside the package.

`Tracer.install` wraps the public functions and methods of the given modules
(plus any extra methods named by the caller) and rebinds every module-level
reference to them, including values of module-level dicts, so calls made
from inside the package go through the wrappers too.  Each call is a span;
a span's self time is its duration minus the durations of its direct
children.  The run is single-threaded, so children never overlap and their
summed durations are exactly the part of the parent interval they cover.

Spans are aggregated per name as they close (calls, total and self time,
summed counts, distinct keys); per-call records are kept only for the span
names listed in `keep_calls`, which the slope fits need.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    sums: Counter = field(default_factory=Counter)
    keys: set = field(default_factory=set)
    per_call: list = field(default_factory=list)   # (duration_s, counts) per call


class Tracer:
    def __init__(self, probes=None, keep_calls=(), clock=time.perf_counter):
        self.probes = dict(probes or {})
        self.keep_calls = frozenset(keep_calls)
        self.clock = clock
        self.stats = defaultdict(SpanStats)
        self.errors = Counter()          # module -> exceptions that left one of its spans
        self._stack = []                 # open spans: [name, start, child_s]
        self._patches = []               # (owner, attribute, original) to undo

    # -- span bookkeeping ---------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self, error: bool = False) -> float:
        """Close the innermost span and return its duration."""
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        st = self.stats[name]
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if error:
            self.errors[name.split(".", 1)[0]] += 1
        return duration

    def count(self, name: str, duration: float, counts: dict) -> None:
        """Add one call's counts; a "key" entry is collected as a distinct key."""
        st = self.stats[name]
        for k, v in counts.items():
            if k == "key":
                st.keys.add(v)
            else:
                st.sums[k] += v
        if name in self.keep_calls:
            st.per_call.append((duration, counts))

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str):
        probe = self.probes.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(error=True)
                raise
            duration = self.end()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count(name, duration, probe(bound.arguments, out))
            elif name in self.keep_calls:
                self.count(name, duration, {})
            return out

        return traced

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, modules, extra_methods=()) -> None:
        """Wrap the public callables of `modules` (and `extra_methods`, given
        as (class, method name) pairs); rebind references in all `modules`."""
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth in [m for m in vars(obj) if not m.startswith("_")]:
                        self._wrap_method(obj, meth, f"{short}.{obj.__name__}.{meth}")
        for cls, meth in extra_methods:
            short = cls.__module__.rsplit(".", 1)[-1]
            self._wrap_method(cls, meth, f"{short}.{cls.__name__}.{meth}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            self._patches.append((obj, key, val))
                            obj[key] = wrapped[val]

    def _wrap_method(self, cls, meth, name) -> None:
        raw = cls.__dict__[meth]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name))
        elif inspect.isfunction(raw):
            new = self.wrap(raw, name)
        else:  # properties and plain class attributes are not calls
            return
        self._patch(cls, meth, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# scaling fits


def loglog_slope(sizes, times, n_sizes: int = 3) -> float:
    """Least-squares slope of log(time) against log(size).

    Calls are grouped by size (median time per size) and only the `n_sizes`
    largest sizes are fitted, so fixed per-call overhead at small sizes does
    not flatten the asymptotic exponent.  Returns 0.0 with fewer sizes.
    """
    by_size = defaultdict(list)
    for s, t in zip(sizes, times):
        if s > 0 and t > 0:
            by_size[s].append(t)
    top = sorted(by_size)[-n_sizes:]
    if len(top) < n_sizes:
        return 0.0
    pts = [(math.log(s), math.log(statistics.median(by_size[s]))) for s in top]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
