"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped call records one span ``(name, start, end, parent, run_id)``.
Wrappers are installed on every ``reach_al`` module attribute that is bound to
the original function, so a name imported elsewhere (``active`` binds
``fit_arrays`` by import, ``dataset`` and ``features`` both bind
``robust_depth``) is traced where callers look it up.  Optional hooks add
counts measured at the same boundary (rows fitted, rows scored, ...).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("dataset", "perception", "features", "kinematics", "forest", "active", "metrics", "report")


class Tracer:
    def __init__(self, hooks=None):
        self.spans = []  # (name, start, end, parent index or -1, run_id)
        self.counts = defaultdict(float)
        self.run_id = None
        self._hooks = hooks or {}
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        tracer = self
        hook = self._hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.run_id)
            if hook is not None:
                hook(tracer.counts, sig.bind(*args, **kwargs).arguments, out, t1 - t0)
            return out

        return wrapper

    def install(self):
        """Wrap every public function defined in the traced layers."""
        pkg_modules = [m for n, m in sys.modules.items() if n == "reach_al" or n.startswith("reach_al.")]
        for layer in LAYERS:
            module = sys.modules[f"reach_al.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in pkg_modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, name, fn))
                            setattr(m, name, wrapper)

    def uninstall(self):
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def table(self):
        """Per function: calls, total (inclusive) seconds and self seconds.

        Self time is a span's duration minus that of its direct children;
        the benchmark is single-threaded while traced, so children never
        overlap.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return out

    def has_ancestor(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
