"""In-memory span tracer that wraps the public functions of plapeig's layers.

``Tracer.install`` wraps every public function defined in a layer module
and rebinds the wrapper under every name, in every ``plapeig.*``
namespace, that holds the original object.  Modules that import a
function by name (``eigensolver`` takes ``integrate_phase``, ``theorems``
takes ``find_eigenvalue``, ``sign_of_lambda1`` and
``integrate_sensitivity``) therefore call the wrapper too, and a call
that moves from one layer function to another is still counted.  Only
the traced run installs the tracer; the untraced run patches nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("ptrig", "potentials", "prufer", "eigensolver", "theorems", "cli")

# Called once per right-hand-side evaluation, about a million times per
# spectrum: a span there would cost more than the call itself.  Their
# cost per call is timed by the layer probe instead.
PER_RHS_KERNELS = frozenset({"fast_pair", "fast_abs_sp_pow"})


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "root", "info")

    def __init__(self, name, layer, start, parent, root):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solver_rel_tol(fn, args, kwargs):
    """rel_tol of the first argument that carries a ``tolerance`` config."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    for value in bound.arguments.values():
        rel_tol = getattr(getattr(value, "tolerance", None), "rel_tol", None)
        if rel_tol is not None:
            return rel_tol
    return None


class Tracer:
    """Spans (name, layer, start, end, parent) kept in memory.

    ``info`` holds the integrator counts (``n_rhs``, ``n_steps``,
    ``n_rejected``, ``rel_tol``) read from a returned trajectory's
    ``stats``, and ``configured_rel_tol`` for eigensolver calls.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = i if parent is None else self.spans[parent].root
        self.spans.append(Span(name, layer, time.perf_counter(), parent, root))
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self._stack.pop()
        self.spans[i].end = time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str = "bench", **info):
        i = self._open(name, layer)
        self.spans[i].info = info or None
        try:
            yield self.spans[i]
        finally:
            self._close(i)

    def wrap(self, fn, layer: str):
        name = fn.__name__
        wants_cfg = layer == "eigensolver"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            info = {}
            stats = getattr(result, "stats", None)
            if isinstance(stats, dict):
                info.update((k, stats.get(k)) for k in
                            ("n_rhs", "n_steps", "n_rejected", "rel_tol"))
            if wants_cfg:
                info["configured_rel_tol"] = _solver_rel_tol(fn, args, kwargs)
            self.spans[i].info = info or None
            return result

        return traced

    def install(self, package: str = "plapeig") -> int:
        """Wrap the layer modules' public functions; returns how many."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == package or n.startswith(package + ".")]
        wrapped = 0
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or name in PER_RHS_KERNELS
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(obj, layer)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, attr, wrapper)
                        elif isinstance(value, dict):
                            # dispatch tables such as cli._THEOREMS
                            for key, entry in list(value.items()):
                                if entry is obj:
                                    value[key] = wrapper
                wrapped += 1
        return wrapped

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out = {layer: 0.0 for layer in LAYERS}
        for s, c in zip(self.spans, child):
            if s.layer in out:
                out[s.layer] += s.duration - c
        return out

    def ancestor(self, i: int, name: str) -> Span | None:
        """Nearest enclosing span called ``name``, if any."""
        j = self.spans[i].parent
        while j is not None:
            if self.spans[j].name == name:
                return self.spans[j]
            j = self.spans[j].parent
        return None

    def dump(self) -> list[list]:
        """Spans as rows [name, layer, start, end, parent, info]."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.layer, s.start - t0, s.end - t0, s.parent, s.info]
                for s in self.spans]
