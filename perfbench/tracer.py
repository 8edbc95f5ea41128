"""In-memory span tracer that wraps the qthermo layers from outside.

Every public function and every public class's ``__init__`` and methods
defined in a layer module is replaced by a wrapper that records a span
``(id, parent, name, start, end, thread, raised)``.  ``from .linalg import
expm`` copies bindings into other modules, so a wrapper replaces every
``qthermo.*`` module attribute that *is* the target, not only the defining
module's.  Parents are tracked per thread; tasks that
``experiments.parallel_map`` hands to pool threads get the map's span as
their parent, so spans nest across threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = (
    "linalg", "models", "master_equation", "dynamics", "closed_forms",
    "fisher", "experiments", "config", "cli",
)
MAP_TASK = "experiments.parallel_map.task"


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` patch and
    restore the qthermo module attributes."""

    def __init__(self):
        self.spans: list[tuple] = []
        # (map span id, effective workers) for each parallel_map call
        self.maps: list[tuple[int, int]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1]
        stack.append(sid)
        raised = True
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            raised = False
            return out
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), raised))

    def _wrap(self, name, fn):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    def _wrap_parallel_map(self, name, fn, worker_count):
        """Like ``_wrap``, and also traces each task under the map's span and
        records the number of threads the map runs on (as the pool sizes it)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(task, items, workers=None):
            items = list(items)
            n = worker_count() if workers is None else workers
            effective = 1 if n <= 1 or len(items) <= 1 else min(n, len(items))

            def body():
                map_id = tracer._stack()[-1]
                tracer.maps.append((map_id, effective))
                return fn(lambda x: tracer._call(MAP_TASK, task, (x,), {}, parent=map_id),
                          items, workers)

            return tracer._call(name, body, (), {})

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def _targets(self):
        """(owner, attribute, name, function) for every wrapped callable."""
        for layer in LAYERS:
            mod = importlib.import_module(f"qthermo.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield None, attr, f"{layer}.{attr}", obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in sorted(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            label = f"{layer}.{attr}" if meth == "__init__" else f"{layer}.{attr}.{meth}"
                            yield obj, meth, label, fn

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "qthermo" or k.startswith("qthermo."))]
        experiments = importlib.import_module("qthermo.experiments")
        functions = {}
        for owner, attr, name, fn in self._targets():
            if owner is not None:
                self._patch(owner, attr, self._wrap(name, fn))
            elif fn is experiments.parallel_map:
                functions[fn] = self._wrap_parallel_map(name, fn, experiments.worker_count)
            else:
                functions[fn] = self._wrap(name, fn)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = functions.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.maps = []


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children on the span's own thread nest strictly; children on pool
    threads may overlap each other, so covered time is the union of the
    child intervals clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, t0, t1, _, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def summarize(spans, maps) -> dict:
    """Per-function and per-layer calls/self time, plus derived counters."""
    selfs = self_times(spans)
    names = {s[0]: s[2] for s in spans}
    funcs: dict[str, dict] = {}
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    child_counts: dict[tuple[str, str], int] = {}
    dynamical = set()
    root_s = 0.0
    for sid, parent, name, t0, t1, _, raised in spans:
        f = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": 0})
        f["calls"] += 1
        f["self_s"] += selfs[sid]
        f["raised"] += raised
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += 1
        layer["self_s"] += selfs[sid]
        if parent == 0:
            root_s += t1 - t0
            continue
        pair = (names.get(parent, ""), name)
        child_counts[pair] = child_counts.get(pair, 0) + 1
        # only the doubling-horizon route of steady_state propagates
        if pair == ("dynamics.steady_state", "dynamics.propagate"):
            dynamical.add(parent)
    busy = sum(t1 - t0 for _, _, name, t0, t1, _, _ in spans if name == MAP_TASK)
    bounds = {s[0]: (s[3], s[4]) for s in spans if s[2] == "experiments.parallel_map"}
    capacity = sum(n * (bounds[m][1] - bounds[m][0]) for m, n in maps if m in bounds)
    return {
        "functions": funcs,
        "layers": layers,
        "child_counts": child_counts,
        "root_s": root_s,
        "steady_state_dynamical": len(dynamical),
        # 0 when the pass never called parallel_map
        "parallel_map_utilization": busy / capacity if capacity > 0 else 0.0,
        "spans": len(spans),
    }
