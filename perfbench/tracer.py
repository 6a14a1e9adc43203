"""In-memory span tracer that wraps slprime's functions from the outside.

A hook replaces one function object at every ``slprime.*`` module
attribute (or class attribute) bound to it, so calls made through a
re-export such as ``inverse.compute_spectrum`` or ``spectrum._theta_scan``
are caught too.  Each call records (name, parent, start, end) in flat
arrays; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("shoot", "spectrum", "coeff", "inverse", "primes", "nonlinear", "analysis", "cli")

# (span name, module, attribute path): the kernel bindings and entry points
# the per-layer metrics are built on.  Anything absent is reported missing.
REQUIRED_HOOKS = (
    ("shoot.scan", "slprime.shoot", "_theta_scan"),
    ("shoot.propagate", "slprime.shoot", "_propagate_scaled"),
    ("shoot.scan", "slprime.spectrum", "_theta_scan"),
    ("shoot.propagate", "slprime.analysis", "_propagate_scaled"),
    ("spectrum.eigenvalue", "slprime.spectrum", "eigenvalue"),
    ("spectrum.compute_spectrum", "slprime.spectrum", "compute_spectrum"),
    ("coeff.content_hash", "slprime.coeff", "SLProblem.content_hash"),
    ("inverse.objective", "slprime.inverse", "objective"),
    ("inverse.search", "slprime.inverse", "search"),
    ("primes.sieve", "slprime.primes", "sieve"),
    ("primes.nth_prime", "slprime.primes", "nth_prime"),
    ("nonlinear.invert_map", "slprime.nonlinear", "invert_map"),
    ("analysis.incompatibility_report", "slprime.analysis", "incompatibility_report"),
    ("analysis.order_estimate", "slprime.analysis", "order_estimate"),
    ("analysis.growth_check", "slprime.analysis", "growth_check"),
    ("analysis.partial_sum_primes", "slprime.analysis", "partial_sum_primes"),
    ("analysis.partial_sum_spectrum", "slprime.analysis", "partial_sum_spectrum"),
    ("cli.run", "slprime.cli", "run"),
)


def _resolve(module: str, path: str):
    obj = sys.modules.get(module)
    owner = None
    for part in path.split("."):
        if obj is None:
            return None, None
        owner, obj = obj, getattr(obj, part, None)
    return owner, obj


def public_hooks():
    """(span name, module, attribute path) for every public function and method of each layer."""
    hooks = []
    for layer in LAYERS:
        mod = sys.modules.get(f"slprime.{layer}")
        if mod is None:
            continue
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                hooks.append((f"{layer}.{name}", mod.__name__, name))
            elif inspect.isclass(obj):
                for attr, val in vars(obj).items():
                    if not inspect.isfunction(val):
                        continue
                    if attr == "__post_init__":
                        hooks.append((f"{layer}.{name}.validate", mod.__name__, f"{name}.{attr}"))
                    elif not attr.startswith("_"):
                        hooks.append((f"{layer}.{attr}", mod.__name__, f"{name}.{attr}"))
    return hooks


class Tracer:
    """Span recorder; install() patches slprime, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.work: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """fn recording one span per call; on_return(tracer, args, result) adds work counts."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self, hooks, on_return=None):
        """Patch every binding of each hooked object; absent hooks go to self.missing."""
        on_return = on_return or {}
        modules = [m for n, m in list(sys.modules.items()) if n == "slprime" or n.startswith("slprime.")]
        done = {}
        for name, module, path in hooks:
            owner, orig = _resolve(module, path)
            if orig is None or not callable(orig):
                self.missing.append(f"{module}.{path}")
                continue
            orig = getattr(orig, "__perfbench_original__", orig)
            if id(orig) in done:
                continue
            wrapper = self.wrap(name, orig, on_return.get(name))
            done[id(orig)] = wrapper
            if inspect.isclass(owner):
                self._patch(owner, path.rsplit(".", 1)[1], wrapper)
            else:
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ------------------------------------------------------------ analysis

    def arrays(self):
        """(name ids, parent indices, durations in seconds), one entry per span."""
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            (end - start) * 1e-9,
        )

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        nid, par, dur = self.arrays()
        n = len(self.names)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=nid.size)
        self_s = dur - child
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=self_s, minlength=n)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have an `ancestor` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, par, _ = self.arrays()
        is_anc = nid == self._ids[ancestor]
        under = np.zeros(nid.size, dtype=bool)
        cur = par.copy()
        live = cur >= 0
        while live.any():
            under[live] |= is_anc[cur[live]]
            cur[live] = par[cur[live]]
            live = cur >= 0
        return int(np.count_nonzero(under & (nid == self._ids[name])))

    def top_level_seconds(self) -> float:
        _, par, dur = self.arrays()
        return float(dur[par < 0].sum())
