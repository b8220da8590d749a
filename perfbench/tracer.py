"""Outside-in tracing of twinwell's layers for the traced benchmark run.

`Tracer.install()` wraps, from outside the package, every public
function of the layer modules (LAYERS) plus the few methods and private
helpers named in METHODS and PRIVATE.  A function is replaced in every
twinwell module namespace that binds it, so a caller that imported it by
name (`twinwell.sweeps.run_ensemble`, `twinwell.sweeps.evaluate_criteria`)
calls the wrapper too.  Each wrapped call records a span (name, parent,
start, end) in memory; `aggregate()` turns the spans of a window into
per-layer call counts, inclusive (`busy`) and exclusive (`self`) time,
where a span's self time is its duration minus that of its wrapped
children.

Counters that repeat exactly are taken at the same boundaries:

* `wigner.traj_steps`: trajectories advanced by each `wigner.step` call;
* `wigner.rng.*`: normals drawn from the per-chunk generators, split into
  initial sampling (inside `wigner.sample_initial`) and noise;
* `kerr.lookups` / `kerr.hits`: `KerrMomentSource` lookups and cache hits
  (counted without a span, to keep the overhead of this hot call small).

Code that a later version moves or renames is not wrapped; its metrics
are then missing, and run.py refuses to report rather than read them as 0.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("config", "kerr", "operators", "spins", "criteria", "wigner", "sweeps")
PRIVATE = {("wigner", "_noise_term"): "wigner.noise_term"}
METHODS = (
    ("operators", "NormalPoly", "__mul__", "operators.mul"),
    ("operators", "NormalPoly", "expectation", "operators.expectation"),
    ("wigner", "WignerMomentSource", "__init__", "wigner.moment_source"),
    ("wigner", "WignerMomentSource", "__call__", "wigner.moment_source"),
)


class _CountingGenerator:
    """numpy Generator proxy that counts standard normals drawn."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        t = self._tracer
        initial = t.current >= 0 and t.names[t.span_name[t.current]] == "wigner.sample_initial"
        t.counts["wigner.rng.initial_normals" if initial else "wigner.rng.noise_normals"] += out.size
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.current = -1
        self.counts = collections.Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span_wrapper(self, fn, name: str, hook=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(tracer.current)
            ends.append(0.0)
            tracer.current = sid
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                tracer.current = parents[sid]

        return wrapper

    def _count_steps(self, args, kwargs):
        state = args[0] if args else kwargs["state"]
        self.counts["wigner.traj_steps"] += len(state)

    def _kerr_lookup_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(source, key):
            counts["kerr.lookups"] += 1
            if key in getattr(source, "_cache", ()):
                counts["kerr.hits"] += 1
            return fn(source, key)

        return wrapper

    def _rng_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _CountingGenerator(fn(*args, **kwargs), self)

        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers of the imported twinwell package."""
        mods = {}
        for short in LAYERS:
            try:
                mods[short] = importlib.import_module(f"twinwell.{short}")
            except ImportError:
                continue
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if (short, attr) in PRIVATE:
                    name = PRIVATE[(short, attr)]
                elif attr.startswith("_"):
                    continue
                else:
                    name = f"{short}.{attr}"
                hook = self._count_steps if name == "wigner.step" else None
                wrappers[obj] = self._span_wrapper(obj, name, hook)
        rng = getattr(mods.get("wigner"), "_chunk_rng", None)
        if inspect.isfunction(rng):
            wrappers[rng] = self._rng_wrapper(rng)
        package = [m for n, m in sys.modules.items() if n == "twinwell" or n.startswith("twinwell.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods.get(short), cls_name, None)
            if cls is not None and inspect.isfunction(cls.__dict__.get(meth)):
                self._set(cls, meth, self._span_wrapper(cls.__dict__[meth], name))
        kerr_source = getattr(mods.get("kerr"), "KerrMomentSource", None)
        if kerr_source is not None and inspect.isfunction(kerr_source.__dict__.get("__call__")):
            self._set(kerr_source, "__call__", self._kerr_lookup_wrapper(kerr_source.__call__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def mark(self) -> int:
        return len(self.span_name)

    def reset(self) -> None:
        """Drop recorded spans and counts (call between sweeps, at top level)."""
        for lst in (self.span_name, self.span_parent, self.span_start, self.span_end):
            lst.clear()
        self.current = -1
        self.counts.clear()

    def aggregate(self, first: int, last: int) -> tuple[dict, float]:
        """Per-layer {"calls", "busy", "self"} over spans [first, last), and
        the summed self time of those spans."""
        dur = [self.span_end[s] - self.span_start[s] for s in range(first, last)]
        child = [0.0] * (last - first)
        for s in range(first, last):
            p = self.span_parent[s]
            if p >= first:
                child[p - first] += dur[s - first]
        out = {}
        for s in range(first, last):
            agg = out.setdefault(self.names[self.span_name[s]], {"calls": 0, "busy": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["busy"] += dur[s - first]
            agg["self"] += dur[s - first] - child[s - first]
        return out, sum(a["self"] for a in out.values())
