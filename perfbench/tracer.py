"""In-memory spans around the calls into each ``chord_euler`` layer.

The tracer is installed only for the traced run.  It replaces functions and
methods of the loaded package with wrappers:

* **spans** (name, start, end, parent, item) around module-level public
  functions and the engine's ``EulerEngine.chi``.  The package imports
  functions by name (``from .partition import chi_removed_direct``), so a
  function's wrapper is installed in every module namespace that holds it,
  ``chord_euler.classes.chi_removed_direct`` among them.
* **timers** around ``ChordUniverse.kinds`` and ``ChordUniverse.crossing_masks``:
  total time in them, over every universe.  On the item's own polygon they
  also record a span, because that universe is shared by every call on the
  item and its cost belongs to the chords layer.  A universe that a call
  builds for a sub-polygon of its own (Lemma 1's faces) records no span, so
  its cost stays in that call's self time, which is what a route that stops
  building them saves.
* **counters** on ``geometry.orientation``/``geometry.cross`` and on
  ``ChordUniverse`` constructions (too many calls for spans).

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns
from types import SimpleNamespace

SPAN_FUNCTIONS = {
    "partition": (
        "chi_removed_direct", "chi_removed_theorem2", "chi_removed_lemma1",
        "chi_removed_lemma_d2", "convexity_constraints", "subdivide",
    ),
    "classes": (
        "is_class1", "is_class2", "is_class3", "is_class4", "is_class5", "is_class6",
        "verify_theorem1", "verify_theorem3",
    ),
    "nc_euler": ("f_vector", "euler_recursive"),
    "catalan": ("brute_a_diagonal_fvector",),
}
SPAN_METHODS = (("nc_euler", "EulerEngine", "chi"),)
UNIVERSE_TIMERS = ("kinds", "crossing_masks")
PREDICATES = ("orientation", "cross")

DETECTORS = tuple(f"is_class{k}" for k in range(1, 7))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.timer_ns: dict[str, int] = defaultdict(int)
        self.predicate_calls = 0
        self.universes_built = 0
        self.chord_pairs = 0
        self.item = -1  # index of the item being run, shared by its spans
        self.item_polygon = None  # the polygon object the current item runs on
        self.missing: list[str] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item)

        return wrapper

    def _universe_timer(self, name: str, fn):
        span = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(uni):
            t0 = perf_counter_ns()
            try:
                if uni.polygon is self.item_polygon:
                    return span(uni)
                return fn(uni)
            finally:
                self.timer_ns[name] += perf_counter_ns() - t0

        return wrapper

    def _predicate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.predicate_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _universe_init(self, fn):
        @functools.wraps(fn)
        def wrapper(uni, *args, **kwargs):
            fn(uni, *args, **kwargs)
            self.universes_built += 1
            m = len(uni.chords)
            self.chord_pairs += m * (m - 1) // 2

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, m: SimpleNamespace) -> None:
        """Wrap the loaded package's functions (for the rest of the process)."""
        for mod_name, names in SPAN_FUNCTIONS.items():
            for name in names:
                self._replace_function(getattr(m, mod_name), name, self._span)
        for name in PREDICATES:
            self._replace_function(m.geometry, name, lambda _n, fn: self._predicate(fn))
        for mod_name, cls_name, name in SPAN_METHODS:
            self._replace_method(getattr(getattr(m, mod_name), cls_name, None),
                                 f"{cls_name}.{name}", name, self._span)
        universe = getattr(m.chords, "ChordUniverse", None)
        for name in UNIVERSE_TIMERS:
            self._replace_method(universe, f"ChordUniverse.{name}", name, self._universe_timer)
        self._replace_method(universe, "ChordUniverse.__init__", "__init__",
                             lambda _n, fn: self._universe_init(fn))
        if self.missing:
            print("trace: not found, reported as 0: " + ", ".join(self.missing), file=sys.stderr)

    def _replace_function(self, module, name: str, make) -> None:
        orig = getattr(module, name, None)
        if not callable(orig):
            self.missing.append(f"{module.__name__}.{name}")
            return
        wrapper = make(name, orig)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, label: str, name: str, make) -> None:
        desc = vars(cls).get(name) if cls is not None else None
        if isinstance(desc, functools.cached_property):
            new = functools.cached_property(make(label, desc.func))
            new.__set_name__(cls, name)
        elif callable(desc):
            new = make(label, desc)
        else:
            self.missing.append(label)
            return
        setattr(cls, name, new)

    # -- results ------------------------------------------------------------

    def times(self) -> tuple[dict, dict, dict]:
        """Per span name: self ns, inclusive ns and call count."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            self_ns[name] += t1 - t0 - child[idx]
            total_ns[name] += t1 - t0
            calls[name] += 1
        return self_ns, total_ns, calls

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        self_ns, total_ns, calls = self.times()
        s = lambda ns: ns / 1e9  # noqa: E731
        return {
            "geometry.predicate_calls": (self.predicate_calls, "count"),
            "chords.universes_built": (self.universes_built, "count"),
            "chords.chord_pairs": (self.chord_pairs, "count"),
            "chords.kinds_s": (s(self.timer_ns["ChordUniverse.kinds"]), "s"),
            "chords.crossing_masks_s": (s(self.timer_ns["ChordUniverse.crossing_masks"]), "s"),
            "nc_euler.fvector_s": (s(self_ns["f_vector"]), "s"),
            "nc_euler.chi_s": (s(self_ns["EulerEngine.chi"] + self_ns["euler_recursive"]), "s"),
            "nc_euler.chi_calls": (calls["EulerEngine.chi"] + calls["euler_recursive"], "count"),
            "partition.lemma1_s": (s(self_ns["chi_removed_lemma1"]), "s"),
            "partition.theorem2_s": (s(self_ns["chi_removed_theorem2"]), "s"),
            "partition.lemma_d2_s": (s(self_ns["chi_removed_lemma_d2"]), "s"),
            "partition.direct_s": (s(self_ns["chi_removed_direct"]), "s"),
            "partition.constraints_s": (s(self_ns["convexity_constraints"]), "s"),
            "partition.subdivide_calls": (calls["subdivide"], "count"),
            "classes.detectors_s": (s(sum(self_ns[d] for d in DETECTORS)), "s"),
            "classes.verify_theorem3_s": (s(self_ns["verify_theorem3"]), "s"),
            "classes.verify_theorem1_s": (s(self_ns["verify_theorem1"]), "s"),
            "catalan.a_diagonal_s": (s(total_ns["brute_a_diagonal_fvector"]), "s"),
        }

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for name, t0, t1, parent, item in self.spans:
                fh.write(f"{name}\t{t0}\t{t1}\t{parent}\t{item}\n")
