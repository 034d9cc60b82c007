"""Spans and counts recorded around calls into fpres, from outside the package.

`Tracer.install` replaces every public function of the traced modules, and
every public method of the classes they define (plus `__init__` of the
classes that write their own), with a wrapper that records a span. A
function that other modules re-import (`currents.fusion_matrix`,
`validate.snap_phase`, ...) is replaced under each of its names by the same
wrapper. `Tracer.uninstall` puts every original back.

Each span is (id, parent id, name, start, end) and stays in memory until
`write` saves them all at once. The wrapper also keeps running sums, so the
self times below need no second pass over the spans:

* a span's self time is its duration minus its child spans;
* a span's *layer time* is its duration minus the time spent in spans of
  other layers under it (same-layer child spans are folded in), so a stage
  such as `extend.resolve` keeps the extend-layer code it runs through other
  public extend methods but not the currents or groups calls they make.

A layer is one module. The process is single-threaded, so spans nest and
child durations add up without overlap.
"""
from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import time
import weakref


@dataclasses.dataclass
class SpanStats:
    """Running sums for every span of one name."""

    layer: str
    calls: int = 0
    failed: int = 0          # calls that raised
    total_s: float = 0.0     # inclusive
    self_s: float = 0.0      # minus all child spans
    stage_s: float = 0.0     # layer time of the outermost spans of this name
    layer_s: float = 0.0     # layer time of the spans whose parent is another layer
    depth: int = 0           # spans of this name currently open


class Tracer:
    """Wraps the public callables of `modules`; `hooks` add counts.

    `hooks` maps a qualified name such as ``"modular.save"`` to a callable
    ``hook(tracer, args, kwargs, result)`` run after each successful call.
    A hooked private function (leading underscore) is wrapped for its hook
    only and records no span.
    """

    def __init__(self, package: str, modules, hooks=None):
        self.package = package
        self.modules = list(modules)
        self.hooks = dict(hooks or {})
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.top_level_s = 0.0
        self._stack: list[list] = []
        self._layer_open: dict[str, int] = {}
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}
        self._distinct = weakref.WeakKeyDictionary()

    # --- counts used by hooks

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def count_distinct(self, name: str, owner, key) -> bool:
        """Count `key` once per `owner` object (kept only weakly); True
        when it is new."""
        seen = self._distinct.setdefault(owner, {}).setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        self.count(name)
        return True

    def layer_open(self, layer: str) -> bool:
        return self._layer_open.get(layer, 0) > 0

    # --- patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        prefix = self.package + "."
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                    qual = _short(obj.__module__, prefix) + "." + obj.__name__
                    if not attr.startswith("_") or qual in self.hooks:
                        self._patch(mod, attr, obj, qual)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and attr == obj.__name__):
                    self._patch_class(obj, _short(obj.__module__, prefix))

    def _patch_class(self, cls, layer: str) -> None:
        own_init = not dataclasses.is_dataclass(cls)
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and not (attr == "__init__" and own_init):
                continue
            qual = f"{layer}.{cls.__name__}"
            if attr != "__init__":
                qual += "." + attr
            self._patch(cls, attr, obj, qual)

    def _patch(self, owner, attr, fn, qual) -> None:
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            span = not qual.rsplit(".", 1)[-1].startswith("_")
            wrapper = self._wrap(fn, qual, span)
            self._wrappers[id(fn)] = wrapper
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        self._wrappers.clear()

    def _wrap(self, fn, qual: str, span: bool):
        hook = self.hooks.get(qual)
        if not span:
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                hook(self, args, kwargs, out)
                return out
            return hooked

        layer = qual.split(".", 1)[0]
        st = self.stats.setdefault(qual, SpanStats(layer))
        stack = self._stack
        spans = self.spans
        layer_open = self._layer_open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: id, layer, sum of child durations, other-layer time below
            frame = [len(spans) + len(stack) + 1, layer, 0.0, 0.0]
            stack.append(frame)
            st.depth += 1
            layer_open[layer] = layer_open.get(layer, 0) + 1
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                st.depth -= 1
                layer_open[layer] -= 1
                dur = end - start
                own = dur - frame[3]
                st.calls += 1
                st.failed += raised
                st.total_s += dur
                st.self_s += dur - frame[2]
                if st.depth == 0:
                    st.stage_s += own
                if parent is None:
                    self.top_level_s += dur
                    spans.append((frame[0], 0, qual, start, end))
                else:
                    parent[2] += dur
                    if parent[1] == layer:
                        parent[3] += frame[3]
                    else:
                        parent[3] += dur
                        st.layer_s += own
                    spans.append((frame[0], parent[0], qual, start, end))
                if parent is None:
                    st.layer_s += own
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    # --- results

    def stage_s(self, qual: str) -> float:
        st = self.stats.get(qual)
        return st.stage_s if st else 0.0

    def calls(self, qual: str) -> int:
        st = self.stats.get(qual)
        return st.calls if st else 0

    def failed(self, qual: str) -> int:
        st = self.stats.get(qual)
        return st.failed if st else 0

    def layer_s(self, layer: str) -> float:
        return sum(st.layer_s for st in self.stats.values() if st.layer == layer)

    def write(self, path) -> None:
        """Save every span and count as one gzipped JSON document; a span
        is [id, parent id (0 for none), index into "names", start, end]."""
        names = sorted(self.stats)
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "format": "perfbench-trace v1",
            "names": names,
            "spans": [[i, p, index[q], s, e] for i, p, q, s, e in self.spans],
            "stats": {k: dataclasses.asdict(v) for k, v in self.stats.items()},
            "counts": self.counts,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _short(module: str, prefix: str) -> str:
    return module[len(prefix):]
