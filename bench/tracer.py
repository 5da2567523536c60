"""Spans around the public surface of monlat, installed from outside.

`Tracer.install()` replaces every public function of the layer modules, and
every public method of the two context classes, by a wrapper that records a
span (name, start, end, parent) and charges calls and self time to the span
name. The references other monlat modules hold (``from .nsub import ...``
bindings and dict values such as ``checks.CHECKS``) are replaced too.
`Tracer.uninstall()` puts every original back. Context methods are named by
the depth of the instance: ``context.d2.compose``.

Spans stay in memory as four flat arrays and are written once, at exit, by
`write_spans`. Self time is computed as the span runs: its duration minus the
durations of its direct children, which is the part of its interval no
child span covers, since calls nest in one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "checks", "context", "nsub", "monoid", "census", "formats")
CONTEXT_CLASSES = ("CmonContext", "SesContext")
MAX_DEPTH = 8

# calls whose argument repeats are counted (ratio of calls seen before)
REPEAT = {"kernel", "cokernel", "subobject_mono", "nsub.enumerate_nsub"}
CHECKERS = (
    "third_iso_check", "second_iso_check", "dpn_check", "diexact_check",
    "modular_check", "distributive_check", "pullback_stability_check",
)
CACHED = (
    "submonoid", "inclusion_hom", "is_normal_submonoid", "cokernel_by_submonoid",
    "normal_closure", "are_isomorphic",
)
# the part of a call's result kept per span
SIZED = {"nsub.enumerate_nsub": lambda lat: lat.size, "census.lattices_of_size": len}
SIZED.update({f"checks.{name}": lambda report: report.cases for name in CHECKERS})
MARK = "__bench_traced__"


def _is_public_function(module, name, obj) -> bool:
    return (
        not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.repeats: dict[int, int] = {}
        self._seen: dict[int, set] = {}
        self.results: dict[int, int] = {}  # span id -> size of its result
        self._patches: list[tuple] = []

    # -- names

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    # -- wrappers

    def _open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, nid: int, sid: int) -> None:
        end = time.perf_counter()
        self.span_end[sid] = end
        self._stack.pop()
        duration = end - self.span_start[sid]
        self.self_s[nid] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    def _count_repeat(self, nid: int, args) -> None:
        key = hash(args)
        seen = self._seen.setdefault(nid, set())
        if key in seen:
            self.repeats[nid] = self.repeats.get(nid, 0) + 1
        else:
            seen.add(key)

    def _wrap(self, fn, nid_of, repeat: bool, size_of=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # a generator's work happens at each resume, so each resume is
            # a span; the call is counted once
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                nid = nid_of(args)
                tracer.calls[nid] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        sid = tracer._open(nid)
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(nid, sid)
                        yield value
                finally:
                    gen.close()

            setattr(gen_wrapper, MARK, fn)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = nid_of(args)
            tracer.calls[nid] += 1
            if repeat:
                tracer._count_repeat(nid, args)
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(nid, sid)
            if size_of is not None:
                tracer.results[sid] = size_of(result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- install / uninstall

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"monlat.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "monlat" or n.startswith("monlat.")]
        originals = {}
        for layer, module in layers.items():
            for name, obj in list(vars(module).items()):
                if _is_public_function(module, name, obj):
                    span = f"{layer}.{name}"
                    nid = self.name_id(span)
                    originals[id(obj)] = (
                        obj,
                        self._wrap(obj, lambda _a, nid=nid: nid, span in REPEAT, SIZED.get(span)),
                    )
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patch_attr(module, name, originals[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._patches.append((value, key, item, True))
                            value[key] = originals[id(item)][1]
        context = sys.modules["monlat.context"]
        for cls_name in CONTEXT_CLASSES:
            cls = getattr(context, cls_name)
            for name, obj in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                ids = tuple(self.name_id(f"context.d{d}.{name}") for d in range(MAX_DEPTH))
                wrapper = self._wrap(obj, lambda args, ids=ids: ids[args[0].depth], name in REPEAT)
                self._patch_attr(cls, name, wrapper)

    def _patch_attr(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name), False))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- results

    def summary(self) -> dict:
        """Per-name counters plus the span-structure metrics."""
        checker = {self._ids[f"checks.{n}"] for n in CHECKERS if f"checks.{n}" in self._ids}
        diexact = self._ids.get("checks.diexact_check")
        cross = {self._ids.get("checks.third_iso_check"), self._ids.get("checks.second_iso_check")}
        fmt = {nid: self.names[nid].split(".")[1] for nid in range(len(self.names))
               if self.names[nid].startswith("formats.")}
        object_s, cases, cross_s = [], 0, 0.0
        parse_s = emit_s = 0.0
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for sid in range(len(names)):
            nid = names[sid]
            parent = parents[sid]
            pnid = names[parent] if parent >= 0 else -1
            if nid in checker:
                if pnid not in checker:
                    object_s.append(ends[sid] - starts[sid])
                    cases += self.results.get(sid, 0)
                elif pnid == diexact and nid in cross:
                    cross_s += ends[sid] - starts[sid]
            elif nid in fmt and pnid not in fmt:
                if fmt[nid].startswith("parse"):
                    parse_s += ends[sid] - starts[sid]
                elif fmt[nid].startswith("emit"):
                    emit_s += ends[sid] - starts[sid]
        enum = self._ids.get("nsub.enumerate_nsub")
        census = self._ids.get("census.lattices_of_size")
        lattice_sizes = [v for sid, v in self.results.items() if names[sid] == enum]
        lattices = sum(v for sid, v in self.results.items() if names[sid] == census)
        monoid = sys.modules["monlat.monoid"]
        caches = {}
        for name in CACHED:
            fn = getattr(monoid, name)
            fn = getattr(fn, MARK, fn)
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "names": {
                self.names[nid]: {
                    "calls": self.calls[nid],
                    "self_s": self.self_s[nid],
                    "repeats": self.repeats.get(nid, 0),
                }
                for nid in range(len(self.names))
                if self.calls[nid]
            },
            "object_s": object_s,
            "cases": cases,
            "cross_check_s": cross_s,
            "parse_s": parse_s,
            "emit_s": emit_s,
            "lattice_size_max": max(lattice_sizes, default=0),
            "census_lattices": lattices,
            "caches": caches,
            "spans": len(names),
        }

    def write_spans(self, path: Path) -> None:
        """Spans as a JSON header line and four arrays in native byte order:
        name ids (int32), parent span ids (int32, -1 for roots), start and
        end (float64, seconds on the monotonic clock)."""
        with open(path, "wb") as fh:
            header = {"run_id": self.run_id, "names": self.names, "count": len(self.span_name)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def leftover_wrappers() -> list[str]:
    """Names in monlat that still hold a tracing wrapper."""
    found = []
    owners = [m for n, m in sys.modules.items() if n == "monlat" or n.startswith("monlat.")]
    context = sys.modules.get("monlat.context")
    if context is not None:
        owners += [getattr(context, c) for c in CONTEXT_CLASSES]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if hasattr(value, MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{name}")
            elif isinstance(value, dict):
                found += [f"{owner.__name__}.{name}[{k!r}]" for k, v in value.items() if hasattr(v, MARK)]
    return found
