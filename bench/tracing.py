"""Spans around ginlab's public functions, recorded from outside the package.

A Tracer wraps each function in TRACED and rebinds every name under which a
ginlab module holds it (``staircase.hilbert_fn`` and ``hilbert.hilbert_fn``
are the same object), so calls between modules and inside a module are both
traced.  Each call appends one span (name, parent, start, end, value) to
flat arrays kept in memory; per-layer metrics are computed from the spans
after the run and the spans are written out at the end.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter


def _exported_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _peel_steps(result) -> int:
    return len(result.trace)


EXPORTERS = ("staircase_json", "shape_json", "shape_csv", "shape_svg", "hilbert_csv")
# (module, function, per-call value recorded with the span)
TRACED = (
    ("lattice", "reduce_to_nef", _peel_steps),
    ("lattice", "riemann_roch_h0", None),
    ("lattice", "is_nef", None),
    ("lattice", "exceptional_classes", None),
    ("hilbert", "hilbert_fn", None),
    ("hilbert", "alpha", None),
    ("hilbert", "nef_threshold", None),
    ("staircase", "gin_staircase", None),
    ("staircase", "xy_count", None),
    ("staircase", "colength", None),
    ("staircase", "shgh_gin_closed_form", None),
    *(("exporters", name, _exported_bytes) for name in EXPORTERS),
    ("shape", "shape_report", None),
    ("shape", "check_convergence", None),
    ("shape", "collinear_shape_check", None),
    ("verify", "run_verification", None),
    ("verify", "brute_force_exceptional_classes", None),
    ("cli", "main", None),
)
CACHED = ("lattice.exceptional_classes", "hilbert.hilbert_fn", "staircase.gin_staircase")


def ginlab_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "ginlab" or name.startswith("ginlab.")]


def clear_caches() -> None:
    """Empty every lru_cache in ginlab, as a fresh process would have them."""
    cached = {id(value): value for mod in ginlab_modules() for value in vars(mod).values()
              if callable(getattr(value, "cache_clear", None))}
    for value in cached.values():
        value.cache_clear()


def cache_info(qualname: str):
    module, name = qualname.split(".")
    return getattr(sys.modules[f"ginlab.{module}"], name).cache_info()


class Tracer:
    """Span recorder for one pass; `with tracer:` installs the wrappers and
    leaving the block restores the original functions."""

    def __init__(self) -> None:
        self.names = [f"{module}.{name}" for module, name, _ in TRACED]
        self.name = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, measure):
        names, parents, starts, ends, values = (self.name, self.parent, self.start,
                                                self.end, self.value)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            values.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if measure is not None:
                values[idx] = measure(result)
            return result

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def __enter__(self) -> "Tracer":
        modules = ginlab_modules()
        for name_id, (module, name, measure) in enumerate(TRACED):
            original = getattr(sys.modules[f"ginlab.{module}"], name)
            wrapper = self._wrap(name_id, original, measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and recorded values per traced function.

        Self time is a span's duration minus the durations of its child
        spans; `hilbert.alpha.hilbert_calls` counts hilbert_fn spans whose
        parent is an alpha span.
        """
        n = len(self.start)
        starts, ends, parents, names, values = (self.start, self.end, self.parent,
                                                self.name, self.value)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, self_s, total = [0] * k, [0.0] * k, [0] * k
        alpha_id, hilbert_id = self.names.index("hilbert.alpha"), self.names.index("hilbert.hilbert_fn")
        under_alpha = 0
        for i in range(n):
            name_id = names[i]
            calls[name_id] += 1
            self_s[name_id] += ends[i] - starts[i] - child[i]
            total[name_id] += values[i]
            if name_id == hilbert_id and parents[i] >= 0 and names[parents[i]] == alpha_id:
                under_alpha += 1
        out = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_s[name_id]
            out[f"{name}.value"] = total[name_id]
        out["hilbert.alpha.hilbert_calls"] = under_alpha
        return out

    def write(self, path: Path, commands: list[list[str]]) -> None:
        """Spans as raw arrays after a one-line JSON header.

        Spans whose parent is -1 are the cli.main calls, one per command in
        order; a reader takes each field with array(typecode).fromfile.
        """
        fields = [("name", self.name), ("parent", self.parent), ("start", self.start),
                  ("end", self.end), ("value", self.value)]
        header = {"names": self.names, "count": len(self.start), "commands": commands,
                  "fields": [[field, arr.typecode, arr.itemsize] for field, arr in fields],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, arr in fields:
                arr.tofile(handle)
