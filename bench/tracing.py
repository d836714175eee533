"""
Tracing for the benchmark's traced run, from outside the program.

``Tracer.installed()`` wraps the public functions of linfty's modules and
restores the originals on exit.  The modules import each other's functions
by name (``structures`` does ``from .perm import apply, unshuffles``), so a
function is replaced in the namespace of every linfty module that binds it,
not only in the module that defines it.

Two kinds of wrapper:

- layer boundaries (SPANNED) record a span ``[name, start, end, parent,
  info, counted]`` in memory; self times are derived from the span tree
  afterwards;
- hot leaf functions (COUNTED, and the SymMultiMap methods) are called
  millions of times, so they only add to a per-name Counter; storing a span
  per call would cost more memory than the program itself.  The time of an
  outermost counted call is also added to ``counted[layer]`` of the
  innermost open span, so that span's self time excludes it and the counted
  layer gets it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

SPANNED = {
    "cli": ("main",),
    "jsonio": ("parse_bundle", "serialize_bundle"),
    "structures": ("jacobi_residual", "morphism_residual", "module_residual",
                   "modhom_residual", "first_failure", "compose"),
    "restrict": ("context", "restrict_module", "restrict_morphism"),
    "oracle": ("naive_residual",),
    "fixtures": ("build",),
}
COUNTED = {
    "perm": ("unshuffles", "primed_unshuffles", "apply", "slot_rotation", "ordered_partitions"),
}
DISTINCT = {"perm.unshuffles", "perm.primed_unshuffles"}  # also count distinct block specs
RESIDUALS = ("jacobi_residual", "morphism_residual", "module_residual", "modhom_residual")


@dataclass
class Counter:
    calls: int = 0
    s: float = 0.0
    nonzero: int = 0
    distinct: set = field(default_factory=set)


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    if last in ("s", "self_s"):
        return "s"
    if last.endswith("_frac"):
        return "ratio"
    return "B" if last == "bytes" else "count"


def residual_keys(structure, n: int) -> int:
    """Size of the canonical domain of the arity-n residual, from the
    dimensions alone: multisets of n algebra basis elements, or of n - 1
    algebra basis elements times one module basis element."""
    if hasattr(structure, "algebra"):  # module
        a, m = structure.algebra.space.total_dim, structure.space.total_dim
    elif hasattr(structure, "source") and hasattr(structure.source, "algebra"):  # module morphism
        a, m = structure.source.algebra.space.total_dim, structure.source.space.total_dim
    else:
        space = structure.space if hasattr(structure, "space") else structure.source.space
        return math.comb(space.total_dim + n - 1, n)
    return math.comb(a + n - 2, n - 1) * m


def _span_info(name: str, args, result):
    if name.split(".")[1] in RESIDUALS:
        structure, n = args[0], args[1]
        return {"n": n, "keys": residual_keys(structure, n), "nonzero": len(result.entries())}
    if name == "jsonio.parse_bundle":
        return {"bytes": len(args[0].encode("utf-8"))}
    if name == "jsonio.serialize_bundle":
        return {"bytes": len(result.encode("utf-8"))}
    return None


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.spans: list = []    # [name, start, end, parent index or -1, info, counted]
        self.counters: dict = {}
        self._stack: list = []
        self._counted_depth = [0]  # counted calls open, so nested ones are charged once
        self._patches: list = []  # (namespace, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, {}]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[4] = _span_info(name, args, result)
            return result

        wrapper.bench_wrapped = True
        return wrapper

    def _count(self, name: str, fn):
        c = self.counters.setdefault(name, Counter())
        spans, stack, depth, clock = self.spans, self._stack, self._counted_depth, time.perf_counter
        layer = name.split(".")[0]
        distinct = name in DISTINCT
        nonzero = name == "gfa.eval"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t
                depth[0] -= 1
            c.s += dt
            c.calls += 1
            if stack and not depth[0]:
                counted = spans[stack[-1]][5]
                counted[layer] = counted.get(layer, 0.0) + dt
            if distinct:
                c.distinct.add(args[0])
            if nonzero and result.bits:
                c.nonzero += 1
            return result

        wrapper.bench_wrapped = True
        return wrapper

    # -- installing -------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "linfty" and not modname.startswith("linfty."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, names in list(SPANNED.items()) + list(COUNTED.items()):
            module = importlib.import_module(f"linfty.{layer}")
            for fname in names:
                original = getattr(module, fname)
                make = self._span if layer in SPANNED else self._count
                self._replace_everywhere(original, make(f"{layer}.{fname}", original))
        gfa = importlib.import_module("linfty.gfa")
        for attr, name in (("eval", "gfa.eval"), ("__init__", "gfa.SymMultiMap")):
            original = gfa.SymMultiMap.__dict__[attr]
            self._patches.append((gfa.SymMultiMap, attr, original))
            setattr(gfa.SymMultiMap, attr, self._count(name, original))

    def remove(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()


def wrapped_names() -> list:
    """Attributes of linfty modules and of SymMultiMap that are still
    benchmark wrappers; empty once every tracer has been removed."""
    found = []
    namespaces = [(n, vars(m)) for n, m in sys.modules.items()
                  if n == "linfty" or n.startswith("linfty.")]
    gfa = sys.modules.get("linfty.gfa")
    if gfa is not None:
        namespaces.append(("linfty.gfa.SymMultiMap", vars(gfa.SymMultiMap)))
    for n, ns in namespaces:
        found += [f"{n}.{a}" for a, v in ns.items() if getattr(v, "bench_wrapped", False)]
    return found


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list, minus_counted: bool = True) -> list:
    """Each span's duration minus the part of its interval covered by its
    direct children (overlapping children are counted once) and, with
    ``minus_counted``, minus the counted calls made directly inside it."""
    children: dict = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _, counted) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered - (sum(counted.values()) if minus_counted else 0.0))
    return out


def layer_self_times(spans: list, wall: float) -> dict:
    """Self time summed by layer (the module part of the span name), with
    the counted calls made inside spans charged to their own layers; time
    of the traced phase outside every span is charged to ``bench``."""
    out: dict = {}
    for span, s in zip(spans, self_times(spans)):
        layer = span[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + s
        for counted_layer, cs in span[5].items():
            out[counted_layer] = out.get(counted_layer, 0.0) + cs
    out["bench"] = wall - sum(span[2] - span[1] for span in spans if span[3] == -1)
    return out


def per_layer_metrics(setup: Tracer, run: Tracer) -> dict:
    """The per-layer metrics, unit-less values keyed by metric name.

    Everything comes from ``run`` (one traced pass) except ``fixtures.build``,
    whose calls happen at set-up and come from ``setup``.  A ``self_s`` is
    the span's time minus its child spans only: it includes the perm and
    gfa calls the span makes."""
    selfs = self_times(run.spans, minus_counted=False)
    by_name: dict = {}
    for span, s in zip(run.spans, selfs):
        by_name.setdefault(span[0], []).append((span, s))

    def spans_of(name):
        return by_name.get(name, [])

    m: dict = {}
    for kind in ("jacobi", "morphism", "module", "modhom"):
        name = f"structures.{kind}_residual"
        spans = spans_of(name)
        m[f"{name}.calls"] = len(spans)
        m[f"{name}.s"] = sum(sp[2] - sp[1] for sp, _ in spans)
        m[f"{name}.keys"] = sum(sp[4]["keys"] for sp, _ in spans)
        m[f"{name}.nonzero"] = sum(sp[4]["nonzero"] for sp, _ in spans)
        for n in range(1, 7):
            m[f"{name}.n{n}.s"] = sum(sp[2] - sp[1] for sp, _ in spans if sp[4]["n"] == n)
    for name in ("structures.first_failure", "structures.compose", "restrict.context",
                 "oracle.naive_residual"):
        m[f"{name}.calls"] = len(spans_of(name))
        m[f"{name}.s"] = sum(sp[2] - sp[1] for sp, _ in spans_of(name))
    for name in ("restrict.restrict_module", "restrict.restrict_morphism", "cli.main"):
        m[f"{name}.calls"] = len(spans_of(name))
        m[f"{name}.s"] = sum(sp[2] - sp[1] for sp, _ in spans_of(name))
        m[f"{name}.self_s"] = sum(s for _, s in spans_of(name))
    for name in ("jsonio.parse_bundle", "jsonio.serialize_bundle"):
        m[f"{name}.calls"] = len(spans_of(name))
        m[f"{name}.s"] = sum(sp[2] - sp[1] for sp, _ in spans_of(name))
        m[f"{name}.bytes"] = sum(sp[4]["bytes"] for sp, _ in spans_of(name))

    counters = run.counters
    ev = counters.get("gfa.eval", Counter())
    m["gfa.eval.calls"], m["gfa.eval.s"] = ev.calls, ev.s
    m["gfa.eval.nonzero_frac"] = ev.nonzero / ev.calls if ev.calls else 0.0
    ctor = counters.get("gfa.SymMultiMap", Counter())
    m["gfa.SymMultiMap.calls"], m["gfa.SymMultiMap.s"] = ctor.calls, ctor.s
    for name in ("perm.unshuffles", "perm.primed_unshuffles"):
        c = counters.get(name, Counter())
        m[f"{name}.calls"], m[f"{name}.s"] = c.calls, c.s
        m[f"{name}.distinct_frac"] = len(c.distinct) / c.calls if c.calls else 0.0
    ap = counters.get("perm.apply", Counter())
    m["perm.apply.calls"], m["perm.apply.s"] = ap.calls, ap.s
    for name in ("perm.slot_rotation", "perm.ordered_partitions"):
        m[f"{name}.calls"] = counters.get(name, Counter()).calls

    builds = [sp for sp in setup.spans if sp[0] == "fixtures.build"]
    m["fixtures.build.calls"] = len(builds)
    m["fixtures.build.s"] = sum(sp[2] - sp[1] for sp in builds)
    return m
