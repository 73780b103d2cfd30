"""In-process tracing of casmat layers from outside the package.

The tracer replaces functions of the casmat modules with wrappers that
record a span (name, start, end, parent span, job) and a few counts. A
function re-imported by name into another module (``fiber`` in
``hypergroup``, ``verify_cas`` in ``cli``, ``matmul`` in ``bma``) is the
same object, so every module attribute bound to it is replaced. Spans stay
in memory; ``layer_metrics`` reduces them and ``dump`` writes them out.
"""

import json
import os
import sys
import time
from collections import defaultdict


def _path_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _cells(scheme) -> int:
    return int(scheme.relation.size)


def _flops(A, B) -> float:
    n, m = A.entries.shape
    k = B.entries.shape[1]
    complex_ = A.entries.dtype.kind == "c" or B.entries.dtype.kind == "c"
    return (8.0 if complex_ else 2.0) * n * m * k


# (module, function, attribute extractor(args, kwargs, result) -> dict)
HOOKS = [
    ("cli", "main", None),
    ("catalog", "cyclic_scheme", lambda a, k, r: {"cells": _cells(r)}),
    ("catalog", "hamming_scheme", lambda a, k, r: {"cells": _cells(r)}),
    ("catalog", "group_action_scheme", lambda a, k, r: {"cells": _cells(r)}),
    ("catalog", "circle_scheme", lambda a, k, r: {"cells": _cells(r)}),
    ("catalog", "sphere_scheme", lambda a, k, r: {"cells": _cells(r)}),
    ("catalog", "delsarte_scheme", lambda a, k, r: {"cells": _cells(r)}),
    ("scheme", "write_scheme", lambda a, k, r: {"mb": _path_mb(a[1])}),
    ("scheme", "read_scheme", lambda a, k, r: {"mb": _path_mb(a[0])}),
    ("scheme", "verify_cas", lambda a, k, r: {"cas3_ok": bool(r.cas3_ok)}),
    ("scheme", "fiber", lambda a, k, r: {"pairs": int(r[0].size),
                                         "cells": _cells(a[0])}),
    # private: the one place that knows how many fiber pairs verify_cas
    # evaluates once --max-pairs sampling applies
    ("scheme", "_sample_fiber", lambda a, k, r: {
        "pairs": int(r[0].size),
        "self_paired": bool(a[0].label_space.involution[int(a[1])]
                            == int(a[1]))}),
    ("bma", "verify_bma", None),
    ("bma", "span_expand", None),
    ("bma", "structure_constants", None),
    ("bma", "build_approximate_identity", None),
    ("kernel", "matmul", lambda a, k, r: {"flop": _flops(a[0], a[1])}),
    ("correspondence", "algebra_of_scheme", None),
    ("correspondence", "character_partition", lambda a, k, r: {
        "rows": int(a[0].space.node_count) ** 2,
        "mb": int(a[0].space.node_count) ** 2 * 2 * len(a[0].basis) * 8
        / 1e6}),
    ("correspondence", "roundtrip_check", None),
    ("hypergroup", "kernel_of_scheme", None),
    ("hypergroup", "convolve_point_masses", None),
    ("hypergroup", "convolve_functions", None),
    ("hypergroup", "verify_strong_cas", lambda a, k, r: {
        "entries": int(a[0].label_count) ** 2}),
]

# every catalog builder reports under one span name
SPAN_NAMES = {f"catalog.{fn}": "catalog.build"
              for mod, fn, _ in HOOKS if mod == "catalog"}


# every per-layer metric the traced run prints: name -> (unit, better)
PER_LAYER = {
    "catalog.build_s": ("s", "lower"),
    "catalog.cells": ("count", "lower"),
    "scheme.write_scheme.s": ("s", "lower"),
    "scheme.write_scheme.mb": ("MB", "lower"),
    "scheme.read_scheme.s": ("s", "lower"),
    "scheme.read_scheme.mb": ("MB", "lower"),
    "scheme.verify_cas.self_s": ("s", "lower"),
    "scheme.verify_cas.pairs": ("count", "lower"),
    "scheme.verify_cas.pairs_per_s": ("1/s", "higher"),
    "scheme.fiber.calls": ("count", "lower"),
    "scheme.fiber.s": ("s", "lower"),
    "scheme.fiber.scan_ratio": ("ratio", "higher"),
    "bma.verify_bma.self_s": ("s", "lower"),
    "bma.span_expand.calls": ("count", "lower"),
    "bma.span_expand.s": ("s", "lower"),
    "bma.structure_constants.s": ("s", "lower"),
    "bma.build_approximate_identity.s": ("s", "lower"),
    "kernel.matmul.calls": ("count", "lower"),
    "kernel.matmul.s": ("s", "lower"),
    "kernel.matmul.gflop": ("GFLOP", "lower"),
    "kernel.matmul.gflop_per_s": ("GFLOP/s", "higher"),
    "correspondence.algebra_of_scheme.s": ("s", "lower"),
    "correspondence.character_partition.s": ("s", "lower"),
    "correspondence.character_partition.rows": ("count", "lower"),
    "correspondence.character_partition.mb": ("MB", "lower"),
    "correspondence.roundtrip_check.self_s": ("s", "lower"),
    "hypergroup.kernel_of_scheme.s": ("s", "lower"),
    "hypergroup.convolve_point_masses.calls": ("count", "lower"),
    "hypergroup.convolve_point_masses.s": ("s", "lower"),
    "hypergroup.conv_calls_per_entry": ("ratio", "lower"),
    "hypergroup.convolve_functions.s": ("s", "lower"),
    "hypergroup.verify_strong_cas.self_s": ("s", "lower"),
    "hypergroup.cas4_verify_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.verify_s": ("s", "lower"),
    "cli.correspond_s": ("s", "lower"),
    "cli.hypergroup_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    """Span recorder; install() wraps the casmat functions, remove() undoes."""

    def __init__(self):
        self.spans = []   # dicts: name, start, end, parent, job, attrs
        self.job = None
        self._stack = []
        self._patched = []   # (module, attribute, original)
        self.missing = []

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "job": self.job}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        import casmat  # noqa: F401  (loads every submodule)
        self.missing = []
        modules = [m for key, m in sys.modules.items()
                   if key == "casmat" or key.startswith("casmat.")]
        for mod_name, fn_name, attrs in HOOKS:
            original = getattr(sys.modules.get(f"casmat.{mod_name}"),
                               fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            span_name = SPAN_NAMES.get(f"{mod_name}.{fn_name}",
                                       f"{mod_name}.{fn_name}")
            wrapper = self._wrap(span_name, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self, path, extra):
        """Writes the spans as [name, start, end, parent, job, attrs] rows."""
        keys = ("name", "start", "end", "parent", "job")
        rows = [[s[k] for k in keys]
                + [{k: v for k, v in s.items() if k not in keys}]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({**extra, "span_fields": list(keys) + ["attrs"],
                       "spans": rows}, fh, separators=(",", ":"))


def _durations(spans):
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def top_self_times(spans, count=3):
    """Per job, the span names with the largest summed self time."""
    _, self_t = _durations(spans)
    per_job = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, self_t):
        per_job[s["job"]][s["name"]] += t
    return {job: sorted(((round(t, 4), name) for name, t in names.items()),
                        reverse=True)[:count]
            for job, names in per_job.items()}


def layer_metrics(spans) -> dict:
    """Per-layer times and counts, zero for layers that did not run."""
    dur, self_t = _durations(spans)
    total = defaultdict(float)
    selfs = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    for i, s in enumerate(spans):
        name = s["name"]
        total[name] += dur[i]
        selfs[name] += self_t[i]
        calls[name] += 1
        for key in ("cells", "mb", "pairs", "rows", "flop", "entries"):
            if key in s:
                attr[f"{name}.{key}"] += s[key]
    # verify_cas evaluates each sampled pair once, and once more through the
    # transposed sample when the partner label differs and CAS3 holds
    pairs = 0
    cas4_s = 0.0
    for s, d in zip(spans, dur):
        if s["name"] == "scheme._sample_fiber":
            parent = spans[s["parent"]] if s["parent"] is not None else {}
            reuse = (not s["self_paired"]) and parent.get("cas3_ok", False)
            pairs += s["pairs"] * (2 if reuse else 1)
        if (s["name"] == "scheme.verify_cas" and s["parent"] is not None
                and spans[s["parent"]]["name"]
                == "hypergroup.verify_strong_cas"):
            cas4_s += d

    def ratio(a, b):
        return a / b if b else 0.0

    conv = "hypergroup.convolve_point_masses"
    return {
        "catalog.build_s": total["catalog.build"],
        "catalog.cells": attr["catalog.build.cells"],
        "scheme.write_scheme.s": total["scheme.write_scheme"],
        "scheme.write_scheme.mb": attr["scheme.write_scheme.mb"],
        "scheme.read_scheme.s": total["scheme.read_scheme"],
        "scheme.read_scheme.mb": attr["scheme.read_scheme.mb"],
        "scheme.verify_cas.self_s": selfs["scheme.verify_cas"],
        "scheme.verify_cas.pairs": pairs,
        "scheme.verify_cas.pairs_per_s": ratio(
            pairs, total["scheme.verify_cas"]),
        "scheme.fiber.calls": calls["scheme.fiber"],
        "scheme.fiber.s": total["scheme.fiber"],
        "scheme.fiber.scan_ratio": ratio(attr["scheme.fiber.pairs"],
                                         attr["scheme.fiber.cells"]),
        "bma.verify_bma.self_s": selfs["bma.verify_bma"],
        "bma.span_expand.calls": calls["bma.span_expand"],
        "bma.span_expand.s": total["bma.span_expand"],
        "bma.structure_constants.s": total["bma.structure_constants"],
        "bma.build_approximate_identity.s":
            total["bma.build_approximate_identity"],
        "kernel.matmul.calls": calls["kernel.matmul"],
        "kernel.matmul.s": total["kernel.matmul"],
        "kernel.matmul.gflop": attr["kernel.matmul.flop"] / 1e9,
        "kernel.matmul.gflop_per_s": ratio(attr["kernel.matmul.flop"] / 1e9,
                                           total["kernel.matmul"]),
        "correspondence.algebra_of_scheme.s":
            total["correspondence.algebra_of_scheme"],
        "correspondence.character_partition.s":
            total["correspondence.character_partition"],
        "correspondence.character_partition.rows":
            attr["correspondence.character_partition.rows"],
        "correspondence.character_partition.mb":
            attr["correspondence.character_partition.mb"],
        "correspondence.roundtrip_check.self_s":
            selfs["correspondence.roundtrip_check"],
        "hypergroup.kernel_of_scheme.s": total["hypergroup.kernel_of_scheme"],
        "hypergroup.convolve_point_masses.calls": calls[conv],
        "hypergroup.convolve_point_masses.s": total[conv],
        "hypergroup.conv_calls_per_entry": ratio(
            calls[conv], attr["hypergroup.verify_strong_cas.entries"]),
        "hypergroup.convolve_functions.s":
            total["hypergroup.convolve_functions"],
        "hypergroup.verify_strong_cas.self_s":
            selfs["hypergroup.verify_strong_cas"],
        "hypergroup.cas4_verify_s": cas4_s,
        "cli.main.self_s": selfs["cli.main"],
    }
