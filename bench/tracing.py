"""Spans around the calls into `dcpse`, recorded from the benchmark's side.

`Tracer.install` replaces each traced public function, in every loaded
`dcpse` module that refers to it, with a wrapper that records a span (name,
start, end, parent, group) and, for some layers, counts such as nodes or
bytes. `uninstall` puts the original functions back, so the untraced part
of a run calls the program exactly as a user would. Nothing in `src/`
changes.

A layer's self time is the span's duration minus the time its child spans
cover. The per-layer metrics are medians over groups: one group per timed
operation and one per set-up.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
import statistics
import sys
import time

import numpy as np

# (defining module, function name, span name)
TRACED = (
    ("dcpse.cli", "main", "cli.main"),
    ("dcpse.io_formats", "read_points_csv", "io_formats.read_points_csv"),
    ("dcpse.io_formats", "write_field_csv", "io_formats.write_field_csv"),
    ("dcpse.io_formats", "write_report", "io_formats.write_report"),
    ("dcpse.cloud", "build_index", "cloud.build_index"),
    ("dcpse.operators", "gradient_operator", "operators.gradient_operator"),
    ("dcpse.operators", "apply", "operators.apply"),
    ("dcpse.operators", "verify_moments", "operators.verify_moments"),
    ("dcpse.elasticity", "recover", "elasticity.recover"),
    ("dcpse.elasticity", "displacement_gradient", "elasticity.displacement_gradient"),
    ("dcpse.elasticity", "strain_from_gradient", "elasticity.strain_from_gradient"),
    ("dcpse.elasticity", "stress_from_strain", "elasticity.stress_from_strain"),
    ("dcpse.elasticity", "plane_strain_embed", "elasticity.plane_strain_embed"),
    ("dcpse.elasticity", "von_mises", "elasticity.von_mises"),
    ("dcpse.elasticity", "principal_stresses", "elasticity.principal_stresses"),
    ("dcpse.benchmarks", "convergence_study", "benchmarks.convergence_study"),
    ("dcpse.benchmarks", "evaluate_level", "benchmarks.evaluate_level"),
    ("dcpse.benchmarks", "generate_nodes", "benchmarks.generate_nodes"),
    ("dcpse.benchmarks", "franke_grad", "benchmarks.exact"),
)

# gradient_operator's basis size l for r = 2 (degrees 0..2) and its initial
# support k0 = ceil(neighbor_factor * l) with the default factor 2.0
_K0 = {2: 12, 3: 20}
_GROWTH = 1.5
_INDEX_BYTES = 8
_VALUE_BYTES = 8


class LayerMissing(RuntimeError):
    """A traced run expected spans of a layer and recorded none."""


def growth_steps(k_final: np.ndarray, k0: int, n: int) -> np.ndarray:
    """Regrowths each node needed to reach its final support size, from the
    builder's rule k <- min(ceil(1.5 k), n - 1)."""
    ladder = [k0]
    while ladder[-1] < n - 1:
        ladder.append(min(math.ceil(_GROWTH * ladder[-1]), n - 1))
    return np.searchsorted(np.asarray(ladder), k_final)


def held_bytes(ops) -> int:
    """Bytes of the arrays the operators hold, each buffer counted once."""
    roots = {}

    def visit(value):
        if isinstance(value, np.ndarray):
            root = value
            while isinstance(root.base, np.ndarray):
                root = root.base
            roots[id(root)] = root.nbytes
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)
        elif hasattr(value, "indptr") and hasattr(value, "data"):
            for name in ("data", "indices", "indptr"):
                visit(getattr(value, name))

    for op in ops:
        for f in dataclasses.fields(op):
            visit(getattr(op, f.name))
    return int(sum(roots.values()))


def _gradient_counts(ops) -> dict:
    op = ops[0]
    n, dim = op.n, op.dim
    k = np.asarray(op.support_size)
    steps = growth_steps(k, min(_K0[dim], n - 1), n)
    nnz = int(np.sum(k)) + n  # one centre coupling per row
    return {
        "nodes": n,
        "regrown_nodes": int(np.count_nonzero(steps)),
        "growth_steps": int(np.sum(steps)),
        "moment_systems": n + int(np.sum(steps)),
        "stencil_nnz": nnz * len(ops),
        "store_bytes": held_bytes(ops),
    }


def _apply_counts(op) -> dict:
    nnz = int(np.sum(op.support_size)) + op.n
    moved = nnz * (_INDEX_BYTES + _VALUE_BYTES) + (op.n + 1) * _INDEX_BYTES
    return {"apply_bytes": moved + 2 * op.n * _VALUE_BYTES}


def _counts(span_name, args, result) -> dict | None:
    if span_name == "operators.gradient_operator":
        return _gradient_counts(result)
    if span_name == "operators.apply":
        return _apply_counts(args[0])
    if span_name == "operators.verify_moments":
        return {"verified_nodes": args[0].n}
    if span_name == "io_formats.read_points_csv":
        return {"bytes_read": os.path.getsize(args[0])}
    if span_name in ("io_formats.write_field_csv", "io_formats.write_report"):
        return {"bytes_written": os.path.getsize(args[0])}
    return None


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    group: int
    counts: dict | None = None
    counting: float = 0.0  # time spent computing counts, kept out of the parent's self time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.group = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def new_group(self) -> None:
        self.group += 1

    def _wrap(self, fn, span_name):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(span_name, time.perf_counter(), math.nan, parent, tracer.group)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.counts = _counts(span_name, args, result)
            span.counting = time.perf_counter() - span.end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "dcpse" or name.startswith("dcpse."))
        ]
        for mod_name, fn_name, span_name in TRACED:
            try:
                original = getattr(importlib.import_module(mod_name), fn_name)
            except AttributeError:
                raise LayerMissing(f"{mod_name}.{fn_name} no longer exists") from None
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # aggregation

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start + span.counting
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def require(self, expected) -> None:
        seen = {span.name for span in self.spans}
        missing = sorted(set(expected) - seen)
        if missing:
            raise LayerMissing(f"no span recorded for layer(s): {', '.join(missing)}")

    def per_group(self, groups) -> dict[int, dict]:
        """Per group: summed self time per span name (key 'name'), summed
        counts (key 'count:<counter>'), and the list of apply self times."""
        out = {g: {"apply": []} for g in groups}
        for span, own in zip(self.spans, self.self_times()):
            if span.group not in out:
                continue
            acc = out[span.group]
            acc[span.name] = acc.get(span.name, 0.0) + own
            if span.name == "operators.apply":
                acc["apply"].append((own, span.counts["apply_bytes"]))
            for key, value in (span.counts or {}).items():
                acc["count:" + key] = acc.get("count:" + key, 0) + value
        return out


def median_of(groups: dict[int, dict], fn) -> float:
    """Median of fn(group) over the groups where fn gives a value; 0.0 when
    the workload never exercises that layer."""
    values = [v for v in (fn(g) for g in groups.values()) if v is not None]
    return float(statistics.median(values)) if values else 0.0
