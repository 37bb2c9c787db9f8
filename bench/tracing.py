"""Spans and LAPACK-call counts recorded from outside the library.

`Tracer.install` replaces every public function of rieszlab's modules with a
wrapper that records a span (layer, name, start, end, parent, outcome), in
every module namespace that bound the function: `duals` imports
`riesz_bounds`, `gram` and `rank_tolerance` by name, so patching only the
defining module would miss those calls.  It also wraps numpy's svd, eigvalsh,
solve and lstsq in both `numpy.linalg` and `numpy.linalg._linalg`; the second
hook catches the SVD inside `np.linalg.norm(x, 2)`.  `uninstall` restores the
originals.

Span stacks are per thread because `run_family` evaluates sizes on a pool; a
span opened on a pool thread with an empty stack is parented to the span open
on the client thread, which is `run_family` waiting for its pool.

`layer_metrics` turns the spans into the per-layer metrics, per command.  A
span's self time is its duration minus the union of its children's intervals.
Flop and byte figures are computed from operand shapes and file sizes, not
measured.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np
import numpy.linalg

# numpy >= 2 keeps the implementation in numpy.linalg._linalg, older numpy in numpy.linalg.linalg.
_linalg = getattr(numpy.linalg, "_linalg", None) or numpy.linalg.linalg

KERNELS = ("svd", "eigvalsh", "solve", "lstsq")
LAYERS = ("seqcore", "diagnostics", "duals", "generators", "scaling", "matrixio")
#: Private functions wrapped for the scaling metrics: per-size busy time and pool size.
PRIVATE = {"scaling": ("_evaluate_size", "_worker_count")}
#: Per-cell helpers stay unwrapped: a span per matrix cell would cost more than the cell.
PER_CELL = {"matrixio": ("parse_complex", "format_complex", "format_float")}
MATRIXIO_CATEGORIES = {
    "read_matrix": "read",
    "read_point_set": "read",
    "write_matrix": "write",
    "write_point_set": "write",
    "write_atomic": "write",
    "write_report": "report",
    "report_text": "report",
}
_COMPLEX_FLOP_FACTOR = 4.0

#: Unit of each per-layer metric; the values are per traced command.
PER_LAYER_UNITS = {
    "matrixio.read_ms": "ms/op",
    "matrixio.write_ms": "ms/op",
    "matrixio.report_ms": "ms/op",
    "matrixio.read_mb_per_s": "MB/s",
    "matrixio.write_mb_per_s": "MB/s",
    "kernels.svd_calls": "calls/op",
    "kernels.eigvalsh_calls": "calls/op",
    "kernels.solve_calls": "calls/op",
    "kernels.lstsq_calls": "calls/op",
    "kernels.ms": "ms/op",
    "kernels.distinct_svd_ratio": "ratio",
    "kernels.gflop_computed": "GFLOP/op",
    "seqcore.gram_calls": "calls/op",
    "seqcore.gram_ms": "ms/op",
    "seqcore.rank_calls": "calls/op",
    "diagnostics.classify_ms": "ms/op",
    "diagnostics.self_ms": "ms/op",
    "duals.minimal_dual_calls": "calls/op",
    "duals.dual_yield": "ratio",
    "duals.self_ms": "ms/op",
    "generators.gabor_ms": "ms/op",
    "generators.self_ms": "ms/op",
    "scaling.self_ms": "ms/op",
    "scaling.workers": "threads",
    "scaling.parallel_efficiency": "ratio",
    "cli.self_ms": "ms/op",
    "trace.overhead_ops_per_s": "1/s",
}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "command", "t0", "t1", "ok", "info")

    def __init__(self, span_id, parent, layer, name, command):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.command = command
        self.ok = False
        self.info = None


def _flops(name: str, args, kwargs) -> float:
    """Leading-order real flop count of one LAPACK call, times 4 for complex operands."""
    a = np.asarray(args[0])
    m, n = a.shape[-2:]
    small, large = min(m, n), max(m, n)
    if name == "svd":
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if compute_uv:
            flops = 4 * large**2 * small + 8 * large * small**2 + 9 * small**3
        else:
            flops = 4 * large * small**2 - 4 * small**3 / 3
    elif name == "eigvalsh":
        flops = 4 * n**3 / 3
    else:
        b = np.asarray(args[1])
        rhs = 1 if b.ndim == 1 else b.shape[-1]
        if name == "solve":
            flops = 2 * n**3 / 3 + 2 * n**2 * rhs
        else:
            flops = 4 * large * small**2 - 4 * small**3 / 3 + 2 * m * n * rhs
    complex_operands = any(np.iscomplexobj(x) for x in args[:2])
    return float(flops) * (_COMPLEX_FLOP_FACTOR if complex_operands else 1.0)


def _fingerprint(a: np.ndarray):
    """Cheap identity of a matrix: shape, dtype, a strided sample of at most 64x64 entries and the sum."""
    m, n = a.shape[-2:]
    sample = a[..., :: max(1, m // 64), :: max(1, n // 64)].tobytes()
    return (a.shape, a.dtype.str, hashlib.blake2b(sample, digest_size=16).digest(), complex(a.sum()))


class Tracer:
    """Records spans while installed; one instance per run, installed around each traced cycle."""

    def __init__(self):
        self.spans = []
        self.command = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif stack is not self._client_stack and self._client_stack:
            parent = self._client_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), parent, layer, name, self.command)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span, ok: bool) -> None:
        span.t1 = time.perf_counter()
        span.ok = ok
        self._stack().pop()
        self.spans.append(span)

    def _span_wrapper(self, layer: str, fn):
        name = fn.__name__
        category = MATRIXIO_CATEGORIES.get(name) if layer == "matrixio" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(span, ok)
            if category in ("read", "write") and isinstance(args[0], (str, os.PathLike)):
                span.info = os.path.getsize(args[0])
            elif name == "_worker_count":
                span.info = result
            return result

        return wrapper

    def _kernel_wrapper(self, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = {"flops": _flops(name, args, kwargs)}
            if name == "svd":
                info["key"] = _fingerprint(np.asarray(args[0]))
            span = self._open("kernels", name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(span, ok)
                span.info = info
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        cli = sys.modules["rieszlab.cli"]
        wrappers = {cli.main: self._span_wrapper("cli", cli.main)}
        for layer in LAYERS:
            module = sys.modules[f"rieszlab.{layer}"]
            for name, obj in vars(module).items():
                public = not name.startswith("_") or name in PRIVATE.get(layer, ())
                if name in PER_CELL.get(layer, ()):
                    continue
                if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._span_wrapper(layer, obj)
        packages = [m for n, m in sys.modules.items() if n == "rieszlab" or n.startswith("rieszlab.")]
        for module in packages:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
        for name in KERNELS:
            wrapper = self._kernel_wrapper(getattr(_linalg, name))
            for namespace in (numpy.linalg, _linalg):
                self._patch(namespace, name, wrapper)

    def _patch(self, namespace, name, replacement) -> None:
        self._patches.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            namespace, name, original = self._patches.pop()
            setattr(namespace, name, original)

    def kernel_counts(self) -> dict:
        counts = dict.fromkeys(KERNELS, 0)
        for span in self.spans:
            if span.layer == "kernels":
                counts[span.name] += 1
        return counts


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for start, stop in sorted(intervals):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.t0, span.t1))
    return {
        span.id: (span.t1 - span.t0)
        - _union_length((max(a, span.t0), min(b, span.t1)) for a, b in children[span.id] if b > a)
        for span in spans
    }


def layer_metrics(spans, commands: int) -> dict:
    """Per-layer metrics per command, keyed by the names BENCHMARK.json declares."""
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)
    per_cmd = 1.0 / commands

    def ms(total_seconds):
        return 1e3 * total_seconds * per_cmd

    def has_ancestor(span, predicate):
        parent = by_id.get(span.parent)
        while parent is not None:
            if predicate(parent):
                return True
            parent = by_id.get(parent.parent)
        return False

    def outermost(names):
        found = [s for s in spans if s.name in names]
        return [s for s in found if not has_ancestor(s, lambda p: p.name in names)]

    def duration(group):
        return sum(s.t1 - s.t0 for s in group)

    self_by_layer = defaultdict(float)
    for span in spans:
        self_by_layer[span.layer] += selfs[span.id]

    io_seconds, io_bytes = defaultdict(float), defaultdict(int)
    for span in spans:
        if span.layer == "matrixio" and not has_ancestor(span, lambda p: p.layer == "matrixio"):
            category = MATRIXIO_CATEGORIES.get(span.name)
            if category:
                io_seconds[category] += span.t1 - span.t0
                io_bytes[category] += span.info or 0

    kernels = [s for s in spans if s.layer == "kernels"]
    counts = {name: sum(1 for s in kernels if s.name == name) for name in KERNELS}
    distinct_svd = len({(s.command, s.info["key"]) for s in kernels if s.name == "svd"})

    minimal_duals = [s for s in spans if s.name == "minimal_dual"]
    # _worker_count runs inside run_family: workers times its parent's wall time.
    pool_spans = [s for s in spans if s.name == "_worker_count"]
    worker_counts = [s.info for s in pool_spans]
    pool_capacity = sum(s.info * (by_id[s.parent].t1 - by_id[s.parent].t0) for s in pool_spans)
    size_busy = duration(s for s in spans if s.name == "_evaluate_size")
    rank_names = ("rank_tolerance", "numerical_rank")

    def rate(category):
        seconds = io_seconds[category]
        return io_bytes[category] / 1e6 / seconds if seconds else 0.0

    return {
        "matrixio.read_ms": ms(io_seconds["read"]),
        "matrixio.write_ms": ms(io_seconds["write"]),
        "matrixio.report_ms": ms(io_seconds["report"]),
        "matrixio.read_mb_per_s": rate("read"),
        "matrixio.write_mb_per_s": rate("write"),
        "kernels.svd_calls": counts["svd"] * per_cmd,
        "kernels.eigvalsh_calls": counts["eigvalsh"] * per_cmd,
        "kernels.solve_calls": counts["solve"] * per_cmd,
        "kernels.lstsq_calls": counts["lstsq"] * per_cmd,
        "kernels.ms": ms(duration(kernels)),
        "kernels.distinct_svd_ratio": distinct_svd / counts["svd"] if counts["svd"] else 0.0,
        "kernels.gflop_computed": sum(s.info["flops"] for s in kernels) / 1e9 * per_cmd,
        "seqcore.gram_calls": sum(1 for s in spans if s.name == "gram") * per_cmd,
        "seqcore.gram_ms": ms(duration(outermost({"gram"}))),
        "seqcore.rank_calls": sum(1 for s in spans if s.name in rank_names) * per_cmd,
        "diagnostics.classify_ms": ms(duration(outermost({"classify"}))),
        "diagnostics.self_ms": ms(self_by_layer["diagnostics"]),
        "duals.minimal_dual_calls": len(minimal_duals) * per_cmd,
        "duals.dual_yield": (
            sum(1 for s in minimal_duals if s.ok) / len(minimal_duals) if minimal_duals else 0.0
        ),
        "duals.self_ms": ms(self_by_layer["duals"]),
        "generators.gabor_ms": ms(duration(outermost({"gaussian_gabor"}))),
        "generators.self_ms": ms(self_by_layer["generators"]),
        "scaling.self_ms": ms(self_by_layer["scaling"]),
        "scaling.workers": sum(worker_counts) / len(worker_counts) if worker_counts else 0.0,
        "scaling.parallel_efficiency": size_busy / pool_capacity if pool_capacity else 0.0,
        "cli.self_ms": ms(self_by_layer["cli"]),
    }


def counter_self_check() -> dict:
    """Check that the hooks count direct calls and the SVD inside a 2-norm exactly."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    h = a.conj().T @ a
    tracer = Tracer()
    tracer.install()
    try:
        np.linalg.svd(a, compute_uv=False)
        np.linalg.norm(a, 2)
        np.linalg.eigvalsh(h)
        np.linalg.solve(h, a.conj().T)
        np.linalg.lstsq(a, a[:, 0], rcond=None)
    finally:
        tracer.uninstall()
    counts = tracer.kernel_counts()
    expected = {"svd": 2, "eigvalsh": 1, "solve": 1, "lstsq": 1}
    return {"counts": counts, "expected": expected, "ok": counts == expected}
