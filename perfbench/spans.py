"""Spans recorded around the program's layers, from outside the program.

:func:`instrument` swaps wrappers onto the public functions of each
layer for the duration of a ``with`` block and puts the originals back
on exit.  Each wrapped call records one :class:`Span` (name, start,
end, parent) in memory; :func:`write_chrome_trace` writes them out at
the end in the Chrome trace-event format, which Perfetto and
``chrome://tracing`` open.

Layers and the span names they record:

- ``backends.<kernel>``: the public kernels of
  ``repro.backends.base.ComputeBackend``;
- ``gpu.<op>``: the operations of ``repro.gpu.device.NumpyExecutor``
  (inherited by ``GPUExecutor``);
- ``qr.ensure_all_finite``: the finiteness scan as bound in
  ``repro.core.random_sampling`` and ``repro.core.adaptive``;
- ``serve.run_jobs`` and ``serve.materialize``: the batch executor as
  the service calls it, and ``MatrixRef.materialize``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from stats import covered

BACKEND_KERNELS = ("gemm", "cholesky", "solve_triangular", "svd", "qr",
                   "lstsq", "row_norms", "norm", "fft")
EXECUTOR_OPS = ("to_device", "to_host", "prng_gaussian", "sample_gemm",
                "sample_gemm_stacked", "fft_sample", "iter_gemm_at",
                "iter_gemm_a", "orth_rows", "block_orth_rows",
                "qrcp_sampled", "take_columns", "qr_selected",
                "solve_upper", "assemble_r", "estimate_error", "vstack",
                "gemm", "svd_small", "row_norms")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread",
                 "flops", "nbytes")

    def __init__(self, id: int, parent: Optional[int], name: str,
                 start: float, end: float, thread: int,
                 flops: float = 0.0, nbytes: float = 0.0) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.flops = flops
        self.nbytes = nbytes

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; one parent stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.spans: List[Span] = []
        self.clock = clock
        # next() on a count and list.append are single bytecode-level
        # operations under the GIL, so worker threads may record too.
        self._ids = itertools.count()
        self._local = threading.local()
        #: Backend instances seen by a kernel span -> their
        #: ``stats.wall_seconds`` when first seen.
        self.backend_walls0: Dict[int, tuple] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, flops: float = 0.0,
             nbytes: float = 0.0) -> Iterator[None]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end,
                                   threading.get_ident(), flops, nbytes))

    def wrap(self, name: str, fn: Callable,
             cost: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``cost(*args, **kwargs)``
        gives the call's ``(flops, bytes)`` from its operand shapes."""
        def traced(*args, **kwargs):
            flops, nbytes = cost(*args, **kwargs) if cost else (0.0, 0.0)
            with self.span(name, flops, nbytes):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def note_backend(self, backend) -> None:
        if id(backend) not in self.backend_walls0:
            self.backend_walls0[id(backend)] = (
                backend, backend.stats.wall_seconds)

    def backend_wall_s(self) -> float:
        """``BackendStats.wall_seconds`` accrued since each backend was
        first seen: the program's own kernel clock, to cross-check the
        kernel spans against."""
        return sum(b.stats.wall_seconds - w0
                   for b, w0 in self.backend_walls0.values())


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children[s.id])
            for s in spans}


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, call count, flops and bytes."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "flops": 0.0, "bytes": 0.0})
    for s in spans:
        row = out[s.name]
        row["self_s"] += own[s.id]
        row["calls"] += 1
        row["flops"] += s.flops
        row["bytes"] += s.nbytes
    return dict(out)


def _gemm_cost(a, b):
    m, k = a.shape
    n = b.shape[1] if b.ndim == 2 else 1
    return 2.0 * m * n * k, 8.0 * (a.size + b.size + m * n)


def _trsm_cost(r, b, *args, **kwargs):
    n = r.shape[0]
    cols = b.shape[1] if b.ndim == 2 else 1
    # Read the triangle and the right-hand side, write the solution.
    return float(n * n * cols), 8.0 * (n * (n + 1) / 2 + 2 * b.size)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Record spans around every traced layer until the block exits."""
    from repro.backends.base import ComputeBackend
    from repro.gpu.device import NumpyExecutor
    from repro.serve.request import MatrixRef

    # Modules by name: ``repro.core`` re-exports functions that shadow
    # the submodule attributes of the same name.
    random_sampling, adaptive, service = (
        importlib.import_module(m) for m in (
            "repro.core.random_sampling", "repro.core.adaptive",
            "repro.serve.service"))

    def backend_cost(kernel):
        shape_cost = {"gemm": _gemm_cost,
                      "solve_triangular": _trsm_cost}.get(kernel)

        def cost(backend, *args, **kwargs):
            tracer.note_backend(backend)
            return shape_cost(*args, **kwargs) if shape_cost else (0.0, 0.0)
        return cost

    patches = [(ComputeBackend, k, f"backends.{k}", backend_cost(k))
               for k in BACKEND_KERNELS]
    patches += [(NumpyExecutor, op, f"gpu.{op}", None)
                for op in EXECUTOR_OPS]
    patches += [(random_sampling, "ensure_all_finite",
                 "qr.ensure_all_finite", None),
                (adaptive, "ensure_all_finite", "qr.ensure_all_finite",
                 None),
                (service, "run_jobs", "serve.run_jobs", None),
                (MatrixRef, "materialize", "serve.materialize", None)]
    saved = []
    try:
        for owner, attr, name, cost in patches:
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, cost))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_chrome_trace(path: str, spans: List[Span],
                       metadata: Optional[dict] = None) -> int:
    """Write ``spans`` as Chrome trace events; returns the event count.

    Each span is a complete (``X``) event on its thread's track, with
    its id, parent and any computed flops/bytes in ``args``.
    """
    from repro.obs.chrome import chrome_document, validate_chrome_trace

    t0 = min((s.start for s in spans), default=0.0)
    tids: Dict[int, int] = {}
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": "perfbench"}}]
    for s in spans:
        if s.thread not in tids:
            tids[s.thread] = len(tids)
            events.append({"ph": "M", "pid": 1, "tid": tids[s.thread],
                           "name": "thread_name",
                           "args": {"name": f"thread-{tids[s.thread]}"}})
    for s in sorted(spans, key=lambda s: s.start):
        args = {"id": s.id, "parent": s.parent}
        if s.flops:
            args["flops"] = s.flops
        if s.nbytes:
            args["bytes"] = s.nbytes
        events.append({"ph": "X", "pid": 1, "tid": tids[s.thread],
                       "name": s.name, "cat": s.name.split(".")[0],
                       "ts": (s.start - t0) * 1e6,
                       "dur": s.duration * 1e6, "args": args})
    validate_chrome_trace(events)
    doc = chrome_document(events)
    if metadata:
        doc["metadata"] = metadata
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return len(events)
