"""The benchmark's three workloads and their output checks.

Each workload returns a :class:`Result`: end-to-end metrics from calls
made with tracing off, per-layer metrics from calls made with tracing
on, and a count of attempted and failed operations, where an output
that fails its check counts as failed.

Why these workloads:

- ``fixed_rank`` is the reference point: one large sketch, so the big
  GEMMs, the finiteness scan and CholQR's triangular solves dominate
  while the basis never grows.
- ``fixed_accuracy`` is the paper's fixed-accuracy problem: many small
  panels and a growing basis, so triangular solves, block Gram-Schmidt
  and ``vstack`` show and the finiteness scan barely does.
- ``serve`` is the only path through admission, the queue, the batch
  window, the batcher and matrix materialization; its math per request
  is tiny, so service and threading overheads dominate.
"""

from __future__ import annotations

import asyncio
import copy
import resource
import statistics
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from openloop import Record, open_loop
from spans import Tracer, instrument, layer_totals
from stats import floor_ratio, tail

from repro import adaptive_sampling, random_sampling
from repro.config import AdaptiveConfig, SamplingConfig
from repro.errors import REJECTION_REASONS
from repro.gpu.device import GPUExecutor
from repro.matrices.registry import clear_matrix_cache, matrix_cache_info
from repro.serve import (DecompRequest, LowRankService, MatrixRef,
                         ServeConfig, ServiceCounters, percentile)

#: Set-up is repeated and its median reported, so one slow set-up does
#: not move ``setup_s``.
SETUP_REPS = 3
#: Calls made whatever ``--seconds`` says: the tail rule needs more
#: than ten samples, and the per-layer counts are read from exactly
#: these first calls so they repeat between runs of one seed.
MIN_CALLS = 12
#: The first calls are re-run under tracemalloc for ``peak_alloc_mb``;
#: their mean, since an adaptive solve's peak grows with its final
#: subspace, which differs from call to call.
ALLOC_CALLS = 5
#: Every executor here runs the host NumPy/SciPy math.
BACKEND = "numpy"
#: Bare full-batch GEMM+QR timings taken on each side of serve's timed
#: phases for its ``floor_ratio``.
FLOOR_REPS = 60

clock = time.perf_counter


@dataclass
class Result:
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable lines printed before the JSON result.
    notes: List[str] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)


class AllocPeak:
    """Peak memory allocated inside the block, on top of what was
    allocated before it: tracemalloc sees Python objects and numpy
    arrays from every thread.  Unlike resident memory, this does not
    move with which BLAS buffers and allocator arenas a run happened to
    touch."""

    def __enter__(self) -> "AllocPeak":
        tracemalloc.start()
        self.base = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc) -> None:
        self.mb = (tracemalloc.get_traced_memory()[1] - self.base) / 2**20
        tracemalloc.stop()


def rss_note() -> str:
    """The process's lifetime peak resident memory, for the log."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return f"process peak RSS {peak_mb:.1f} MB (set-up included)"


def _orthonormal(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    return q


def _timed(fn) -> float:
    t0 = clock()
    fn()
    return clock() - t0


#: Independent seed streams drawn from the run seed.
INPUT, CALLS, WARM_UP, FLOOR, REQUESTS = range(5)


def _seed(seed: int, stream: int, i: int = 0) -> int:
    """Seed ``i`` of ``stream``, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, stream, i])
               .generate_state(1)[0])


# --- closed-loop decomposition workloads -------------------------------------

class FixedRank:
    """``random_sampling`` on a 6000 x 3000 matrix, k=50, p=10, q=1."""

    m, n, rank_a = 6000, 3000, 400
    k, p, q = 50, 10, 1
    #: Latency limit behind ``slo_attainment``.
    slo_s = 1.0
    root = "core.random_sampling"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        # A = U diag(s) V^T with s_i = (i+1)^-3 over a rank-400 frame:
        # the power-law spectrum of the paper's Table 1 at a shape whose
        # generation costs well under a second.
        rng = np.random.default_rng(_seed(self.seed, INPUT))
        s = (np.arange(self.rank_a) + 1.0) ** -3
        u = _orthonormal(rng, self.m, self.rank_a)
        v = _orthonormal(rng, self.n, self.rank_a)
        self.a = (u * s) @ v.T
        norm_a = float(np.sqrt(np.sum(s ** 2)))
        self.norm_a = norm_a
        # Best rank-k relative Frobenius error; the randomized interpolative
        # factorization may exceed it by a modest factor (column selection
        # by QRCP), so the check allows 10x.
        self.best_rel = float(np.sqrt(np.sum(s[self.k:] ** 2))) / norm_a
        self.error_bound = 10.0 * self.best_rel
        self._omega = rng.standard_normal((self.k + self.p, self.m))
        self._ap = np.ascontiguousarray(self.a[:, :self.k])
        out = self.call(_seed(self.seed, WARM_UP))
        if not self.check(out)[0]:
            raise RuntimeError("fixed_rank warm-up call failed its check")
        self.floor()

    def call(self, seed: int):
        ex = GPUExecutor(seed=seed, backend=BACKEND)
        cfg = SamplingConfig(rank=self.k, oversampling=self.p,
                             power_iterations=self.q, seed=seed,
                             backend=BACKEND)
        return random_sampling(self.a, cfg, executor=ex)

    def check(self, f) -> Tuple[bool, float]:
        """Q orthonormal and ``||A - Q R P^T||_F / ||A||_F`` under the
        spectrum-derived bound."""
        q = np.asarray(f.q)
        defect = np.max(np.abs(q.T @ q - np.eye(q.shape[1])))
        rp = np.empty_like(f.r)
        rp[:, f.perm] = f.r  # Q R P^T, without gathering columns of A
        sq = 0.0
        for lo in range(0, self.m, 250):  # cache-sized row blocks
            resid = q[lo:lo + 250] @ rp
            np.subtract(self.a[lo:lo + 250], resid, out=resid)
            flat = resid.ravel()
            sq += float(flat @ flat)
        rel = float(np.sqrt(sq)) / self.norm_a
        return bool(defect < 1e-10 and rel <= self.error_bound), rel

    def floor(self) -> float:
        """The call's flop-dominant calls, bare: the sketch, both power
        iteration products and the QR of the selected columns."""
        t0 = clock()
        b = self._omega @ self.a
        c = b @ self.a.T
        c @ self.a
        np.linalg.qr(self._ap)
        return clock() - t0

    def counts(self, f) -> Dict[str, float]:
        return {"gpu.modeled_s": f.seconds}


class FixedAccuracy:
    """``adaptive_sampling`` on 4000 x 800, sigma_i = 10^(-i/20), to
    1e-6 sigma_0, l_inc=16, q=1."""

    m, n = 4000, 800
    tol = 1e-6
    l_inc, q = 16, 1
    slo_s = 2.0
    root = "core.adaptive_sampling"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(_seed(self.seed, INPUT))
        self.s = 10.0 ** (-np.arange(self.n) / 20.0)
        u = _orthonormal(rng, self.m, self.n)
        self.v = _orthonormal(rng, self.n, self.n)
        self.a = (u * self.s) @ self.v.T
        # Rows of Sigma V^T below 1e-3 tol: their part of the error is
        # at most s[self.r] <= 1e-3 tol (see check()).
        self.r = int(np.sum(self.s >= 1e-3 * self.tol))
        self._svt = (self.s[:self.r, None] * self.v[:, :self.r].T)
        out = self.call(_seed(self.seed, WARM_UP))
        if not self.check(out)[0]:
            raise RuntimeError("fixed_accuracy warm-up call failed its "
                               "check")
        # The floor replays the GEMM shapes of the warm-up solve: a
        # sketch per sampled block, power products for all but the last
        # (which only feeds the final error estimate).
        blocks = [self.l_init] + [st.estimator_rows for st in out.steps]
        frng = np.random.default_rng(_seed(self.seed, FLOOR))
        self._omegas = [frng.standard_normal((b, self.m)) for b in blocks]
        self._panels = [frng.standard_normal((b, self.n))
                        for b in blocks[:-1]]
        self.floor()

    @property
    def l_init(self) -> int:
        return AdaptiveConfig(tolerance=self.tol).l_init

    def call(self, seed: int):
        ex = GPUExecutor(seed=seed, backend=BACKEND)
        cfg = AdaptiveConfig(tolerance=self.tol, l_inc=self.l_inc,
                             power_iterations=self.q, seed=seed,
                             backend=BACKEND)
        return adaptive_sampling(self.a, cfg, executor=ex)

    def check(self, res) -> Tuple[bool, float]:
        """The achieved ``||A - A B^T B||_2 / sigma_0`` meets the tolerance.

        With ``A = U Sigma V^T`` and orthonormal ``U``, the error is
        ``||Sigma (V^T - (V^T B^T) B)||_2``.  Its first ``r`` rows give a
        lower bound; the remaining rows add at most ``s[r]``, so
        ``lower + s[r] <= tol`` proves the tolerance met.
        """
        b = np.asarray(res.basis)
        m_r = self._svt - (self._svt @ b.T) @ b
        lower = float(np.linalg.norm(m_r, 2))
        upper = lower + (self.s[self.r] if self.r < self.n else 0.0)
        defect = np.max(np.abs(b @ b.T - np.eye(b.shape[0])))
        ok = res.converged and upper <= self.tol * self.s[0] \
            and defect < 1e-8
        return bool(ok), lower / self.s[0]

    def floor(self) -> float:
        """The solve's flop-dominant calls, bare: every sketch block
        ``Omega_i A`` and both power-iteration products of every
        expanded block, at the warm-up solve's block sizes."""
        t0 = clock()
        for omega in self._omegas:
            omega @ self.a
        for panel in self._panels:
            (panel @ self.a.T) @ self.a
        return clock() - t0

    def counts(self, res) -> Dict[str, float]:
        return {"gpu.modeled_s": res.seconds,
                "core.adaptive.steps": len(res.steps),
                "core.adaptive.subspace": res.subspace_size}


def run_closed(wl, seconds: float, trace: bool) -> Result:
    """One caller, next call after the last returns.  With ``trace``,
    calls alternate untraced/traced so the tracing overhead is the
    ratio of their medians under the same conditions."""
    out = Result()
    setup = [_timed(wl.setup) for _ in range(SETUP_REPS)]
    latencies: Dict[bool, List[float]] = {False: [], True: []}
    attempted = {False: 0, True: 0}
    floors, errors, counts = [], [], []
    deadline = clock() + seconds
    i = 0
    while i < MIN_CALLS or clock() < deadline:
        traced = trace and i % 2 == 1
        seed = _seed(wl.seed, CALLS, i)
        i += 1
        attempted[traced] += 1
        try:
            with instrument(out.tracer) if traced else nullcontext():
                t0 = clock()
                with out.tracer.span(wl.root) if traced else nullcontext():
                    res = wl.call(seed)
                dt = clock() - t0
        except Exception as exc:  # counted, reported, run goes on
            out.failed += 1
            out.notes.append(f"call {i - 1} failed: {exc!r}")
            continue
        ok, err = wl.check(res)
        if not ok:
            out.failed += 1
            out.notes.append(f"call {i - 1} failed its check "
                             f"(error {err:.3e})")
        latencies[traced].append(dt)
        errors.append(err)
        if i <= MIN_CALLS:
            counts.append(wl.counts(res))
        floors.append(wl.floor())
    out.attempted = attempted[False] + attempted[True]
    for key in counts[0]:
        out.layers[key] = sum(c[key] for c in counts) / len(counts)
    if trace:
        _closed_layers(out, wl, latencies)
        return out
    allocs = []
    for i in range(ALLOC_CALLS):
        with AllocPeak() as alloc:
            wl.call(_seed(wl.seed, CALLS, i))
        allocs.append(alloc.mb)
    lat = latencies[False]
    p50 = statistics.median(lat)
    value, pct, n = tail(lat)
    out.e2e = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": p50,
        "latency_tail_s": value,
        "throughput_per_s": len(lat) / sum(lat),
        "floor_ratio": floor_ratio(p50, floors),
        "rel_error": statistics.median(errors),
        "slo_attainment": sum(t <= wl.slo_s for t in lat)
        / attempted[False],
        "success_rate": 1.0 - out.failed / out.attempted,
        "peak_alloc_mb": sum(allocs) / len(allocs),
    }
    out.notes.append(f"latency_tail_s is p{pct:.2f} of {n} calls; "
                     f"slo limit {wl.slo_s} s; floor median "
                     f"{statistics.median(floors):.6f} s; {rss_note()}")
    return out


def _closed_layers(out: Result, wl, latencies) -> None:
    traced = latencies[True]
    n = len(traced)
    totals = _span_layers(out, n, wl.root)
    # The call span is no layer: its self time is the call's wall that
    # no layer below it covers.
    del out.layers[f"{wl.root}.self_s"], out.layers[f"{wl.root}.calls"]
    out.layers["core.unattributed_s"] = totals[wl.root]["self_s"] / n
    out.layers["trace.overhead_frac"] = \
        statistics.median(traced) / statistics.median(latencies[False]) - 1.0


def _span_layers(out: Result, n: int, wall_span: str) -> Dict[str, dict]:
    """Layer metrics from the traced spans, per call or request over
    ``n`` of them; ``trace.call_wall_s`` is the mean wall of the spans
    named ``wall_span``.  Returns the per-name span totals."""
    totals = layer_totals(out.tracer.spans)
    for name, row in totals.items():
        out.layers[f"{name}.self_s"] = row["self_s"] / n
        out.layers[f"{name}.calls"] = row["calls"] / n
    out.layers["gpu.ops_self_s"] = sum(
        row["self_s"] for name, row in totals.items()
        if name.startswith("gpu.")) / n
    gemm = totals.get("backends.gemm")
    if gemm and gemm["self_s"] > 0:
        out.layers["backends.gemm.gflops"] = \
            gemm["flops"] / gemm["self_s"] / 1e9
    trsm = totals.get("backends.solve_triangular")
    if trsm:
        out.layers["backends.solve_triangular.bytes"] = trsm["bytes"] / n
    out.layers["backends.wall_s"] = out.tracer.backend_wall_s() / n
    out.layers["trace.call_wall_s"] = sum(
        s.duration for s in out.tracer.spans if s.name == wall_span) / n
    return totals


# --- open-loop serving workload ----------------------------------------------

class Serve:
    """Open loop at 40 req/s into one batching ``LowRankService``."""

    rate_per_s = 40.0
    m, n = 3000, 640
    ranks = (4, 8)
    p = 4
    slo_s = 0.5
    #: Served results re-run solo and compared bit for bit: this many
    #: of every rank, and more of the middle rank, whose median
    #: relative error is ``rel_error`` (a median over one rank does not
    #: move with the run's rank mix).
    checks_per_rank = 2
    middle_rank = 6
    middle_checks = 60

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ref = MatrixRef("power", self.m, self.n,
                             seed=_seed(seed, INPUT) % 2**31)
        self.rng = np.random.default_rng(_seed(seed, REQUESTS))

    def config(self) -> ServeConfig:
        return ServeConfig(batch_window_s=0.012, max_batch=16,
                           max_queue_depth=1024, backend=BACKEND)

    def requests(self, count: int) -> List[DecompRequest]:
        lo, hi = self.ranks
        return [DecompRequest(matrix=self.ref,
                              rank=int(self.rng.integers(lo, hi + 1)),
                              oversampling=self.p,
                              seed=int(self.rng.integers(2**31)))
                for _ in range(count)]

    def sample_ids(self, reqs: List[DecompRequest]) -> set:
        """The requests whose results are checked (see the counts
        above), chosen from the seeded request stream."""
        seen: Dict[int, int] = {}
        ids = set()
        for req in reqs:
            seen[req.rank] = seen.get(req.rank, 0) + 1
            limit = self.middle_checks if req.rank == self.middle_rank \
                else self.checks_per_rank
            if seen[req.rank] <= limit:
                ids.add(req.request_id)
        return ids

    def check(self, req: DecompRequest, served) -> Tuple[bool, float]:
        """Bit-identical to a solo ``random_sampling`` run of the same
        request (the batcher's contract); also its relative error."""
        a = self.ref.materialize()
        solo = random_sampling(
            a, req.sampling_config(),
            executor=GPUExecutor(seed=req.seed, backend=BACKEND),
            check_finite=False)
        same = (np.array_equal(solo.q, served.q)
                and np.array_equal(solo.r, served.r)
                and np.array_equal(solo.perm, served.perm))
        resid = a[:, served.perm] - served.q @ served.r
        return same, float(np.linalg.norm(resid) / np.linalg.norm(a))

    def floor(self) -> List[float]:
        """One request's share of a full batch's flop-dominant calls,
        bare: the stacked sketch GEMM of ``max_batch`` requests of mixed
        rank plus their column QRs, over ``max_batch``.  Each rep runs on
        a fresh copy of the matrix, as each batch does; a single small
        GEMM on one allocation times too unsteadily between processes
        to divide by."""
        ranks = self.batch_ranks()
        batch = len(ranks)
        omega = self.rng.standard_normal((sum(ranks) + batch * self.p,
                                          self.m))
        times = []
        for _ in range(FLOOR_REPS):
            a = self.ref.materialize()
            panels = [np.ascontiguousarray(a[:, :k]) for k in ranks]
            t0 = clock()
            omega @ a
            for panel in panels:
                np.linalg.qr(panel)
            times.append((clock() - t0) / batch)
        return times

    def batch_ranks(self) -> List[int]:
        """The ranks of a full batch, every rank in turn."""
        lo, hi = self.ranks
        return [lo + i % (hi - lo + 1)
                for i in range(self.config().max_batch)]

    async def burst(self, svc: LowRankService) -> None:
        """One full batch at once."""
        await asyncio.gather(*(
            svc.submit(DecompRequest(matrix=self.ref, rank=k,
                                     oversampling=self.p, seed=i))
            for i, k in enumerate(self.batch_ranks())))

    async def warm_up(self, svc: LowRankService) -> None:
        """One full batch and one lone request."""
        await self.burst(svc)
        await svc.submit(self.requests(1)[0])


@dataclass
class Phase:
    """One open-loop window of serve traffic."""

    records: List[Record]
    #: Relative errors of the checked middle-rank results.
    errors: List[float]
    hit_ratio: float
    #: The service's counters over this window alone.
    counters: ServiceCounters


async def _serve_phase(wl: Serve, svc: LowRankService, seconds: float,
                       tracer: Tracer, traced: bool, out: Result) -> Phase:
    reqs = wl.requests(max(MIN_CALLS, round(wl.rate_per_s * seconds)))
    keep = wl.sample_ids(reqs)

    async def submit(req):
        art = await svc.submit(req)
        if req.request_id not in keep:
            art.payload = None  # keep memory flat over long runs
        return art

    svc.counters.reset()
    cache0 = matrix_cache_info()
    with instrument(tracer) if traced else nullcontext():
        records = await open_loop(submit, reqs, wl.rate_per_s)
    cache1 = matrix_cache_info()
    counters = copy.deepcopy(svc.counters)
    out.attempted += len(records)
    errors = []
    for req, rec in zip(reqs, records):
        if rec.error is not None:
            out.failed += 1
            out.notes.append(f"{req.request_id} failed: {rec.error!r}")
        elif req.request_id in keep:
            same, err = wl.check(req, rec.result.payload)
            if req.rank == wl.middle_rank:
                errors.append(err)
            if not same:
                out.failed += 1
                out.notes.append(f"{req.request_id} differs from its "
                                 f"solo run")
    out.notes.append(f"{len(keep)} served results checked against solo "
                     f"runs")
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    return Phase(records, errors, hits / max(1, hits + misses), counters)


def run_serve(wl: Serve, seconds: float, trace: bool) -> Result:
    return asyncio.run(_run_serve(wl, seconds, trace))


async def _run_serve(wl: Serve, seconds: float, trace: bool) -> Result:
    out = Result()
    setup = []
    svc = None
    try:
        for _ in range(SETUP_REPS):
            if svc is not None:
                await svc.close()
            t0 = clock()
            clear_matrix_cache()
            svc = await LowRankService(wl.config()).start()
            await wl.warm_up(svc)
            setup.append(clock() - t0)
        # The floor brackets the timed phases, so drift in machine speed
        # over the run shows on both sides of the ratio.
        floors = wl.floor()
        # Traced: an untraced quarter, a traced half, an untraced
        # quarter, so drift over the run weighs on both sides of the
        # tracing overhead alike.
        shares = [(False, 0.25), (True, 0.5), (False, 0.25)] if trace \
            else [(False, 1.0)]
        phases = [(traced, await _serve_phase(wl, svc, seconds * share,
                                              out.tracer, traced, out))
                  for traced, share in shares]
        with AllocPeak() as alloc:
            await wl.burst(svc)
        floors += wl.floor()
    finally:
        if svc is not None:
            await svc.close()

    if trace:
        _serve_layers(out, phases)
        return out
    (_, phase), = phases
    records = phase.records
    lat = [r.latency for r in records if r.error is None]
    p50 = statistics.median(lat)
    value, pct, n = tail(lat)
    ok_records = [r for r in records if r.error is None]
    span = max(r.done for r in ok_records) - min(r.due for r in records)
    out.e2e = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": p50,
        "latency_tail_s": value,
        "throughput_per_s": len(ok_records) / span,
        "floor_ratio": floor_ratio(p50, floors),
        "rel_error": statistics.median(phase.errors),
        "slo_attainment": sum(t <= wl.slo_s for t in lat) / len(records),
        "success_rate": 1.0 - out.failed / out.attempted,
        "peak_alloc_mb": alloc.mb,
    }
    out.notes.append(
        f"latency_tail_s is p{pct:.2f} of {n} requests; slo limit "
        f"{wl.slo_s} s; generator lag p99 "
        f"{percentile([r.lag for r in records], 99.0):.6f} s; "
        f"floor median {statistics.median(floors):.6f} s; {rss_note()}")
    return out


def _serve_layers(out: Result, phases: List[Tuple[bool, Phase]]) -> None:
    """Layer metrics of the traced window; its counters were copied
    when it ended, before any later traffic."""
    (traced,) = [phase for is_traced, phase in phases if is_traced]
    untraced = [r for is_traced, phase in phases if not is_traced
                for r in phase.records]
    records, counters = traced.records, traced.counters
    _span_layers(out, len(records), "serve.run_jobs")
    waits = counters.queue_waits_s
    out.layers.update({
        "serve.queue_wait_p50_s": percentile(waits, 50.0),
        "serve.queue_wait_p99_s": percentile(waits, 99.0),
        "serve.occupancy_mean": counters.mean_occupancy,
        "serve.rejected": sum(counters.rejections.values()),
        "serve.gen_lag_p99_s": percentile([r.lag for r in records], 99.0),
        "matrices.cache_hit_ratio": traced.hit_ratio,
        "trace.overhead_frac": statistics.median(
            [r.latency for r in records])
        / statistics.median([r.latency for r in untraced]) - 1.0,
    })
    for reason in REJECTION_REASONS:
        out.layers[f"serve.rejected.{reason}"] = counters.rejections[reason]
    out.notes.append("tracing overhead: the traced middle half against "
                     "the untraced first and last quarters")


#: Workload name -> (workload class, runner).
WORKLOADS = {
    "fixed_rank": (FixedRank, run_closed),
    "fixed_accuracy": (FixedAccuracy, run_closed),
    "serve": (Serve, run_serve),
}
