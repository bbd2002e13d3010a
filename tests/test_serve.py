"""Tests of the serving layer: requests, admission, batching, service.

The load-bearing assertion is *bit parity*: results served from a
coalesced batch must equal (``np.array_equal``, not allclose) the
factors a solo run of the same request produces.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core.random_sampling import random_sampling
from repro.errors import (ConfigurationError, DeadlineExceededError,
                          InvalidRequestError, QueueFullError,
                          REJECTION_REASONS, ServiceClosedError)
from repro.obs.chrome import spans_to_chrome, validate_chrome_trace
from repro.serve import (AdmissionController, BatchPlan, DecompRequest,
                         LowRankService, MatrixRef, ResultArtifact,
                         ServeConfig, ServiceCounters, percentile,
                         plan_batches, run_jobs)
from repro.obs.spans import SpanRecorder

REF = MatrixRef(name="power", m=400, n=96, seed=3)


def req(rank=12, **kw):
    kw.setdefault("oversampling", 6)
    return DecompRequest(matrix=REF, rank=rank, **kw)


# ----------------------------------------------------------------------
# requests and validation
# ----------------------------------------------------------------------
class TestRequestValidation:
    def test_unknown_matrix_rejected(self):
        with pytest.raises(InvalidRequestError):
            MatrixRef(name="nope", m=10, n=10)

    def test_fixed_rank_needs_rank(self):
        with pytest.raises(InvalidRequestError):
            DecompRequest(matrix=REF)

    def test_adaptive_needs_tolerance(self):
        with pytest.raises(InvalidRequestError):
            DecompRequest(matrix=REF, algorithm="adaptive")

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidRequestError):
            DecompRequest(matrix=REF, algorithm="qp3", rank=5)

    def test_oversized_sample_rejected(self):
        with pytest.raises(InvalidRequestError):
            DecompRequest(matrix=REF, rank=398, oversampling=10)

    def test_invalid_is_also_valueerror(self):
        # The taxonomy plays nicely with generic ValueError handlers.
        with pytest.raises(ValueError):
            DecompRequest(matrix=REF, rank=0)

    def test_batch_key_compatibility(self):
        a, b = req(rank=8, seed=1), req(rank=14, seed=2)
        assert a.batch_key == b.batch_key  # ranks/seeds may differ
        assert req(sampler="fft").batch_key is None
        other = DecompRequest(matrix=MatrixRef(name="power", m=401, n=96),
                              rank=8)
        assert other.batch_key != a.batch_key
        adaptive = DecompRequest(matrix=REF, algorithm="adaptive",
                                 tolerance=1e-3)
        assert adaptive.batch_key is None

    def test_request_ids_unique(self):
        ids = {req().request_id for _ in range(50)}
        assert len(ids) == 50

    def test_artifact_to_dict_excludes_payload(self):
        art = ResultArtifact(request_id="r", algorithm="fixed_rank",
                             payload=object())
        doc = art.to_dict()
        assert "payload" not in doc
        assert doc["version"] == 1
        assert doc["timings"]["modeled_seconds"] == 0.0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_percentile_nearest_rank(self):
        xs = [float(i) for i in range(1, 101)]
        assert percentile(xs, 50.0) == 50.0
        assert percentile(xs, 99.0) == 99.0
        assert percentile(xs, 100.0) == 100.0
        assert percentile(xs, 0.0) == 1.0
        assert percentile([], 99.0) == 0.0
        with pytest.raises(ConfigurationError):
            percentile(xs, 101.0)

    def test_counters_taxonomy_complete(self):
        c = ServiceCounters()
        for reason in REJECTION_REASONS:
            c.note_rejected(reason)
        assert sum(c.rejections.values()) == len(REJECTION_REASONS)
        with pytest.raises(ConfigurationError):
            c.note_rejected("martian")

    def test_counters_reset(self):
        c = ServiceCounters()
        c.note_submitted()
        c.note_batch(4)
        c.note_completed(0.5, 0.1)
        c.reset()
        assert c.submitted == 0 and c.batches == 0
        assert c.summary()["latency_p99_s"] == 0.0

    def test_occupancy(self):
        c = ServiceCounters()
        c.note_batch(1)
        c.note_batch(7)
        assert c.mean_occupancy == 4.0
        assert c.max_occupancy == 7
        assert c.coalesced_requests == 7


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_full_sheds(self):
        ctl = AdmissionController(capacity=2)
        ctl.admit(req(), depth=1)
        with pytest.raises(QueueFullError) as ei:
            ctl.admit(req(), depth=2)
        assert ei.value.depth == 2 and ei.value.capacity == 2
        assert ei.value.reason == "queue_full"
        assert ctl.counters.rejections["queue_full"] == 1

    def test_closed_rejects(self):
        ctl = AdmissionController(capacity=2)
        ctl.close()
        with pytest.raises(ServiceClosedError):
            ctl.admit(req(), depth=0)
        assert ctl.counters.rejections["closed"] == 1

    def test_effective_deadline_falls_back(self):
        ctl = AdmissionController(capacity=1, default_deadline_s=2.0)
        assert ctl.effective_deadline_s(req()) == 2.0
        assert ctl.effective_deadline_s(req(deadline_s=0.5)) == 0.5


# ----------------------------------------------------------------------
# batch planning
# ----------------------------------------------------------------------
class TestPlanBatches:
    def test_groups_by_compatibility(self):
        other_ref = MatrixRef(name="power", m=500, n=96, seed=3)
        r1, r2 = req(seed=1), req(seed=2)
        r3 = DecompRequest(matrix=other_ref, rank=10)
        r4 = DecompRequest(matrix=REF, algorithm="adaptive",
                           tolerance=1e-3)
        r5 = req(seed=5)
        plans = plan_batches([r1, r2, r3, r4, r5])
        sizes = [(p.size, p.coalesced) for p in plans]
        assert sizes == [(3, True), (1, False), (1, False)]
        assert [r.request_id for r in plans[0].requests] == \
            [r1.request_id, r2.request_id, r5.request_id]

    def test_max_batch_chunks(self):
        reqs = [req(seed=i) for i in range(7)]
        plans = plan_batches(reqs, max_batch=3)
        assert [p.size for p in plans] == [3, 3, 1]
        assert plans[0].coalesced and not plans[2].coalesced

    def test_mismatched_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchPlan([req()], key=None)


# ----------------------------------------------------------------------
# bit parity: coalesced == solo
# ----------------------------------------------------------------------
class TestBitParity:
    def test_run_jobs_coalesced_matches_solo(self):
        reqs = [req(rank=8 + i, seed=10 + i) for i in range(5)]
        plan = plan_batches(reqs)[0]
        assert plan.coalesced
        results = run_jobs(plan)
        a = REF.materialize()
        for r in reqs:
            art = results[r.request_id]
            assert isinstance(art, ResultArtifact)
            solo = random_sampling(a, r.sampling_config())
            assert np.array_equal(art.payload.q, solo.q)
            assert np.array_equal(art.payload.r, solo.r)
            assert np.array_equal(art.payload.perm, solo.perm)
            assert art.batch == {"batch_id": plan.batch_id, "size": 5,
                                 "coalesced": True}

    def test_sample_size_above_n_matches_solo(self):
        # l = 90 + 10 > n = 96: the batcher draws the clamped Omega a
        # solo run draws.
        reqs = [req(rank=90, oversampling=10, power_iterations=1, seed=1),
                req(rank=12, power_iterations=1, seed=2)]
        plan = plan_batches(reqs)[0]
        assert plan.coalesced
        results = run_jobs(plan)
        a = REF.materialize()
        for r in reqs:
            art = results[r.request_id]
            assert isinstance(art, ResultArtifact), art
            solo = random_sampling(a, r.sampling_config())
            assert np.array_equal(art.payload.q, solo.q)
            assert np.array_equal(art.payload.r, solo.r)
        assert reqs[0].sample_size == 96

    def test_service_batched_matches_solo(self):
        async def drive():
            cfg = ServeConfig(batch_window_s=0.05, max_batch=8)
            async with LowRankService(cfg) as svc:
                reqs = [req(rank=9 + i, seed=20 + i) for i in range(4)]
                return reqs, await asyncio.gather(
                    *(svc.submit(r) for r in reqs))
        reqs, arts = asyncio.run(drive())
        assert any(a.batch["coalesced"] for a in arts)
        a = REF.materialize()
        for r, art in zip(reqs, arts):
            solo = random_sampling(a, r.sampling_config())
            assert np.array_equal(art.payload.q, solo.q)
            assert np.array_equal(art.payload.r, solo.r)

    def test_modeled_share_sums_to_batch(self):
        reqs = [req(rank=8, seed=1), req(rank=16, seed=2)]
        plan = plan_batches(reqs)[0]
        results = run_jobs(plan)
        arts = [results[r.request_id] for r in reqs]
        # Sampling shares are proportional to each rider's l.
        s0 = arts[0].breakdown["sampling"]
        s1 = arts[1].breakdown["sampling"]
        l0, l1 = reqs[0].sample_size, reqs[1].sample_size
        assert s0 > 0 and s1 > 0
        assert s0 / s1 == pytest.approx(l0 / l1)


# ----------------------------------------------------------------------
# service behavior: deadlines, cancellation, shedding
# ----------------------------------------------------------------------
class TestServiceContracts:
    def test_deadline_expires_inside_batch_window(self):
        async def drive():
            # Window far longer than the deadline: the request dies
            # waiting for batch-mates that never come.
            cfg = ServeConfig(batch_window_s=2.0)
            async with LowRankService(cfg) as svc:
                with pytest.raises(DeadlineExceededError) as ei:
                    await svc.submit(req(deadline_s=0.05))
                assert ei.value.reason == "deadline"
                assert svc.counters.rejections["deadline"] == 1
        asyncio.run(drive())

    def test_cancellation_mid_batch(self):
        async def drive():
            cfg = ServeConfig(batch_window_s=0.2, max_batch=4)
            async with LowRankService(cfg) as svc:
                keep = [req(rank=10, seed=31), req(rank=11, seed=32)]
                victim = req(rank=12, seed=33)
                tasks = [asyncio.ensure_future(svc.submit(r))
                         for r in keep]
                victim_task = asyncio.ensure_future(svc.submit(victim))
                await asyncio.sleep(0.05)  # all three are in the window
                victim_task.cancel()
                arts = await asyncio.gather(*tasks)
                with pytest.raises(asyncio.CancelledError):
                    await victim_task
                assert svc.counters.rejections["cancelled"] == 1
                # Survivors still complete, still bit-identical.
                a = REF.materialize()
                for r, art in zip(keep, arts):
                    solo = random_sampling(a, r.sampling_config())
                    assert np.array_equal(art.payload.q, solo.q)
        asyncio.run(drive())

    def test_queue_full_at_service_level(self, monkeypatch):
        import repro.serve.service as service_mod
        real = service_mod.run_jobs

        def slow_run_jobs(*args, **kwargs):
            time.sleep(0.25)  # keep the worker busy while we submit
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "run_jobs", slow_run_jobs)

        async def drive():
            cfg = ServeConfig(max_queue_depth=1, batch_window_s=0.0)
            async with LowRankService(cfg) as svc:
                t1 = asyncio.ensure_future(svc.submit(req(seed=41)))
                await asyncio.sleep(0.1)  # dispatched; worker sleeping
                t2 = asyncio.ensure_future(svc.submit(req(seed=42)))
                await asyncio.sleep(0.05)  # sits queued at depth 1
                with pytest.raises(QueueFullError):
                    await svc.submit(req(seed=43))
                assert svc.counters.rejections["queue_full"] == 1
                await asyncio.gather(t1, t2)
        asyncio.run(drive())

    def test_submit_after_close_rejected(self):
        async def drive():
            svc = LowRankService(ServeConfig())
            await svc.start()
            await svc.close()
            with pytest.raises(ServiceClosedError):
                await svc.submit(req())
        asyncio.run(drive())

    def test_adaptive_and_cholqr_serve_solo(self):
        async def drive():
            async with LowRankService(ServeConfig(
                    batch_window_s=0.01)) as svc:
                adaptive = DecompRequest(matrix=REF, algorithm="adaptive",
                                         tolerance=1e-2, seed=5)
                chol = DecompRequest(matrix=REF, algorithm="cholqr")
                a1, a2 = await asyncio.gather(svc.submit(adaptive),
                                              svc.submit(chol))
                assert a1.algorithm == "adaptive"
                assert not a1.batch["coalesced"]
                assert a1.factors["subspace_size"] > 0
                assert a2.factors["q_shape"] == [400, 96]
        asyncio.run(drive())


# ----------------------------------------------------------------------
# span labels under concurrency (satellite 4)
# ----------------------------------------------------------------------
class TestSpanLabels:
    def test_labelled_context_merges_and_restores(self):
        rec = SpanRecorder()
        with rec.labelled("a"):
            with rec.labelled("b", "a"):
                rec.record_kernel("prng", "k", 0.1, labels=["c"])
            rec.record_kernel("prng", "k2", 0.1)
        rec.record_kernel("prng", "k3", 0.1)
        kernels = list(rec.kernel_spans())
        assert kernels[0].labels == ("a", "b", "c")
        assert kernels[1].labels == ("a",)
        assert kernels[2].labels == ()

    def test_no_span_interleaving_under_concurrent_submits(self):
        async def drive():
            cfg = ServeConfig(batch_window_s=0.05, max_batch=8)
            async with LowRankService(cfg) as svc:
                reqs = [req(rank=8 + i, seed=50 + i) for i in range(5)]
                await asyncio.gather(*(svc.submit(r) for r in reqs))
                return svc, reqs
        svc, reqs = asyncio.run(drive())
        ids = {r.request_id for r in reqs}
        runs = svc.recorder.spans()
        by_name = {r.name: r for r in runs}
        assert ids <= set(by_name)
        for rid in ids:
            run = by_name[rid]
            for span in run.walk():
                if span.kind == "kernel":
                    # Every kernel inside a request's run span belongs
                    # to that request alone — no cross-talk.
                    assert span.labels == (rid,), (rid, span.name)
        # The batch run holds the shared GEMM, labelled with every
        # rider, plus each rider's own prng draw.
        batch_runs = [r for r in runs if r.name not in ids]
        assert len(batch_runs) == 1
        gemms = [s for s in batch_runs[0].walk()
                 if s.kind == "kernel" and s.phase == "sampling"]
        assert len(gemms) == 1
        assert set(gemms[0].labels) == ids
        prngs = [s for s in batch_runs[0].walk()
                 if s.kind == "kernel" and s.phase == "prng"]
        assert sorted(s.labels[0] for s in prngs) == sorted(ids)

    def test_chrome_export_carries_labels(self):
        rec = SpanRecorder()
        with rec.labelled("req-x"), rec.run_span("req-x"):
            rec.record_kernel("sampling", "gemm", 0.2)
        events = spans_to_chrome(rec)
        validate_chrome_trace(events)
        tagged = [e for e in events
                  if e.get("args", {}).get("labels") == ["req-x"]]
        # run span, step span, and the kernel all carry the label
        assert len(tagged) == 3
