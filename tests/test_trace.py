"""Tests for the per-phase ledger of modeled time (``SimulatedGPU``)
and its two views: the attached ``SpanRecorder`` and the Chrome-trace
export of ``repro.obs.chrome``."""

import json

import pytest

from repro import GPUExecutor, SamplingConfig, SymArray, random_sampling
from repro.errors import ConfigurationError
from repro.gpu.device import NumpyExecutor, SimulatedGPU
from repro.gpu.multigpu import MultiGPUExecutor
from repro.gpu.trace import PHASES
from repro.obs.chrome import spans_to_chrome, validate_chrome_trace
from repro.obs.spans import PhaseCounter, SpanRecorder


def _recorded_gpu():
    gpu = SimulatedGPU()
    rec = SpanRecorder()
    gpu.attach_recorder(rec)
    return gpu, rec


class TestPhase:
    def test_add_accumulates(self):
        p = PhaseCounter()
        p.add(0.5, flops=1.0, bytes_moved=2.0)
        p.add(0.25, flops=3.0, bytes_moved=4.0)
        assert p.seconds == pytest.approx(0.75)
        assert p.calls == 2
        assert (p.flops, p.bytes_moved) == (4.0, 6.0)


class TestTimeLine:
    """The ledger on ``SimulatedGPU``: validation, totals, legend order."""

    def test_empty_total_zero(self):
        assert SimulatedGPU().elapsed == 0.0
        assert GPUExecutor(seed=0).seconds == 0.0

    def test_charge_and_total(self):
        gpu = SimulatedGPU()
        gpu.charge("sampling", 0.1)
        gpu.charge("qrcp", 0.2)
        assert gpu.elapsed == pytest.approx(0.3)
        assert gpu.breakdown()["sampling"] == pytest.approx(0.1)

    def test_calls_counted(self):
        gpu, rec = _recorded_gpu()
        gpu.charge("prng", 0.01)
        gpu.charge("prng", 0.01)
        assert rec.counters["prng"].calls == 2

    def test_events_logged_in_order(self):
        gpu, rec = _recorded_gpu()
        gpu.charge("prng", 0.01, label="a")
        gpu.charge("qr", 0.02, label="b")
        assert [s.name for s in rec.kernel_spans()] == ["a", "b"]

    def test_unknown_phase_raises(self):
        gpu, rec = _recorded_gpu()
        with pytest.raises(ConfigurationError, match="unknown phase"):
            gpu.charge("nope", 1.0)
        with pytest.raises(ConfigurationError, match="unknown phase"):
            gpu.book("nope", 1.0)
        assert gpu.elapsed == 0.0
        assert list(rec.kernel_spans()) == []

    def test_negative_time_raises(self):
        gpu, rec = _recorded_gpu()
        with pytest.raises(ConfigurationError, match="negative"):
            gpu.charge("qr", -1.0)
        assert gpu.elapsed == 0.0
        assert list(rec.kernel_spans()) == []

    def test_breakdown_covers_all_phases(self):
        assert tuple(SimulatedGPU().breakdown()) == PHASES
        assert tuple(GPUExecutor(seed=0).breakdown()) == PHASES
        assert tuple(MultiGPUExecutor(ng=2, seed=0).breakdown()) == PHASES
        assert NumpyExecutor(seed=0).breakdown() == {p: 0.0 for p in PHASES}

    def test_reset_zeroes_ledger_in_place(self):
        gpu = SimulatedGPU()
        gpu.charge("qr", 1.0)
        before = gpu.breakdown()
        gpu.reset()
        assert gpu.elapsed == 0.0
        assert gpu.breakdown() == {p: 0.0 for p in PHASES}
        assert before["qr"] == 1.0  # breakdown() returns a copy


def _fig15_run(ex):
    cfg = SamplingConfig(rank=54, oversampling=10, power_iterations=1,
                         seed=0)
    return random_sampling(SymArray((150_000, 2_500)), cfg, executor=ex)


class TestLedgerMatchesRecorder:
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("ng", [1, 2, 3])
    def test_breakdown_equals_accounted_spans(self, ng, overlap):
        ex = MultiGPUExecutor(ng=ng, seed=0, overlap=overlap)
        rec = SpanRecorder()
        ex.attach_recorder(rec)
        res = _fig15_run(ex)
        accounted = {p: 0.0 for p in PHASES}
        for span in rec.kernel_spans():
            if span.accounted:
                accounted[span.phase] += span.duration
        assert ex.breakdown() == accounted
        assert res.breakdown == accounted
        assert {p: c.seconds for p, c in rec.counters.items()} == {
            p: s for p, s in accounted.items() if p in rec.counters}

    def test_reset_clock_replays_identically(self):
        ex = MultiGPUExecutor(ng=3, seed=0)
        first = _fig15_run(ex)
        ex.reset_clock()
        assert ex.breakdown() == {p: 0.0 for p in PHASES}
        assert ex.seconds == 0.0
        second = _fig15_run(ex)
        assert second.breakdown == first.breakdown
        assert second.seconds == first.seconds


class TestChromeTrace:
    def test_events_serializable_and_sequential(self):
        gpu, rec = _recorded_gpu()
        gpu.charge("sampling", 0.5, label="gemm A")
        gpu.charge("qrcp", 0.25, label="qp3 B")
        trace = spans_to_chrome(rec)
        json.dumps(trace)
        xs = [e for e in trace if e["ph"] == "X" and e["pid"] == 0
              and e["tid"] != 0]
        assert [e["name"] for e in xs] == ["gemm A", "qp3 B"]
        assert xs[0]["ts"] == 0.0
        assert xs[0]["dur"] == pytest.approx(5e5)
        assert xs[1]["ts"] == pytest.approx(5e5)  # starts after event 0

    def test_thread_metadata_per_phase(self):
        trace = spans_to_chrome(SpanRecorder())
        names = {e["args"]["name"] for e in trace
                 if e.get("name") == "thread_name"}
        assert names == set(PHASES) | {"run"}

    def test_real_run_trace(self):
        ex = GPUExecutor(seed=0)
        rec = SpanRecorder()
        ex.attach_recorder(rec)
        random_sampling(SymArray((10_000, 1_000)),
                        SamplingConfig(rank=20, power_iterations=1,
                                       seed=0), executor=ex)
        trace = spans_to_chrome(rec)
        validate_chrome_trace(trace)
        kernels = [e for e in trace if e["ph"] == "X" and "args" in e
                   and "flops" in e["args"]]
        assert {"sampling", "gemm_iter", "qrcp", "qr"} <= {
            e["cat"] for e in kernels}
        assert sum(e["dur"] for e in kernels) == pytest.approx(
            ex.seconds * 1e6)
