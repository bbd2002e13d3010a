"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from openloop import open_loop  # noqa: E402
from spans import Tracer, instrument, layer_totals, self_times  # noqa: E402
from stats import covered, floor_ratio, quartile_spread, tail  # noqa: E402


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
        tr = Tracer(clock=scripted_clock([0, 1, 2, 3, 4, 5, 9, 10]))
        with tr.span("root"):
            with tr.span("a"):
                with tr.span("a1"):
                    pass
            with tr.span("b"):
                pass
        by_name = {s.name: s for s in tr.spans}
        own = self_times(tr.spans)
        assert own[by_name["root"].id] == 3
        assert own[by_name["a"].id] == 2
        assert own[by_name["a1"].id] == 1
        assert own[by_name["b"].id] == 4
        assert by_name["a1"].parent == by_name["a"].id
        assert by_name["root"].parent is None
        assert sum(own.values()) == by_name["root"].duration

    def test_overlapping_children_are_counted_once(self):
        assert covered(0, 10, [(1, 4), (3, 6), (8, 12)]) == 7
        assert covered(0, 10, []) == 0
        assert covered(0, 10, [(-5, 20)]) == 10

    def test_layer_totals_sum_by_name(self):
        tr = Tracer(clock=scripted_clock([0, 1, 2, 3, 4, 10]))
        with tr.span("root"):
            for _ in range(2):
                with tr.span("k"):
                    pass
        totals = layer_totals(tr.spans)
        assert totals["k"]["calls"] == 2
        assert totals["k"]["self_s"] == 2
        assert totals["root"]["self_s"] == 8

    def test_wrap_records_cost_and_returns(self):
        tr = Tracer()
        f = tr.wrap("f", lambda x: 2 * x, cost=lambda x: (x, 8.0 * x))
        assert f(3) == 6
        (span,) = tr.spans
        assert (span.name, span.flops, span.nbytes) == ("f", 3, 24.0)


class TestTail:
    def test_highest_percentile_with_ten_beyond(self):
        value, pct, n = tail(list(range(1, 101)))
        assert (value, pct, n) == (90, 90.0, 100)

    def test_order_does_not_matter(self):
        values = list(range(1, 41))
        np.random.default_rng(0).shuffle(values)
        value, pct, n = tail(values)
        assert (value, pct, n) == (30, 75.0, 40)

    def test_smallest_sample_that_supports_a_tail(self):
        assert tail(list(range(11))) == (0, 100.0 / 11, 11)
        with pytest.raises(ValueError):
            tail(list(range(10)))


class TestFloorRatio:
    def test_divides_by_the_median_floor(self):
        assert floor_ratio(0.3, [0.1, 0.2, 0.15]) == pytest.approx(2.0)

    def test_rejects_a_zero_floor(self):
        with pytest.raises(ValueError):
            floor_ratio(0.3, [0.0])

    def test_quartile_spread(self):
        assert quartile_spread([1.0] * 10) == 0.0
        assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(
            (4.5 - 1.5) / 3)


class TestOpenLoop:
    def test_latency_counts_from_due_time(self):
        stall = 0.05

        async def submit(i):
            if i == 0:
                time.sleep(stall)  # blocks the loop: later sends go late
            return i

        records = asyncio.run(open_loop(submit, [0, 1, 2], 100.0))
        assert [r.result for r in records] == [0, 1, 2]
        # Request 1 was due 10 ms after request 0 but could only be sent
        # once the stall ended; its latency includes that wait.
        late = records[1]
        assert late.lag >= stall - 0.01 - 0.002
        assert late.latency >= late.lag
        assert late.done - late.sent < late.latency
        assert records[0].latency >= stall

    def test_errors_are_recorded(self):
        async def submit(i):
            raise RuntimeError("boom")

        (rec,) = asyncio.run(open_loop(submit, [0], 100.0))
        assert isinstance(rec.error, RuntimeError) and rec.result is None


class TestInstrument:
    def test_spans_account_for_a_real_call_and_are_removed(self):
        from repro import random_sampling
        from repro.backends.base import ComputeBackend
        from repro.config import SamplingConfig
        from repro.gpu.device import GPUExecutor, NumpyExecutor

        gemm, sample = ComputeBackend.gemm, NumpyExecutor.sample_gemm
        a = np.random.default_rng(0).standard_normal((300, 80))
        tr = Tracer()
        with instrument(tr):
            with tr.span("call"):
                random_sampling(a, SamplingConfig(rank=5, seed=1),
                                executor=GPUExecutor(seed=1,
                                                     backend="numpy"))
        assert ComputeBackend.gemm is gemm
        assert NumpyExecutor.sample_gemm is sample
        totals = layer_totals(tr.spans)
        assert {"backends.gemm", "gpu.sample_gemm",
                "qr.ensure_all_finite"} <= set(totals)
        assert totals["backends.gemm"]["flops"] > 0
        root = next(s for s in tr.spans if s.name == "call")
        assert sum(row["self_s"] for row in totals.values()) == \
            pytest.approx(root.duration, rel=1e-9)
        assert 0 < tr.backend_wall_s() <= \
            totals["backends.gemm"]["self_s"] + sum(
                row["self_s"] for name, row in totals.items()
                if name.startswith("backends.") and name != "backends.gemm")
