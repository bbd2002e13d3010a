"""Tests for :mod:`repro.analysis.races` — the happens-before race
sanitizer over the stream scheduler.

Covers the vector-clock checker on hand-built schedules (each ordering
construct: lane FIFO, ``deps=``, ``after_all``, ``barrier()``,
``overlap=off``), the annotated :class:`MultiGPUExecutor` end to end
(clean at every ng, racy once an edge is deleted), the report/artifact
plumbing, and a property test that adding edges never creates races.
"""

import json

import pytest

from repro.analysis.races import (RaceChecker, lane_name, render_report,
                                  write_report)
from repro.config import SamplingConfig
from repro.core.random_sampling import random_sampling
from repro.errors import RaceError
from repro.gpu.device import SymArray
from repro.gpu.multigpu import MultiGPUExecutor
from repro.gpu.streams import HOST, StreamScheduler
from repro.obs.spans import SpanRecorder

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def checked_scheduler(ng=2, overlap=True, **kw):
    sched = StreamScheduler(ng=ng, overlap=overlap)
    checker = RaceChecker(**kw)
    sched.attach_race_checker(checker)
    return sched, checker


def pairs(checker):
    """Order-insensitive fingerprints of the recorded races."""
    return {(r.buffer, r.kind, r.first.label, r.second.label)
            for r in checker.races}


# ---------------------------------------------------------------------------
# The checker on synthetic schedules
# ---------------------------------------------------------------------------

class TestSyntheticSchedules:
    def test_two_unordered_writers_race_exactly_once(self):
        sched, checker = checked_scheduler()
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"], label="w0")
        sched.submit("gemm_iter", 1.0, device=1, writes=["X"], label="w1")
        assert pairs(checker) == {("X", "W/W", "w0", "w1")}
        (race,) = checker.races
        assert "w0" in race.missing_edge and "deps=" in race.missing_edge

    def test_deps_edge_orders_the_pair(self):
        sched, checker = checked_scheduler()
        ev = sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        sched.submit("gemm_iter", 1.0, device=1, deps=[ev], writes=["X"])
        assert checker.races == []

    def test_after_all_orders_the_pair(self):
        sched, checker = checked_scheduler()
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        sched.submit("gemm_iter", 1.0, device=1, after_all=True,
                     writes=["X"])
        assert checker.races == []

    def test_barrier_event_orders_the_pair(self):
        sched, checker = checked_scheduler()
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        join = sched.barrier()
        sched.submit("gemm_iter", 1.0, device=1, deps=[join], writes=["X"])
        assert checker.races == []

    def test_serialized_schedule_never_races(self):
        sched, checker = checked_scheduler(overlap=False)
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        sched.submit("gemm_iter", 1.0, device=1, writes=["X"])
        sched.submit("comms", 0.1, device=1, stream="d2h", reads=["X"])
        assert checker.races == []

    def test_lane_fifo_counts_as_ordering(self):
        sched, checker = checked_scheduler()
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        assert checker.races == []

    def test_shared_resource_lane_orders_transfers(self):
        # Two copies from different devices both hold the host pcie
        # lane; the scheduler serializes them there, so no race.
        sched, checker = checked_scheduler()
        for d in (0, 1):
            sched.submit("comms", 0.5, device=d, stream="d2h",
                         resources=[(HOST, "pcie")], writes=["B_host"])
        assert checker.races == []

    def test_write_read_race_kind(self):
        sched, checker = checked_scheduler()
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"], label="w")
        sched.submit("comms", 0.1, device=1, stream="d2h", reads=["X"],
                     label="r")
        assert pairs(checker) == {("X", "W/R", "w", "r")}

    def test_read_write_race_kind(self):
        sched, checker = checked_scheduler()
        sched.submit("comms", 0.1, device=1, stream="d2h", reads=["X"],
                     label="r")
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"], label="w")
        assert pairs(checker) == {("X", "R/W", "r", "w")}

    def test_concurrent_reads_do_not_race(self):
        sched, checker = checked_scheduler()
        sched.submit("gemm_iter", 1.0, device=0, reads=["X"])
        sched.submit("gemm_iter", 1.0, device=1, reads=["X"])
        assert checker.races == []

    def test_distinct_buffers_do_not_race(self):
        sched, checker = checked_scheduler()
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        sched.submit("gemm_iter", 1.0, device=1, writes=["Y"])
        assert checker.races == []

    def test_happens_before_is_transitive(self):
        sched, checker = checked_scheduler(ng=3)
        a = sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        b = sched.submit("comms", 0.1, device=1, stream="d2h", deps=[a])
        sched.submit("gemm_iter", 1.0, device=2, deps=[b], writes=["X"])
        assert checker.races == []

    def test_read_write_same_submission_is_atomic(self):
        sched, checker = checked_scheduler()
        ev = sched.submit("orth_iter", 1.0, device=0, reads=["B"],
                          writes=["B"])
        sched.submit("orth_iter", 1.0, device=0, deps=[ev], reads=["B"],
                     writes=["B"])
        assert checker.races == []

    def test_each_unordered_pair_reported(self):
        sched, checker = checked_scheduler(ng=3)
        for d in range(3):
            sched.submit("gemm_iter", 1.0, device=d, writes=["X"],
                         label=f"w{d}")
        assert len(checker.races) == 3  # all C(3,2) pairs

    def test_raise_on_race_raises_at_detection(self):
        sched, _ = checked_scheduler(raise_on_race=True)
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        with pytest.raises(RaceError) as exc:
            sched.submit("gemm_iter", 1.0, device=1, writes=["X"])
        assert len(exc.value.races) == 1
        assert exc.value.races[0].buffer == "X"

    def test_check_raises_with_every_race(self):
        sched, checker = checked_scheduler(ng=3)
        for d in range(3):
            sched.submit("gemm_iter", 1.0, device=d, writes=["X"])
        with pytest.raises(RaceError, match="3 unordered") as exc:
            checker.check()
        assert len(exc.value.races) == 3

    def test_clean_check_passes(self):
        sched, checker = checked_scheduler(overlap=False)
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
        checker.check()

    def test_observation_only(self):
        """Attaching the checker changes no modeled time."""
        def script(sched):
            c = sched.submit("gemm_iter", 1.0, device=0, writes=["X"])
            sched.submit("comms", 0.5, device=0, stream="d2h",
                         resources=[(HOST, "pcie")], deps=[c],
                         reads=["X"], writes=["Y"])
            sched.submit("gemm_iter", 1.0, device=1, writes=["Z"])
            return sched

        plain = script(StreamScheduler(ng=2, overlap=True))
        checked = script(checked_scheduler()[0])
        assert checked.elapsed == plain.elapsed
        assert checked.device.breakdown() == plain.device.breakdown()
        assert checked.state() == plain.state()


# ---------------------------------------------------------------------------
# Property: ordering edges only ever remove races
# ---------------------------------------------------------------------------

@st.composite
def schedules(draw):
    """A schedule as (lane, buffer, is_write, deps, more_deps) tuples,
    where ``more_deps`` is a superset of ``deps``."""
    n = draw(st.integers(min_value=1, max_value=10))
    subs = []
    for i in range(n):
        lane = draw(st.integers(min_value=0, max_value=2))
        buffer = draw(st.sampled_from(["X", "Y"]))
        write = draw(st.booleans())
        if i:
            earlier = st.sets(st.integers(min_value=0, max_value=i - 1))
            deps, extra = draw(earlier), draw(earlier)
        else:
            deps, extra = set(), set()
        subs.append((lane, buffer, write, deps, deps | extra))
    return subs


def _run_schedule(subs, dep_index):
    checker = RaceChecker()
    clocks = []
    for lane, buffer, write, *dep_sets in subs:
        deps = dep_sets[dep_index]
        clocks.append(checker.on_submit(
            label=f"s{len(clocks)}", phase="gemm_iter",
            lanes=[(lane, "compute")],
            dep_clocks=[clocks[i] for i in sorted(deps)],
            writes=[buffer] if write else (),
            reads=() if write else [buffer]))
    return {(r.first.sub, r.second.sub, r.buffer, r.kind)
            for r in checker.races}


class TestMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(schedules())
    def test_adding_edges_never_creates_races(self, subs):
        base = _run_schedule(subs, dep_index=0)
        augmented = _run_schedule(subs, dep_index=1)
        assert augmented <= base


# ---------------------------------------------------------------------------
# The annotated multi-GPU executor
# ---------------------------------------------------------------------------

def _checked_run(ng, overlap=True, executor_cls=MultiGPUExecutor,
                 raise_on_race=False):
    ex = executor_cls(ng=ng, seed=0, overlap=overlap)
    checker = RaceChecker(raise_on_race=raise_on_race)
    ex.streams.attach_race_checker(checker)
    cfg = SamplingConfig(rank=54, oversampling=10, power_iterations=1,
                         seed=0)
    res = random_sampling(SymArray((150_000, 2_500)), cfg, executor=ex)
    return ex, res, checker


class NoEdgeExecutor(MultiGPUExecutor):
    """Deletes the chunk-GEMM -> gather ``deps=`` edges: the seeded
    race the sanitizer must catch."""

    def _reduce_b(self, l, n):
        chunk_events = self._chunk_events or [self.streams.barrier()]
        self._chunk_events = None
        chunks = len(chunk_events)
        total = self.device.transfers.reduce_seconds(8 * l * n, self.ng)
        per_leg = total / (self.ng * chunks)
        for j, _ev in enumerate(chunk_events):
            for d in range(self.ng):
                self.streams.submit(
                    "comms", per_leg, device=d, stream="d2h",
                    resources=[(HOST, "pcie")],  # deps edge deleted
                    label=f"reduce B {l}x{n} x{self.ng}",
                    reads=[f"B_chunk[{j}]"],
                    writes=[f"B_host[{j},g{d}]"])
        if self.ng > 1:
            self.streams.submit(
                "comms", self.cpu.gemm_seconds((self.ng - 1) * l * n),
                device=HOST, stream="cpu", after_all=True,
                label="cpu accumulate",
                reads=[f"B_host[{j},g{d}]"
                       for j in range(chunks) for d in range(self.ng)],
                writes=["B"])


class TestAnnotatedExecutor:
    @pytest.mark.parametrize("ng", [1, 2, 3])
    def test_full_run_is_race_free(self, ng):
        _, _, checker = _checked_run(ng=ng, overlap=True)
        assert checker.races == []
        assert checker.submissions > 0
        checker.check()

    def test_serialized_run_is_race_free(self):
        _, _, checker = _checked_run(ng=3, overlap=False)
        assert checker.races == []

    def test_deleted_edge_is_caught(self):
        _, _, checker = _checked_run(ng=2, executor_cls=NoEdgeExecutor)
        assert checker.races
        assert {r.kind for r in checker.races} == {"W/R"}
        assert all(r.buffer.startswith("B_chunk[")
                   for r in checker.races)
        assert all("deps=" in r.missing_edge for r in checker.races)

    def test_deleted_edge_raises_under_strict_mode(self):
        with pytest.raises(RaceError, match="B_chunk"):
            _checked_run(ng=2, executor_cls=NoEdgeExecutor,
                         raise_on_race=True)

    def test_sanitizer_does_not_change_modeled_time(self):
        ex_plain = MultiGPUExecutor(ng=3, seed=0, overlap=True)
        cfg = SamplingConfig(rank=54, oversampling=10,
                             power_iterations=1, seed=0)
        res_plain = random_sampling(SymArray((150_000, 2_500)), cfg,
                                    executor=ex_plain)
        _, res_checked, _ = _checked_run(ng=3, overlap=True)
        assert res_checked.seconds == res_plain.seconds
        assert res_checked.breakdown == res_plain.breakdown

    def test_env_var_attaches_strict_checker(self, monkeypatch):
        monkeypatch.setenv("REPRO_RACE_CHECK", "1")
        ex = MultiGPUExecutor(ng=2, seed=0, overlap=True)
        assert isinstance(ex.streams.race_checker, RaceChecker)
        assert ex.streams.race_checker.raise_on_race
        # A clean annotated run completes under the strict checker.
        cfg = SamplingConfig(rank=54, oversampling=10,
                             power_iterations=1, seed=0)
        random_sampling(SymArray((150_000, 2_500)), cfg, executor=ex)
        assert ex.streams.race_checker.races == []

    @pytest.mark.parametrize("value", [None, "", "0", "false"])
    def test_env_var_off_values(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_RACE_CHECK", raising=False)
        else:
            monkeypatch.setenv("REPRO_RACE_CHECK", value)
        ex = MultiGPUExecutor(ng=2, seed=0, overlap=True)
        assert ex.streams.race_checker is None


# ---------------------------------------------------------------------------
# Reports and artifacts
# ---------------------------------------------------------------------------

class TestReports:
    def test_report_schema_and_roundtrip(self, tmp_path):
        sched, checker = checked_scheduler()
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"], label="w0")
        sched.submit("gemm_iter", 1.0, device=1, writes=["X"], label="w1")
        report = checker.report()
        assert report["version"] == 1
        assert report["race_count"] == 1
        assert report["buffers"] == ["X"]
        assert "gpu0:compute" in report["lanes"]
        (race,) = report["races"]
        assert race["first"]["label"] == "w0"
        assert race["second"]["lanes"] == ["gpu1:compute"]
        path = tmp_path / "race-report.json"
        write_report(str(path), report)
        assert json.loads(path.read_text(encoding="utf-8")) == report

    def test_render_report_clean_and_racy(self):
        sched, checker = checked_scheduler()
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"], label="w0")
        clean = render_report(checker.report())
        assert "0 races" in clean and "1 submission(s)" in clean
        sched.submit("gemm_iter", 1.0, device=1, writes=["X"], label="w1")
        racy = render_report(checker.report())
        assert "1 race(s)" in racy and "W/W" in racy
        assert "w0" in racy and "gpu1:compute" in racy

    def test_render_report_note(self):
        out = render_report({"version": 1, "race_count": 0, "races": [],
                             "submissions": 0, "buffers": [], "lanes": [],
                             "note": "single-device run"})
        assert "[single-device run]" in out

    def test_lane_name_forms(self):
        assert lane_name((0, "compute")) == "gpu0:compute"
        assert lane_name((HOST, "pcie")) == "host:pcie"

    def test_recorder_mirrors_races(self):
        sched, checker = checked_scheduler()
        rec = SpanRecorder()
        sched.attach_recorder(rec)
        sched.submit("gemm_iter", 1.0, device=0, writes=["X"], label="w0")
        sched.submit("gemm_iter", 1.0, device=1, writes=["X"], label="w1")
        (mirrored,) = rec.races
        assert mirrored == checker.races[0].to_dict()

    def test_harness_race_report_attached(self):
        from repro.bench.harness import observed_fixed_rank
        _, rec = observed_fixed_rank("fig15", race_check=True)
        report = rec.race_report
        assert report is not None
        assert report["race_count"] == 0
        assert report["submissions"] > 0

    def test_harness_single_device_note(self):
        from repro.bench.harness import observed_fixed_rank
        _, rec = observed_fixed_rank("fig11", race_check=True)
        report = rec.race_report
        assert report is not None
        assert report["race_count"] == 0
        assert "note" in report
