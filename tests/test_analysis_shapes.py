"""Tests for the symbolic shape & charge-consistency rules
(RS121-RS123, RS125) and their supporting machinery: the shape lattice
seeded by ``@shaped`` declarations, Σl propagation through stacked
batches, the incremental cache, SARIF export, and the runtime
``--audit-costs`` check of charged FLOPs against the Figure 5 closed
forms.

Each rule gets at least one true-positive and one clean fixture, and —
the load-bearing part — each rule is mutation-tested against the real
tree: a single seeded defect (swapped charge dims, a dropped ``writes=``
entry, a conditionally-skipped charge) must flip the shipped tree from
clean to exactly one finding.  The cost audit is mutation-tested the
same way: a mischarge seeded in a copy of the real tree, and a patched
charge hook or closed form.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.cli import main as analyze_main
from repro.analysis.engine import all_rules, analyze_paths, run_analysis
from repro.analysis.findings import EXIT_CLEAN, EXIT_FINDINGS
from repro.analysis.sarif import render_sarif, to_sarif, validate_sarif
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]

SHAPE_RULES = ["RS121", "RS122", "RS123", "RS125"]


def write_project(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path``; return the root."""
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src, encoding="utf-8")
    return tmp_path


def run_rules(tmp_path, files, select=None):
    root = write_project(tmp_path, files)
    return analyze_paths([root], root=root,
                         select=select or SHAPE_RULES)


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# The @shaped runtime marker
# ---------------------------------------------------------------------------

class TestShapedMarker:
    def test_records_declaration_on_function(self):
        from repro.analysis.annotations import shaped

        @shaped(params={"omega": ("l", "m"), "a": ("m", "n")},
                returns=("l", "n"))
        def sample(omega, a):
            return omega

        assert sample.__shaped__ == {
            "returns": ("l", "n"),
            "params": {"omega": ("l", "m"), "a": ("m", "n")}}
        assert sample(3, 4) == 3  # runtime no-op

    def test_scalar_dim_symbols_are_allowed(self):
        from repro.analysis.annotations import shaped

        @shaped(params={"k": "k"})
        def take(k):
            return k

        assert take.__shaped__["params"] == {"k": "k"}

    def test_rejects_empty_declarations(self):
        from repro.analysis.annotations import shaped
        with pytest.raises(ConfigurationError):
            shaped(params={"a": ()})
        with pytest.raises(ConfigurationError):
            shaped(returns="")
        with pytest.raises(ConfigurationError):
            shaped(params={"a": ("m", 2)})

    def test_shaped_is_exported_from_analysis(self):
        import repro.analysis as analysis
        assert "shaped" in analysis.__all__
        assert callable(analysis.shaped)


# ---------------------------------------------------------------------------
# RS121: charged kernel dims vs the math actually performed
# ---------------------------------------------------------------------------

_RS121_BAD = (
    "class Exec:\n"
    "    def _t_gemm(self, r, c, k, phase='other'):\n"
    "        pass\n"
    "    def sample_gemm(self, omega, a):\n"
    "        l, m = shape_of(omega)\n"
    "        m2, n = shape_of(a)\n"
    "        self._t_gemm(m, n, l, phase='sampling')\n"
    "        return _mm(omega, a, self.backend)\n")

_RS121_GOOD = _RS121_BAD.replace("self._t_gemm(m, n, l",
                                 "self._t_gemm(l, n, m")


class TestRS121:
    def test_flags_swapped_charge_dimensions(self, tmp_path):
        findings = run_rules(tmp_path, {"exec.py": _RS121_BAD},
                             select=["RS121"])
        assert rules_of(findings) == ["RS121"]
        assert findings[0].line == 7
        assert "charged GEMM dimensions" in findings[0].message

    def test_matching_charge_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"exec.py": _RS121_GOOD},
                             select=["RS121"])
        assert findings == []

    def test_shaped_declared_return_contradiction(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.analysis.annotations import shaped\n"
            "class Exec:\n"
            "    @shaped(params={'omega': ('l', 'm'), 'a': ('m', 'n')},\n"
            "            returns=('l', 'm'))\n"
            "    def sample_gemm(self, omega, a):\n"
            "        return _mm(omega, a, self.backend)\n")},
            select=["RS121"])
        assert rules_of(findings) == ["RS121"]
        assert "@shaped declares" in findings[0].message

    def test_shaped_consistent_return_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.analysis.annotations import shaped\n"
            "class Exec:\n"
            "    @shaped(params={'omega': ('l', 'm'), 'a': ('m', 'n')},\n"
            "            returns=('l', 'n'))\n"
            "    def sample_gemm(self, omega, a):\n"
            "        return _mm(omega, a, self.backend)\n")},
            select=["RS121"])
        assert findings == []

    def test_noqa_at_charge_site_suppresses(self, tmp_path):
        noqad = _RS121_BAD.replace(
            "phase='sampling')",
            "phase='sampling')  # repro: noqa RS121")
        findings = run_rules(tmp_path, {"exec.py": noqad},
                             select=["RS121", "RS113"])
        assert findings == []


# ---------------------------------------------------------------------------
# Symbolic-dim propagation: slices, transpose, stacked (Σl) batches
# ---------------------------------------------------------------------------

class TestShapePropagation:
    def test_transpose_swaps_axes(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "class Exec:\n"
            "    def gram(self, b):\n"
            "        l, n = shape_of(b)\n"
            "        self._t_gemm(l, l, n, phase='other')\n"
            "        return _mm(b, b.T, self.backend)\n")},
            select=["RS121"])
        assert findings == []

    def test_transpose_mismatch_is_flagged(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "class Exec:\n"
            "    def gram(self, b):\n"
            "        l, n = shape_of(b)\n"
            "        self._t_gemm(n, n, l, phase='other')\n"
            "        return _mm(b, b.T, self.backend)\n")},
            select=["RS121"])
        assert rules_of(findings) == ["RS121"]

    # A scalar @shaped symbol seeds the slice bound, so ``b[:k]`` has
    # rows ``k`` — without the declaration ``k`` is opaque and RS121
    # abstains rather than guess.
    _SLICED = (
        "from repro.analysis.annotations import shaped\n"
        "class Exec:\n"
        "    @shaped(params={'k': 'k'})\n"
        "    def head(self, b, y, k):\n"
        "        l, n = shape_of(b)\n"
        "        n2, t = shape_of(y)\n"
        "        c = b[:k]\n"
        "        self._t_gemm(k, t, n, phase='other')\n"
        "        return _mm(c, y, self.backend)\n")

    def test_head_slice_rows(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": self._SLICED},
                             select=["RS121"])
        assert findings == []

    def test_head_slice_mismatch_is_flagged(self, tmp_path):
        mutated = self._SLICED.replace("self._t_gemm(k, t, n",
                                       "self._t_gemm(l, t, n")
        findings = run_rules(tmp_path, {"mod.py": mutated},
                             select=["RS121"])
        assert rules_of(findings) == ["RS121"]

    _STACKED = (
        "class Exec:\n"
        "    def sample_gemm_stacked(self, omegas, a):\n"
        "        total_l = sum(shape_of(o)[0] for o in omegas)\n"
        "        m, n = shape_of(a)\n"
        "        self._t_gemm(total_l, n, m, phase='sampling')\n"
        "        return [_mm(o, a, self.backend) for o in omegas]\n")

    def test_stacked_sum_of_rider_rows_is_clean(self, tmp_path):
        # The coalesced batch charge: ONE (sum l_i) x n GEMM for the
        # whole rider list (the repro.serve batcher's Σl case).
        findings = run_rules(tmp_path, {"mod.py": self._STACKED},
                             select=["RS121"])
        assert findings == []

    def test_stacked_swapped_dims_are_flagged(self, tmp_path):
        mutated = self._STACKED.replace("self._t_gemm(total_l, n, m",
                                        "self._t_gemm(total_l, m, n")
        findings = run_rules(tmp_path, {"mod.py": mutated},
                             select=["RS121"])
        assert rules_of(findings) == ["RS121"]


# ---------------------------------------------------------------------------
# RS122: incomplete race annotations on stream submissions
# ---------------------------------------------------------------------------

class TestRS122:
    def test_missing_writes_is_flagged(self, tmp_path):
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'])\n")},
            select=["RS122"])
        assert rules_of(findings) == ["RS122"]
        assert findings[0].line == 3

    def test_empty_writes_literal_is_flagged(self, tmp_path):
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'],\n"
            "                            writes=[])\n")},
            select=["RS122"])
        assert rules_of(findings) == ["RS122"]

    def test_complete_annotations_are_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'],\n"
            "                            writes=['B'])\n"
            "        self.streams.submit('k2', 0, 1.0, reads=['B@g0'],\n"
            "                            writes=['C'])\n")},
            select=["RS122"])
        assert findings == []

    def test_dangling_derived_read_is_flagged(self, tmp_path):
        # 'B@g0' is a per-device replica of buffer 'B', but no
        # submission in the module ever writes 'B': the dependency
        # edge dangles and the scheduler can never order it.
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['B@g0'],\n"
            "                            writes=['C'])\n")},
            select=["RS122"])
        assert rules_of(findings) == ["RS122"]
        assert "B@g0" in findings[0].message

    def test_dynamic_buffer_lists_open_the_module(self, tmp_path):
        # A forwarded variable makes the write set unknowable, so the
        # dangling-read check must stand down (no false positives).
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def fwd(self, bufs):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'],\n"
            "                            writes=bufs)\n"
            "    def go(self):\n"
            "        self.streams.submit('k2', 0, 1.0, reads=['B@g0'],\n"
            "                            writes=['C'])\n")},
            select=["RS122"])
        assert findings == []

    def test_untimed_modules_are_exempt(self, tmp_path):
        # Same code outside repro/gpu/ with no streams import: the
        # scheduler contract does not apply.
        findings = run_rules(tmp_path, {"other.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'])\n")},
            select=["RS122"])
        assert findings == []


# ---------------------------------------------------------------------------
# RS123: uncharged / conditionally charged math in timed scopes
# ---------------------------------------------------------------------------

_TIMED_HEADER = "import repro.gpu.streams\n"


class TestRS123:
    def test_conditionally_charged_math_is_flagged(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            _TIMED_HEADER +
            "class Exec:\n"
            "    def f(self, a, b, l):\n"
            "        if l > 64:\n"
            "            self._t_gemm(2, 3, 4, phase='other')\n"
            "        return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert rules_of(findings) == ["RS123"]
        assert findings[0].line == 6

    def test_unconditional_charge_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            _TIMED_HEADER +
            "class Exec:\n"
            "    def f(self, a, b):\n"
            "        self._t_gemm(2, 3, 4, phase='other')\n"
            "        return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert findings == []

    def test_charge_only_inside_loop_is_flagged(self, tmp_path):
        # The loop may run zero times, leaving the trailing math
        # uncharged on that path.
        findings = run_rules(tmp_path, {"mod.py": (
            _TIMED_HEADER +
            "class Exec:\n"
            "    def f(self, a, b, chunks):\n"
            "        for c in chunks:\n"
            "            self._t_gemm(2, 3, 4, phase='other')\n"
            "        return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert rules_of(findings) == ["RS123"]

    def test_one_arm_charging_conditional_is_flagged(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            _TIMED_HEADER +
            "class Exec:\n"
            "    def f(self, a, b, fast):\n"
            "        if fast:\n"
            "            self._t_gemm(2, 3, 4, phase='other')\n"
            "            return _mm(a, b, self.backend)\n"
            "        else:\n"
            "            return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert "RS123" in rules_of(findings)

    def test_untimed_module_is_exempt(self, tmp_path):
        # No repro.gpu import: plain numerics module, nothing to time.
        findings = run_rules(tmp_path, {"mod.py": (
            "class Exec:\n"
            "    def f(self, a, b, l):\n"
            "        if l > 64:\n"
            "            self._t_gemm(2, 3, 4, phase='other')\n"
            "        return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert findings == []


# ---------------------------------------------------------------------------
# RS124's slot: drift of the charged model vs the closed forms, checked on
# a symbolic run of the real executor by the --audit-costs audit
# ---------------------------------------------------------------------------

def _drifted(out):
    """Phases the audit table marks as drifted, one entry per point."""
    return [line.split()[0] for line in out.splitlines()
            if line.endswith("<-- DRIFT")]


class TestRS124:
    def test_matching_model_is_clean(self):
        # Every audited phase is actually charged, and within tolerance
        # of its scaled closed form, at every audited point.
        from repro.analysis.audit import (
            AUDIT_POINT, COST_STEPS, DRIFT_TOLERANCE, REF_POINTS,
            _closed_flops, _drift, _runtime_phase_flops)
        for point in (AUDIT_POINT,) + REF_POINTS:
            dims = dict(point, l=point["k"] + point["p"])
            runtime = _runtime_phase_flops(point)
            for phase, cost_name, arg_names, scale in COST_STEPS:
                closed = scale * _closed_flops(
                    cost_name, {a: dims[a] for a in arg_names})
                assert runtime.get(phase, 0.0) > 0.0, (phase, point)
                assert _drift(runtime[phase], closed) <= DRIFT_TOLERANCE, \
                    (phase, point, runtime[phase], closed)

    def test_halved_charge_drifts(self, capsys, monkeypatch):
        # A halved iteration-GEMM charge drifts in that phase alone: the
        # audit attributes drift per phase, not to the run as a whole.
        from repro.analysis.audit import audit_costs
        from repro.gpu.device import GPUExecutor
        charge = GPUExecutor._t_gemm

        def halved(self, m, n, k, phase):
            if phase == "gemm_iter":
                n //= 2
            charge(self, m, n, k, phase)

        monkeypatch.setattr(GPUExecutor, "_t_gemm", halved)
        code = audit_costs()
        out = capsys.readouterr().out
        assert code == EXIT_FINDINGS, out
        assert _drifted(out) == ["gemm_iter"] * 3


# ---------------------------------------------------------------------------
# RS125: async hygiene in the serving layer
# ---------------------------------------------------------------------------

class TestRS125:
    def test_blocking_call_in_async_def(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import time\n"
            "async def worker(q):\n"
            "    time.sleep(0.1)\n")}, select=["RS125"])
        assert rules_of(findings) == ["RS125"]
        assert findings[0].line == 3

    def test_awaited_asyncio_sleep_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import asyncio\n"
            "async def worker(q):\n"
            "    await asyncio.sleep(0.1)\n")}, select=["RS125"])
        assert findings == []

    def test_unawaited_coroutine_statement(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import asyncio\n"
            "async def worker(q):\n"
            "    asyncio.sleep(0.1)\n")}, select=["RS125"])
        assert rules_of(findings) == ["RS125"]

    def test_unbounded_queue_in_async_module(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import asyncio\n"
            "class Svc:\n"
            "    def __init__(self):\n"
            "        self.q = asyncio.Queue()\n"
            "    async def pump(self):\n"
            "        await self.q.get()\n")}, select=["RS125"])
        assert rules_of(findings) == ["RS125"]

    def test_bounded_queue_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import asyncio\n"
            "class Svc:\n"
            "    def __init__(self):\n"
            "        self.q = asyncio.Queue(maxsize=8)\n"
            "    async def pump(self):\n"
            "        await self.q.get()\n")}, select=["RS125"])
        assert findings == []

    def test_offloaded_blocking_work_is_clean(self, tmp_path):
        # run_in_executor's lambda runs on a thread, not the loop:
        # nested scopes are exempt from the blocking-leaf check.
        findings = run_rules(tmp_path, {"svc.py": (
            "import time\n"
            "async def worker(loop, pool):\n"
            "    await loop.run_in_executor(pool,\n"
            "                               lambda: time.sleep(0.1))\n")},
            select=["RS125"])
        assert findings == []

    def test_sync_only_module_is_exempt(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import time\n"
            "def worker(q):\n"
            "    time.sleep(0.1)\n")}, select=["RS125"])
        assert findings == []


# ---------------------------------------------------------------------------
# Load-bearing mutations: each rule must catch its seeded defect in the
# REAL tree (not a fixture), and the unmutated tree must be clean.
# ---------------------------------------------------------------------------

class TestShapeMutationsRealTree:
    def _copy_tree(self, tmp_path):
        dest = tmp_path / "src" / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", dest)
        return dest

    def _mutate(self, dest, rel, old, new):
        target = dest / rel
        src = target.read_text(encoding="utf-8")
        mutated = src.replace(old, new)
        assert mutated != src, f"mutation target not found in {rel}"
        target.write_text(mutated, encoding="utf-8")

    def test_unmutated_tree_is_clean(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        findings = analyze_paths([dest], root=tmp_path / "src",
                                 select=SHAPE_RULES)
        assert findings == [], [f.render() for f in findings]

    def test_swapped_charge_dims_caught_by_rs121(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        self._mutate(
            dest, "gpu/device.py",
            '        self._t_gemm(l, n, m, phase="sampling")\n'
            "        return _mm(omega, a, self.backend)\n",
            '        self._t_gemm(m, n, l, phase="sampling")\n'
            "        return _mm(omega, a, self.backend)\n")
        findings = analyze_paths([dest], root=tmp_path / "src",
                                 select=["RS121"])
        assert rules_of(findings) == ["RS121"], \
            [f.render() for f in findings]
        assert "device" in findings[0].path

    def test_dropped_writes_entry_caught_by_rs122(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        self._mutate(
            dest, "gpu/multigpu.py",
            'reads=["B@g0"], writes=["B_qrcp"])',
            'reads=["B@g0"])')
        findings = analyze_paths([dest], root=tmp_path / "src",
                                 select=["RS122"])
        assert rules_of(findings) == ["RS122"], \
            [f.render() for f in findings]
        assert "multigpu" in findings[0].path

    def test_conditional_charge_caught_by_rs123(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        self._mutate(
            dest, "gpu/device.py",
            '        self._t_gemm(l, n, m, phase="sampling")\n'
            "        return _mm(omega, a, self.backend)\n",
            "        if l > 64:\n"
            '            self._t_gemm(l, n, m, phase="sampling")\n'
            "        return _mm(omega, a, self.backend)\n")
        findings = analyze_paths([dest], root=tmp_path / "src",
                                 select=["RS123"])
        assert rules_of(findings) == ["RS123"], \
            [f.render() for f in findings]

    def test_mischarged_coefficient_caught_by_rs124(self, tmp_path):
        # The audit imports the package it checks, so the mutated copy
        # is audited in a fresh interpreter with only that copy on the
        # path.
        dest = self._copy_tree(tmp_path)
        self._mutate(
            dest, "gpu/device.py",
            '        self._t_gemm(l, n, m, phase="sampling")\n'
            "        return _mm(omega, a, self.backend)\n",
            '        self._t_gemm(l, n // 2, m, phase="sampling")\n'
            "        return _mm(omega, a, self.backend)\n")
        env = dict(os.environ, PYTHONPATH=str(dest.parent))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "import repro.analysis.audit as audit\n"
             "print(audit.__file__)\n"
             "sys.exit(audit.audit_costs())\n"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        out = proc.stdout
        assert out.splitlines()[0].startswith(str(dest)), out
        assert proc.returncode == EXIT_FINDINGS, out + proc.stderr
        assert _drifted(out) == ["sampling"] * 3


# ---------------------------------------------------------------------------
# Incremental cache: warm runs replay shape findings with zero parses
# ---------------------------------------------------------------------------

_CACHE_PROJ = {
    "exec.py": _RS121_BAD,
    "other.py": "def unrelated():\n    return 1\n",
}


class TestIncrementalCacheShapes:
    def test_warm_run_has_zero_parses_and_identical_findings(
            self, tmp_path):
        root = write_project(tmp_path / "proj", _CACHE_PROJ)
        cache = AnalysisCache(tmp_path / "cache")
        first = run_analysis([root], root=root, select=SHAPE_RULES,
                             cache=cache)
        assert first.stats.parses == 2
        assert rules_of(first.findings) == ["RS121"]

        cache2 = AnalysisCache(tmp_path / "cache")
        second = run_analysis([root], root=root, select=SHAPE_RULES,
                              cache=cache2)
        assert second.stats.parses == 0
        assert second.stats.analyzed == 0
        assert ([f.render() for f in second.findings]
                == [f.render() for f in first.findings])


# ---------------------------------------------------------------------------
# SARIF round-trip
# ---------------------------------------------------------------------------

class TestShapeSarif:
    def test_shape_rules_are_in_the_driver_catalog(self):
        registry = all_rules()
        assert set(SHAPE_RULES) <= set(registry)

    def test_cli_sarif_round_trip(self, tmp_path, capsys, monkeypatch):
        root = write_project(tmp_path / "proj", {"exec.py": _RS121_BAD})
        monkeypatch.chdir(tmp_path)
        code = analyze_main([str(root), "--select", "RS121",
                             "--format", "sarif", "--no-baseline",
                             "--no-cache"])
        assert code == EXIT_FINDINGS
        log = json.loads(capsys.readouterr().out)
        assert validate_sarif(log) == []
        res = log["runs"][0]["results"][0]
        assert res["ruleId"] == "RS121"
        ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
        assert ids[res["ruleIndex"]] == "RS121"

    def test_render_matches_to_sarif(self, tmp_path):
        findings = run_rules(tmp_path, {"exec.py": _RS121_BAD},
                             select=["RS121"])
        registry = all_rules()
        assert json.loads(render_sarif(findings, registry)) \
            == to_sarif(findings, registry)


# ---------------------------------------------------------------------------
# --audit-costs: charged flops of a symbolic run vs the closed forms
# ---------------------------------------------------------------------------

class TestAuditCosts:
    def test_shipped_tree_passes_the_audit(self, capsys):
        from repro.analysis.audit import AUDIT_POINT, REF_POINTS, audit_costs
        code = audit_costs()
        out = capsys.readouterr().out
        assert code == EXIT_CLEAN, out
        for point in (AUDIT_POINT,) + REF_POINTS:
            assert f"m={point['m']} n={point['n']}" in out
        for phase in ("sampling", "gemm_iter", "orth_iter", "qrcp", "qr"):
            assert out.count(f"\n{phase} ") == 1 + len(REF_POINTS)

    def test_audit_detects_a_mischarge(self, capsys, monkeypatch):
        # Halving n in the sampling charge is a wrong leading term the
        # closed form does not share.
        from repro.analysis.audit import audit_costs
        from repro.gpu.device import GPUExecutor
        charge = GPUExecutor._t_gemm

        def halved(self, m, n, k, phase):
            if phase == "sampling":
                n //= 2
            charge(self, m, n, k, phase)

        monkeypatch.setattr(GPUExecutor, "_t_gemm", halved)
        code = audit_costs()
        out = capsys.readouterr().out
        assert code == EXIT_FINDINGS, out
        assert _drifted(out) == ["sampling"] * 3

    def test_wrong_closed_form_drifts(self, capsys, monkeypatch):
        # Drift is symmetric: a wrong coefficient in costs.py is the
        # same failure as a wrong charge in the executor.
        from repro.analysis.audit import audit_costs
        from repro.perfmodel import costs
        closed = costs.gaussian_sampling_cost

        monkeypatch.setattr(costs, "gaussian_sampling_cost",
                            lambda m, n, l: 2.0 * closed(m, n, l))
        code = audit_costs()
        out = capsys.readouterr().out
        assert code == EXIT_FINDINGS, out
        assert _drifted(out) == ["sampling"] * 3

    def test_cli_flag_is_wired(self, capsys):
        code = analyze_main(["src/repro", "--audit-costs"])
        assert code == EXIT_CLEAN
        assert "audit-costs" in capsys.readouterr().out
