"""``repro-bench analyze --audit-costs``: charged costs vs Figure 5.

The executor's charge hooks (:class:`repro.gpu.device.GPUExecutor`)
and the paper's Figure 5 closed forms (:mod:`repro.perfmodel.costs`)
are written separately, and a wrong coefficient or a transposed
dimension in either shifts every modeled timing curve.  This audit
runs the real fixed-rank pipeline — ``timed_fixed_rank`` at ``ng=1``
on a symbolic :class:`repro.gpu.device.SymArray` with a
:class:`repro.obs.spans.SpanRecorder` attached, the same mechanism the
sweeps and ``repro.tune`` use — and compares each phase's charged
FLOPs (``recorder.counters[phase].flops``) against the closed form at
the same dimensions, scaled by the phase's charge convention from
:data:`COST_STEPS`.  The run is symbolic, so even the paper-scale
fig15 point takes milliseconds.

It audits the importable ``repro`` package, not a source tree.  Exit
code follows the analyzer contract: 0 when every phase agrees within
:data:`DRIFT_TOLERANCE` at every audited point, 1 on drift.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .findings import EXIT_CLEAN, EXIT_FINDINGS

__all__ = ["AUDIT_POINT", "REF_POINTS", "COST_STEPS", "DRIFT_TOLERANCE",
           "audit_costs"]

#: The fig15 configuration at ``ng=1`` (``l = k + p = 64``), the paper's
#: largest phase-breakdown problem: leading terms dominate, so drift
#: here is model drift, not rounding.
AUDIT_POINT: Dict[str, int] = {"m": 150_000, "n": 2_500, "k": 54,
                               "p": 10, "q": 1}

#: Two more points in the paper's regime (``k <= l << n <= m``), all
#: dimensions distinct so a transposed argument cannot evaluate
#: coincidentally equal.
REF_POINTS: Tuple[Dict[str, int], ...] = (
    {"m": 15000, "n": 3000, "k": 54, "p": 10, "q": 2},
    {"m": 9000, "n": 2000, "k": 24, "p": 8, "q": 1},
)

#: (phase, Figure 5 cost function, its arguments, charged/closed-form
#: scale).  The ``qr`` scale of 2 is the CholQR2 convention: the
#: runtime charges both passes of the reorthogonalized factorization
#: while the closed form counts a single QR (see perfmodel/costs.py).
COST_STEPS: Tuple[Tuple[str, str, Tuple[str, ...], float], ...] = (
    ("sampling", "gaussian_sampling_cost", ("m", "n", "l"), 1.0),
    ("gemm_iter", "power_iteration_mult_cost", ("m", "n", "l", "q"), 1.0),
    ("orth_iter", "power_iteration_orth_cost", ("m", "n", "l", "q"), 1.0),
    ("qrcp", "qrcp_sampled_cost", ("n", "l", "k"), 1.0),
    ("qr", "qr_selected_cost", ("m", "k"), 2.0),
)

#: Relative drift beyond which the audit fails.  Generous enough for
#: the lower-order terms the closed forms keep (e.g. ``2k^3/3``) and
#: the small charges sharing a phase (TRSM in ``other``), tight enough
#: that a wrong leading coefficient or a swapped dimension always
#: trips it.
DRIFT_TOLERANCE = 0.05


def _runtime_phase_flops(point: Dict[str, int]) -> Dict[str, float]:
    """Per-phase charged FLOPs of one instrumented symbolic run."""
    from ..bench.harness import timed_fixed_rank
    from ..obs.spans import SpanRecorder
    rec = SpanRecorder()
    timed_fixed_rank(point["m"], point["n"], k=point["k"], p=point["p"],
                     q=point["q"], ng=1, recorder=rec, seed=0)
    return {phase: counter.flops
            for phase, counter in rec.counters.items()}


def _closed_flops(cost_name: str, args: Dict[str, int]) -> float:
    # Looked up per call so a patched closed form is what gets audited.
    from ..perfmodel import costs
    return getattr(costs, cost_name)(**args).flops


def _drift(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(value - reference) / abs(reference)


def audit_costs() -> int:
    """Audit every point; print one table per point; return an exit
    code."""
    failed: List[str] = []
    for point in (AUDIT_POINT,) + REF_POINTS:
        dims = dict(point, l=point["k"] + point["p"])
        where = " ".join(f"{d}={dims[d]}" for d in ("m", "n", "k", "l", "q"))
        runtime = _runtime_phase_flops(point)
        print(f"[audit-costs: GPUExecutor at {where}, "
              f"tolerance {DRIFT_TOLERANCE:.0%}]")
        header = f"{'phase':<10} {'runtime':>12} {'closed':>12} {'drift':>8}"
        print(header)
        print("-" * len(header))
        for phase, cost_name, arg_names, scale in COST_STEPS:
            closed = scale * _closed_flops(
                cost_name, {a: dims[a] for a in arg_names})
            charged = runtime.get(phase, 0.0)
            drift = _drift(charged, closed)
            ok = drift <= DRIFT_TOLERANCE
            if not ok:
                failed.append(f"{phase} ({where})")
            print(f"{phase:<10} {charged:12.4e} {closed:12.4e} "
                  f"{drift:>7.2%}" + ("" if ok else "  <-- DRIFT"))

    if failed:
        print(f"[audit-costs: DRIFT in {len(failed)} phase(s): "
              f"{', '.join(failed)}]")
        return EXIT_FINDINGS
    print("[audit-costs: runtime and closed-form totals agree on every "
          "audited phase]")
    return EXIT_CLEAN
