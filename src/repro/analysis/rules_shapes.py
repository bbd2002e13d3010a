"""RS121-RS125: the symbolic shape & charge-consistency rule family.

RS121/RS123 are computed project-wide by
:class:`repro.analysis.shapes.ShapeAnalysis` (a forward abstract
interpretation over the symbolic shape lattice, sharing the symbol
table — and therefore the incremental cache, ``--jobs`` fan-out, SARIF
and baseline machinery — with the RS115-RS119 residency pass).  The
checkers here are thin per-file shims that replay the raw findings
through the ordinary noqa machinery, exactly like
:mod:`repro.analysis.rules_residency` does: ``# repro: noqa RS121`` at
the charge line behaves like any other suppression and RS113 still
notices when it goes stale.

RS122 and RS125 are ordinary per-file AST rules: race-annotation
completeness is a property of each ``submit`` call site, and async
hygiene is a property of each ``async def`` body.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .engine import BaseChecker, register
from .findings import AnalysisFinding

__all__ = [
    "ChargedShapeMismatchChecker",
    "IncompleteRaceAnnotationChecker",
    "UnchargedBranchChecker",
    "AsyncHygieneChecker",
]


class _ShapeRuleChecker(BaseChecker):
    """Replay the shape pass's raw findings for one rule and file."""

    #: Tells the engine this rule needs the symbolic shape pass.
    requires_shapes = True

    def run(self) -> List[AnalysisFinding]:
        for raw in getattr(self.ctx, "project_findings", None) or []:
            if raw.rule != self.rule:
                continue
            if self.ctx.suppressed(self.rule, raw.line):
                continue
            self.findings.append(AnalysisFinding(
                rule=self.rule,
                path=self.ctx.relpath,
                line=raw.line,
                col=raw.col,
                message=raw.message,
                context=raw.context))
        return self.findings


@register
class ChargedShapeMismatchChecker(_ShapeRuleChecker):
    """RS121: charged-kernel shape mismatch.

    The ``(m, n, k)`` triple passed to ``gemm_seconds`` /
    ``gemm_flops`` / ``cholesky_seconds`` / ``_t_gemm`` must match the
    shape of a GEMM actually computed in the same function: for
    ``_mm(x, y)``, ``backend.gemm(x, y)`` or ``x @ y`` the legitimate
    triple is ``(rows(x), cols(y), cols(x))``, up to the multi-GPU
    ``local_rows`` split and stacked-batch ``sum(shape_of(o)[0] ...)``
    totals.  Fires only on *definite* mismatches between fully-resolved
    symbolic triples — an unknown dimension never convicts.  Also fires
    when a ``@shaped(returns=...)`` declaration is contradicted by the
    inferred return shape.
    """

    rule = "RS121"
    summary = ("charged kernel dimensions disagree with the operand "
               "shapes actually multiplied")


@register
class UnchargedBranchChecker(_ShapeRuleChecker):
    """RS123: uncharged or double-charged execution paths.

    Inside timed scopes (``repro/gpu/`` or anything importing
    ``repro.gpu.streams``): GEMM-class math that is reachable both with
    and without a preceding charge event (a ``_t_*`` hook, ``charge``,
    ``submit``/``submit_group`` or a charging helper), and conditionals
    whose both arms compute math while only one arm charges.  Either
    way some path's seconds never reach — or reach twice — the modeled
    timeline.
    """

    rule = "RS123"
    summary = ("math reachable on a path whose kernel charges differ "
               "from its sibling path")


# ---------------------------------------------------------------------------
# RS122: race-annotation completeness (per-file)
# ---------------------------------------------------------------------------

def _buffer_base(node: ast.expr) -> Optional[str]:
    """The logical-buffer family name of one ``reads=``/``writes=``
    element: ``"B_chunk[0]"`` -> ``B_chunk``, ``f"B_host[{j},g{d}]"``
    -> ``B_host``, ``"A"`` -> ``A``.  ``None`` means the element is
    dynamic with no literal prefix (a wildcard — it may name anything).
    """
    text: Optional[str] = None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    elif isinstance(node, ast.JoinedStr):
        if node.values and isinstance(node.values[0], ast.Constant) \
                and isinstance(node.values[0].value, str):
            text = node.values[0].value
        else:
            return None
    else:
        return None
    for sep in ("[", "@"):
        if sep in text:
            text = text.split(sep, 1)[0]
    return text or None


def _buffer_elements(node: ast.expr) -> Optional[List[ast.expr]]:
    """Flatten a ``reads=``/``writes=`` expression into elements, or
    ``None`` when the list itself is dynamic (a forwarded variable, a
    comprehension over devices, a concatenation with one)."""
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return list(node.elts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _buffer_elements(node.left)
        right = _buffer_elements(node.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def _is_stream_submit(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr not in ("submit", "submit_group"):
        return False
    receiver = node.func.value
    return isinstance(receiver, ast.Attribute) \
        and receiver.attr == "streams"


@register
class IncompleteRaceAnnotationChecker(BaseChecker):
    """RS122: a stream submission the race sanitizer cannot order.

    The PR 5 race sanitizer orders kernels by the logical buffers they
    declare; a ``streams.submit``/``submit_group`` with no ``writes=``
    declaration (or an empty one) is invisible to it — every conflict
    with that kernel goes unchecked, which is exactly how a dropped
    declaration reintroduces the silent races the sanitizer exists to
    catch.  Additionally, a *derived* buffer read (``"B_chunk[0]"``,
    ``"R_bar@g1"`` — anything with a ``[``/``@`` suffix) must be
    produced by some declared write of the same family in the module;
    a read nothing covers means the declared DAG has a dangling edge.
    Dynamic buffer lists (forwarded parameters, per-device
    comprehensions, dynamic f-string prefixes) make the module *open*
    and disable the dangling-read check — only the per-site ``writes=``
    presence check remains.
    """

    rule = "RS122"
    summary = ("stream submission with no writes= declaration (or a "
               "derived buffer read no declared write produces)")

    def run(self) -> List[AnalysisFinding]:
        if not self._timed_scope():
            return self.findings
        submits = [node for node in ast.walk(self.ctx.tree)
                   if isinstance(node, ast.Call)
                   and _is_stream_submit(node)]
        if not submits:
            return self.findings

        open_module = False
        write_bases: Set[str] = set()
        reads: List[tuple] = []
        for node in submits:
            kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            writes = kwargs.get("writes")
            if writes is None or (isinstance(writes, (ast.List, ast.Tuple,
                                                      ast.Set))
                                  and not writes.elts):
                self.emit(node,
                          f"{node.func.attr}() declares no writes= "
                          f"logical buffers; the race sanitizer cannot "
                          f"order this kernel against anything that "
                          f"touches its outputs")
                continue
            elements = _buffer_elements(writes)
            if elements is None:
                open_module = True
            else:
                for elt in elements:
                    base = _buffer_base(elt)
                    if base is None:
                        open_module = True
                    else:
                        write_bases.add(base)
            read_elements = _buffer_elements(kwargs.get("reads")) \
                if "reads" in kwargs else []
            if read_elements is None:
                open_module = True
            else:
                for elt in read_elements:
                    reads.append((elt, node))

        if open_module:
            return self.findings
        for elt, node in reads:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)):
                continue
            if "[" not in elt.value and "@" not in elt.value:
                continue  # plain input buffers may be produced upstream
            base = _buffer_base(elt)
            if base is not None and base not in write_bases:
                self.emit(elt,
                          f"read of derived buffer {elt.value!r} that no "
                          f"declared write of the {base!r} family "
                          f"produces; the race DAG has a dangling edge")
        return self.findings

    def _timed_scope(self) -> bool:
        if "repro/gpu/" in self.ctx.relpath:
            return True
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                if any(a.name.startswith("repro.gpu.streams")
                       for a in node.names):
                    return True
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro.gpu.streams") \
                        or node.module == "repro.gpu":
                    return True
        return False


# ---------------------------------------------------------------------------
# RS125: async hygiene in the serve layer (per-file)
# ---------------------------------------------------------------------------

#: Call leaves that block the event loop outright.
_BLOCKING_LEAVES = {"run_jobs", "check_call", "check_output", "result"}
#: Dotted prefixes whose calls are synchronous by construction.
_BLOCKING_PREFIXES = ("time.sleep", "subprocess.", "np.linalg.",
                      "numpy.linalg.")


def _dotted(node: ast.expr) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@register
class AsyncHygieneChecker(BaseChecker):
    """RS125: event-loop hazards in async code.

    Three shapes, all confined to files that define ``async def``
    coroutines (in practice the ``repro.serve`` layer):

    - a blocking call (``time.sleep``, ``subprocess.*``, ``run_jobs``,
      ``Future.result()``, ``Executor.shutdown(wait=True)``, raw
      ``np.linalg`` math) directly inside an ``async def`` body — it
      stalls every other request sharing the event loop; heavy work
      belongs behind ``loop.run_in_executor`` (nested ``def``/lambda
      bodies are exempt: that is exactly how the offload is written);
    - an un-awaited coroutine: a bare expression statement calling a
      same-file ``async def`` (or ``asyncio.sleep``) creates a
      coroutine object and silently drops it;
    - an unbounded ``asyncio.Queue()``: the serve layer bounds
      admission through ``ServeConfig``, so a queue with no ``maxsize``
      silently removes the backpressure those bounds exist to provide.
    """

    rule = "RS125"
    summary = ("async hygiene: blocking call in a coroutine, un-awaited "
               "coroutine, or unbounded asyncio.Queue")

    def run(self) -> List[AnalysisFinding]:
        async_defs = [node for node in ast.walk(self.ctx.tree)
                      if isinstance(node, ast.AsyncFunctionDef)]
        if not async_defs:
            return self.findings
        local_coroutines = {fn.name for fn in async_defs}
        for fn in async_defs:
            self._check_body(fn, local_coroutines)
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Call) \
                    and _dotted(node.func) == "asyncio.Queue" \
                    and not node.args \
                    and not any(kw.arg == "maxsize"
                                for kw in node.keywords):
                self.emit(node,
                          "unbounded asyncio.Queue(): admission bounds "
                          "from ServeConfig never reach this queue, so "
                          "it grows without backpressure")
        return self.findings

    def _check_body(self, fn: ast.AsyncFunctionDef,
                    local_coroutines: Set[str]) -> None:
        for node in self._own_nodes(fn):
            if isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Call):
                dotted = _dotted(node.value.func)
                leaf = dotted.rsplit(".", 1)[-1]
                if dotted in ("asyncio.sleep", "asyncio.gather") \
                        or (leaf in local_coroutines and "." not in dotted):
                    self.emit(node,
                              f"coroutine {dotted or leaf}(...) is never "
                              f"awaited: the call builds a coroutine "
                              f"object and drops it, so the work never "
                              f"runs")
                    continue
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            leaf = dotted.rsplit(".", 1)[-1] if dotted else ""
            blocking = leaf in _BLOCKING_LEAVES \
                or any(dotted.startswith(p) or dotted == p.rstrip(".")
                       for p in _BLOCKING_PREFIXES)
            if leaf == "shutdown" \
                    and any(kw.arg == "wait"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                            for kw in node.keywords):
                blocking = True
            if blocking:
                self.emit(node,
                          f"blocking call {dotted or leaf}(...) inside "
                          f"async def {fn.name}: it stalls the event "
                          f"loop for every in-flight request; offload "
                          f"via loop.run_in_executor")

    @staticmethod
    def _own_nodes(fn: ast.AsyncFunctionDef):
        """Walk ``fn``'s body without descending into nested function
        scopes (offload lambdas/defs legitimately block — in the
        executor thread, not the event loop)."""
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
