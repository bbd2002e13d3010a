"""Symbolic shape & charge-consistency analysis (rules RS121, RS123).

The cost model behind every figure is hand-written: ``gemm_seconds(m,
n, k)`` calls whose arguments must agree with the shapes of the
operands actually multiplied.  Nothing ties the two together at
runtime — a transposed argument charges the
wrong seconds and every downstream timing curve silently drifts.  This
pass closes the gap with a forward abstract interpretation over a
**symbolic shape lattice**:

- dimensions are *symbols* (the paper's ``m, n, k, l``) plus three
  structured forms — integer constants, ``local(d)`` for
  ``local_rows(d)`` row chunks on the multi-GPU executor, and
  ``sum(seq[0])`` for stacked-batch totals like ``sum(shape_of(o)[0]
  for o in omegas)``;
- facts are seeded at ``l, m = shape_of(x)`` destructurings, at
  ``SymArray((r, c))`` constructors, at ``@shaped(returns=, params=)``
  declarations (:func:`repro.analysis.annotations.shaped`), and at the
  matmul contract itself (``_mm(a, b)`` raises ``ShapeError`` unless
  ``cols(a) == rows(b)``, so the pass may *unify* those dimensions);
- equality is a union-find over symbols; rules fire only on *definite*
  mismatches between fully-resolved dimension triples, so an unknown
  dimension never convicts.

Rules emitted here (per-file shims live in
:mod:`repro.analysis.rules_shapes`; RS122/RS125 are per-file checkers
there):

======  ==============================================================
RS121   charged-kernel shape mismatch: the ``(m, n, k)`` triple passed
        to ``gemm_seconds``/``gemm_flops``/``_t_gemm`` matches no GEMM
        actually computed in the function (or a ``@shaped`` return
        declaration is contradicted by the inferred return shape)
RS123   uncharged/double-charged branches: a GEMM-class math op
        reachable both with and without a preceding charge, or a
        conditional that computes in both arms but charges in one
======  ==============================================================

Whether the charged per-phase totals agree with the Figure 5 closed
forms is not a static question: ``repro-bench analyze --audit-costs``
(:mod:`repro.analysis.audit`) runs the executor symbolically and
compares what it actually charged.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import FunctionInfo, ModuleInfo, SymbolTable, call_name
from .dataflow import RawFinding

__all__ = ["ShapeAnalysis", "Dim", "unify", "same"]


RULE_SHAPE = "RS121"
RULE_BRANCH = "RS123"

#: Call leaves whose first three positional arguments are a charged
#: GEMM dimension triple.
_CHARGE_TRIPLES = ("gemm_seconds", "gemm_flops", "cholesky_seconds",
                   "_t_gemm")

#: Call leaves that submit modeled time (the RS123 charge events).
_T_HOOK = re.compile(r"^_t_[a-z0-9_]+$")
_CHARGE_LEAVES = {"submit", "submit_group", "charge",
                  "_charge_all", "_charge_comm", "_local_gemm"}

#: Backend methods that are GEMM-class math (the RS121/RS123 ops).
_BACKEND_MATH = {"gemm", "syrk", "trsm", "matmul"}

#: Shape-preserving wrappers the pass sees through.
_PASSTHROUGH = {"to_host", "to_device", "asarray", "ascontiguousarray",
                "array", "ensure_all_finite", "as_2d_float"}


# ---------------------------------------------------------------------------
# The dimension lattice: union-find over symbolic dims
# ---------------------------------------------------------------------------

class Dim:
    """One symbolic dimension.

    ``kind`` is ``"sym"`` (a named symbol), ``"const"`` (an integer
    literal), ``"local"`` (``local_rows(inner)``) or ``"sumof"``
    (``sum(shape_of(o)[axis] for o in seq)``).  ``known`` marks dims
    that name a real quantity (a destructured axis, a declared symbol);
    fresh placeholders for unanalyzable expressions stay unknown and
    never participate in a definite verdict.
    """

    __slots__ = ("kind", "name", "value", "inner", "seq", "axis",
                 "known", "_parent")

    def __init__(self, kind: str = "sym", name: str = "",
                 value: Optional[int] = None,
                 inner: Optional["Dim"] = None,
                 seq: str = "", axis: int = 0, known: bool = True):
        self.kind = kind
        self.name = name
        self.value = value
        self.inner = inner
        self.seq = seq
        self.axis = axis
        self.known = known
        self._parent = self


def _find(d: Dim) -> Dim:
    root = d
    while root._parent is not root:
        root = root._parent
    while d._parent is not d:
        d._parent, d = root, d._parent
    return root


def unify(a: Optional[Dim], b: Optional[Dim]) -> None:
    """Record that two dimensions are equal (the matmul contract)."""
    if a is None or b is None:
        return
    ra, rb = _find(a), _find(b)
    if ra is rb:
        return
    # Prefer a structured/known representative so names survive.
    if (rb.kind != "sym" and ra.kind == "sym") \
            or (rb.known and not ra.known):
        ra, rb = rb, ra
    rb._parent = ra
    if rb.known:
        ra.known = True
    if not ra.name and rb.name:
        ra.name = rb.name


def same(a: Optional[Dim], b: Optional[Dim]) -> bool:
    """Definitely-equal under the recorded unifications."""
    if a is None or b is None:
        return False
    ra, rb = _find(a), _find(b)
    if ra is rb:
        return True
    if ra.kind == "const" and rb.kind == "const":
        return ra.value == rb.value
    if ra.kind == "local" and rb.kind == "local":
        return same(ra.inner, rb.inner)
    if ra.kind == "sumof" and rb.kind == "sumof":
        return ra.seq == rb.seq and ra.axis == rb.axis
    return False


def _known(d: Optional[Dim]) -> bool:
    if d is None:
        return False
    r = _find(d)
    if r.kind == "local":
        return _known(r.inner)
    return r.known


def dim_repr(d: Optional[Dim]) -> str:
    if d is None:
        return "?"
    r = _find(d)
    if r.kind == "const":
        return str(r.value)
    if r.kind == "local":
        return f"local({dim_repr(r.inner)})"
    if r.kind == "sumof":
        return f"sum({r.seq}[{r.axis}])"
    return r.name or "?"


# ---------------------------------------------------------------------------
# Per-function forward shape flow (RS121 + RS123)
# ---------------------------------------------------------------------------

class _ShapeFlow:
    """Walks one function, tracking variable shapes and the charge
    interval (min/max charges issued so far on any path)."""

    def __init__(self, analysis: "ShapeAnalysis", mod: ModuleInfo,
                 fn: FunctionInfo):
        self.analysis = analysis
        self.table = analysis.table
        self.mod = mod
        self.fn = fn
        #: var -> ("arr", (Dim, Dim)) | ("dim", Dim) | ("shapetup", tuple)
        self.env: Dict[str, Tuple[str, object]] = {}
        #: sequence var -> element shape (for stacked batches).
        self.elem_shapes: Dict[str, Tuple[Dim, Dim]] = {}
        self._consts: Dict[int, Dim] = {}
        self.decl_syms: Dict[str, Dim] = {}
        self.bound_syms: Set[str] = set()
        self.charges: List[Tuple[Tuple[Dim, Dim, Dim], ast.Call]] = []
        self.ops: List[Tuple[Tuple[Dim, Dim, Dim], ast.AST]] = []
        self.lo = 0
        self.hi = 0
        self.timed = _timed_scope(mod)
        self._seen_if: Set[int] = set()

    # -- dim/shape helpers -----------------------------------------------
    def fresh(self, name: str = "", known: bool = False) -> Dim:
        return Dim("sym", name=name, known=known)

    def const(self, value: int) -> Dim:
        if value not in self._consts:
            self._consts[value] = Dim("const", value=value)
        return self._consts[value]

    def decl_sym(self, symbol: str) -> Dim:
        if symbol not in self.decl_syms:
            self.decl_syms[symbol] = Dim("sym", name=symbol, known=True)
        return self.decl_syms[symbol]

    def var_shape(self, name: str) -> Tuple[Dim, Dim]:
        tagged = self.env.get(name)
        if tagged is not None and tagged[0] == "arr":
            return tagged[1]
        shape = (self.fresh(f"{name}.0"), self.fresh(f"{name}.1"))
        self.env[name] = ("arr", shape)
        return shape

    def elem_shape(self, seq: str) -> Tuple[Dim, Dim]:
        if seq not in self.elem_shapes:
            self.elem_shapes[seq] = (
                Dim("sym", name=f"{seq}[i].0", known=True),
                Dim("sym", name=f"{seq}[i].1", known=True))
        return self.elem_shapes[seq]

    def shape_of_expr(self, node: ast.expr) -> Optional[Tuple[Dim, Dim]]:
        val = self.eval(node)
        if val is not None and val[0] == "arr":
            return val[1]
        if isinstance(node, ast.Name):
            return self.var_shape(node.id)
        return None

    def dim_of_value(self, node: ast.expr,
                     val: Optional[Tuple[str, object]]) -> Optional[Dim]:
        if val is not None and val[0] == "dim":
            return val[1]
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return self.const(node.value)
        return None

    # -- analysis entry ---------------------------------------------------
    def analyze(self) -> None:
        self._seed_params()
        try:
            for stmt in self.fn.node.body:
                self.stmt(stmt)
        except RecursionError:  # pragma: no cover - pathological nesting
            return
        self._check_charges()

    def _seed_params(self) -> None:
        decl = self.fn.shaped
        for pname in self.fn.params:
            shape_decl = decl.get(pname)
            if shape_decl is None:
                continue
            if isinstance(shape_decl, str):
                self.env[pname] = ("dim", self.decl_sym(shape_decl))
                self.bound_syms.add(shape_decl)
            elif isinstance(shape_decl, tuple) and len(shape_decl) == 2:
                self.env[pname] = ("arr", (self.decl_sym(shape_decl[0]),
                                           self.decl_sym(shape_decl[1])))
                self.bound_syms.update(shape_decl)

    def _bind(self, target: ast.expr, value_node: ast.expr,
              val: Optional[Tuple[str, object]]) -> None:
        if isinstance(target, ast.Name):
            if val is not None:
                self.env[target.id] = val
            else:
                self.env.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            # ``l, m = shape_of(x)``: name the axes and mark them known
            # — this is the pass's main seeding point.
            if val is not None and val[0] in ("shapetup", "arr") \
                    and len(target.elts) == len(val[1]):
                for elt, dim in zip(target.elts, val[1]):
                    if isinstance(elt, ast.Name):
                        root = _find(dim)
                        root.known = True
                        # The destructured name is the human name for
                        # this axis; it wins over any placeholder.
                        root.name = elt.id
                        self.env[elt.id] = ("dim", dim)
                return
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.env.pop(elt.id, None)

    # -- statements --------------------------------------------------------
    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            val = self.eval(node.value)
            for target in node.targets:
                self._bind(target, node.value, val)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            val = self.eval(node.value)
            self._bind(node.target, node.value, val)
        elif isinstance(node, ast.AugAssign):
            self.eval(node.value)
        elif isinstance(node, ast.Expr):
            self.eval(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                val = self.eval(node.value)
                self._check_return(node, val)
        elif isinstance(node, ast.If):
            self._stmt_if(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.eval(node.iter)
            if isinstance(node.target, ast.Name) \
                    and isinstance(node.iter, ast.Name):
                self.env[node.target.id] = (
                    "arr", self.elem_shape(node.iter.id))
            pre_lo = self.lo
            for child in node.body:
                self.stmt(child)
            for child in node.orelse:
                self.stmt(child)
            # Zero-iteration possibility: charges inside may not happen.
            self.lo = pre_lo
        elif isinstance(node, ast.While):
            self.eval(node.test)
            pre_lo = self.lo
            for child in node.body:
                self.stmt(child)
            self.lo = pre_lo
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.eval(item.context_expr)
            for child in node.body:
                self.stmt(child)
        elif isinstance(node, ast.Try):
            for child in node.body:
                self.stmt(child)
            for handler in node.handlers:
                for child in handler.body:
                    self.stmt(child)
            for child in node.orelse + node.finalbody:
                self.stmt(child)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            return  # nested scopes are out of model
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def _stmt_if(self, node: ast.If) -> None:
        self.eval(node.test)
        saved_env = dict(self.env)
        lo0, hi0 = self.lo, self.hi
        for child in node.body:
            self.stmt(child)
        body_env, body_lo, body_hi = self.env, self.lo, self.hi
        self.env = dict(saved_env)
        self.lo, self.hi = lo0, hi0
        for child in node.orelse:
            self.stmt(child)
        else_env, else_lo, else_hi = self.env, self.lo, self.hi
        self.env = _merge_env(body_env, else_env)
        self.lo = min(body_lo, else_lo)
        self.hi = max(body_hi, else_hi)
        self._check_if_arms(node)

    def _check_if_arms(self, node: ast.If) -> None:
        """RS123: both arms compute, only one charges."""
        if not self.timed or id(node) in self._seen_if:
            return
        self._seen_if.add(id(node))
        if not node.orelse:
            return
        body_math = _first_math(node.body)
        else_math = _first_math(node.orelse)
        if body_math is None or else_math is None:
            return
        body_charges = _contains_charge(node.body)
        else_charges = _contains_charge(node.orelse)
        if body_charges == else_charges:
            return
        anchor = else_math if body_charges else body_math
        self.analysis.emit(
            RULE_BRANCH, self.mod, anchor,
            "both arms of this conditional compute GEMM-class math but "
            "only one arm charges the kernel model; the uncharged arm's "
            "seconds vanish from the modeled timeline",
            self.fn.qualname)

    # -- expressions -------------------------------------------------------
    def eval(self, node: ast.expr) -> Optional[Tuple[str, object]]:
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) \
                    and not isinstance(node.value, bool):
                return ("dim", self.const(node.value))
            return None
        if isinstance(node, ast.Attribute):
            base = self.eval(node.value)
            if base is not None and base[0] == "arr":
                if node.attr == "T":
                    return ("arr", (base[1][1], base[1][0]))
                if node.attr == "shape":
                    return ("shapetup", base[1])
            if node.attr == "shape" and isinstance(node.value, ast.Name):
                return ("shapetup", self.var_shape(node.value.id))
            return None
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            if isinstance(node.op, ast.MatMult):
                ls = left[1] if left and left[0] == "arr" else \
                    self.shape_of_expr(node.left)
                rs = right[1] if right and right[0] == "arr" else \
                    self.shape_of_expr(node.right)
                return self._math_op(node, ls, rs)
            return None
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self.eval(elt)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a = self.eval(node.body)
            b = self.eval(node.orelse)
            if a is not None and b is not None and a[0] == b[0] == "dim" \
                    and same(a[1], b[1]):
                return a
            return None
        # Generic: walk children for nested charges/ops.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return None

    def _comprehension(self, node) -> None:
        saved: Dict[str, Optional[Tuple[str, object]]] = {}
        for gen in node.generators:
            self.eval(gen.iter)
            if isinstance(gen.target, ast.Name) \
                    and isinstance(gen.iter, ast.Name):
                saved[gen.target.id] = self.env.get(gen.target.id)
                self.env[gen.target.id] = (
                    "arr", self.elem_shape(gen.iter.id))
            for cond in gen.ifs:
                self.eval(cond)
        self.eval(node.elt)
        for name, old in saved.items():
            if old is None:
                self.env.pop(name, None)
            else:
                self.env[name] = old
        return None

    def _subscript(self, node: ast.Subscript) -> Optional[Tuple]:
        base = self.eval(node.value)
        sl = node.slice
        if base is not None and base[0] == "shapetup":
            if isinstance(sl, ast.Constant) and isinstance(sl.value, int):
                shape = base[1]
                if 0 <= sl.value < len(shape):
                    dim = shape[sl.value]
                    _find(dim).known = True
                    return ("dim", dim)
            return None
        if base is not None and base[0] == "arr":
            rows, cols = base[1]
            if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
                r = self._slice_dim(sl.elts[0], rows)
                c = self._slice_dim(sl.elts[1], cols)
                return ("arr", (r, c))
            if isinstance(sl, ast.Slice):
                return ("arr", (self._slice_dim(sl, rows), cols))
        if sl is not None and isinstance(sl, ast.expr):
            self.eval(sl)
        return None

    def _slice_dim(self, sl: ast.expr, full: Dim) -> Dim:
        if isinstance(sl, ast.Slice):
            if sl.lower is None and sl.upper is None:
                return full
            if sl.lower is None and sl.upper is not None:
                d = self.dim_of_value(sl.upper, self.eval(sl.upper))
                if d is not None:
                    return d
            return self.fresh()
        return self.fresh()

    # -- calls -------------------------------------------------------------
    def _call(self, node: ast.Call) -> Optional[Tuple[str, object]]:
        dotted = call_name(node.func)
        leaf = dotted.rsplit(".", 1)[-1] if dotted else ""
        argvals = [self.eval(a) for a in node.args]
        kwvals = {kw.arg: self.eval(kw.value) for kw in node.keywords
                  if kw.arg}
        if not dotted:
            self.eval(node.func)

        # sum(shape_of(o)[axis] for o in seq) -> a SumOf dimension.
        if leaf == "sum" and len(node.args) == 1:
            sd = self._sum_dim(node.args[0])
            if sd is not None:
                return ("dim", sd)

        if leaf == "shape_of" and node.args:
            shape = self.shape_of_expr(node.args[0])
            if shape is not None:
                return ("shapetup", shape)
            return None

        if leaf == "local_rows" and node.args:
            inner = self.dim_of_value(node.args[0], argvals[0])
            if inner is not None:
                return ("dim", Dim("local", inner=inner,
                                   known=_known(inner)))
            return None

        if leaf == "SymArray" and node.args \
                and isinstance(node.args[0], (ast.Tuple, ast.List)) \
                and len(node.args[0].elts) == 2:
            dims = []
            for elt in node.args[0].elts:
                d = self.dim_of_value(elt, self.eval(elt))
                dims.append(d if d is not None else self.fresh())
            return ("arr", tuple(dims))

        if leaf in _PASSTHROUGH and node.args:
            first = argvals[0]
            if first is not None and first[0] == "arr":
                return first
            if isinstance(node.args[0], ast.Name):
                return ("arr", self.var_shape(node.args[0].id))
            return None

        # GEMM-class math: _mm(x, y) / <...>.backend.gemm(x, y) / x @ y.
        if self._is_math_call(node, dotted, leaf) and len(node.args) >= 2:
            ls = self.shape_of_expr(node.args[0])
            rs = self.shape_of_expr(node.args[1])
            return self._math_op(node, ls, rs)

        # Charged dimension triples.
        if leaf in _CHARGE_TRIPLES and len(node.args) >= 3:
            dims = []
            for arg, val in zip(node.args[:3], argvals[:3]):
                dims.append(self.dim_of_value(arg, val))
            if all(d is not None for d in dims):
                self.charges.append((tuple(dims), node))
            if leaf == "_t_gemm":
                self._charge_event(node)
            return None

        # RS123 charge events.
        if self._is_charge_call(node, dotted, leaf):
            self._charge_event(node)
            return None

        # Calls into @shaped-declared functions.
        callee = self._resolve_callee(node, dotted, leaf)
        if callee is not None and callee.shaped:
            return self._apply_shaped(callee, node, dotted, argvals, kwvals)
        return None

    def _sum_dim(self, arg: ast.expr) -> Optional[Dim]:
        if not isinstance(arg, ast.GeneratorExp) or len(arg.generators) != 1:
            return None
        gen = arg.generators[0]
        if not (isinstance(gen.target, ast.Name)
                and isinstance(gen.iter, ast.Name) and not gen.ifs):
            return None
        elt = arg.elt
        axis = None
        if isinstance(elt, ast.Subscript) \
                and isinstance(elt.slice, ast.Constant) \
                and isinstance(elt.slice.value, int):
            base = elt.value
            axis = elt.slice.value
            ok = (isinstance(base, ast.Call)
                  and call_name(base.func).rsplit(".", 1)[-1] == "shape_of"
                  and base.args
                  and isinstance(base.args[0], ast.Name)
                  and base.args[0].id == gen.target.id) \
                or (isinstance(base, ast.Attribute)
                    and base.attr == "shape"
                    and isinstance(base.value, ast.Name)
                    and base.value.id == gen.target.id)
            if not ok:
                return None
        if axis is None:
            return None
        self.elem_shape(gen.iter.id)  # ensure element dims exist
        return Dim("sumof", seq=gen.iter.id, axis=axis, known=True)

    def _is_math_call(self, node: ast.Call, dotted: str, leaf: str) -> bool:
        if leaf == "_mm":
            return True
        if leaf in _BACKEND_MATH and isinstance(node.func, ast.Attribute):
            receiver = call_name(node.func.value)
            return receiver.split(".")[-1] == "backend"
        return False

    def _is_charge_call(self, node: ast.Call, dotted: str,
                        leaf: str) -> bool:
        if not isinstance(node.func, ast.Attribute):
            return leaf in ("submit", "submit_group")
        return bool(_T_HOOK.match(leaf)) or leaf in _CHARGE_LEAVES

    def _charge_event(self, node: ast.Call) -> None:
        self.lo += 1
        self.hi += 1

    def _math_op(self, node: ast.AST,
                 ls: Optional[Tuple[Dim, Dim]],
                 rs: Optional[Tuple[Dim, Dim]]) -> Optional[Tuple]:
        if ls is None or rs is None:
            return None
        # The matmul contract: cols(x) == rows(y) or ShapeError.
        unify(ls[1], rs[0])
        self.ops.append(((ls[0], rs[1], ls[1]), node))
        if self.timed and self.lo == 0 and self.hi > 0:
            self.analysis.emit(
                RULE_BRANCH, self.mod, node,
                "GEMM-class math reachable both with and without a "
                "preceding kernel charge; on the uncharged path its "
                "seconds never reach the modeled timeline",
                self.fn.qualname)
        return ("arr", (ls[0], rs[1]))

    # -- @shaped resolution ------------------------------------------------
    def _resolve_callee(self, node: ast.Call, dotted: str,
                        leaf: str) -> Optional[FunctionInfo]:
        if not dotted:
            return None
        if dotted.startswith("self.") and dotted.count(".") == 1 \
                and self.fn.class_name:
            cls = self.mod.classes.get(self.fn.class_name)
            if cls is not None:
                return self.table.resolve_method(self.mod, cls, leaf)
            return None
        fn = self.table.resolve_function(self.mod, dotted)
        if fn is not None:
            return fn
        if "." in dotted:
            cands = [f for f in self.table.methods_named(leaf) if f.shaped]
            if cands and all(c.shaped == cands[0].shaped for c in cands):
                return cands[0]
        return None

    def _apply_shaped(self, callee: FunctionInfo, node: ast.Call,
                      dotted: str, argvals, kwvals
                      ) -> Optional[Tuple[str, object]]:
        decl = callee.shaped
        params = callee.params
        if callee.is_method and "." in dotted and params \
                and params[0] in ("self", "cls"):
            params = params[1:]
        binding: Dict[str, Dim] = {}

        def sym(s: str) -> Dim:
            if s not in binding:
                binding[s] = Dim("sym", name=s, known=True)
            return binding[s]

        argmap: Dict[str, Tuple[ast.expr, object]] = {}
        for i, (arg, val) in enumerate(zip(node.args, argvals)):
            if i < len(params):
                argmap[params[i]] = (arg, val)
        for kw in node.keywords:
            if kw.arg:
                argmap[kw.arg] = (kw.value, kwvals.get(kw.arg))

        for pname, shape_decl in decl.items():
            if pname == "return" or pname not in argmap:
                continue
            arg, val = argmap[pname]
            if isinstance(shape_decl, str):
                d = self.dim_of_value(arg, val)
                unify(sym(shape_decl), d)
            elif isinstance(shape_decl, tuple) and len(shape_decl) == 2:
                shape = val[1] if (val is not None and val[0] == "arr") \
                    else self.shape_of_expr(arg)
                if shape is not None:
                    unify(sym(shape_decl[0]), shape[0])
                    unify(sym(shape_decl[1]), shape[1])

        ret = decl.get("return")
        if isinstance(ret, str):
            return ("dim", sym(ret))
        if isinstance(ret, tuple) and len(ret) == 2:
            return ("arr", (sym(ret[0]), sym(ret[1])))
        return None

    # -- verdicts ----------------------------------------------------------
    def _check_return(self, node: ast.Return,
                      val: Optional[Tuple[str, object]]) -> None:
        ret = self.fn.shaped.get("return")
        if not (isinstance(ret, tuple) and len(ret) == 2):
            return
        if val is None or val[0] != "arr":
            return
        inferred = val[1]
        for symbol, got in zip(ret, inferred):
            if symbol not in self.bound_syms:
                continue
            want = self.decl_sym(symbol)
            if _known(got) and not same(want, got):
                self.analysis.emit(
                    RULE_SHAPE, self.mod, node,
                    f"@shaped declares this function returns "
                    f"({', '.join(ret)}) but the body returns "
                    f"({dim_repr(inferred[0])}, {dim_repr(inferred[1])})",
                    self.fn.qualname)
                return

    def _compatible(self, c: Dim, o: Dim) -> bool:
        if same(c, o):
            return True
        rc = _find(c)
        if rc.kind == "local" and same(rc.inner, o):
            return True
        if rc.kind == "sumof":
            elems = self.elem_shapes.get(rc.seq)
            if elems is not None and rc.axis < len(elems) \
                    and same(elems[rc.axis], o):
                return True
        return False

    def _check_charges(self) -> None:
        known_ops = [(triple, n) for triple, n in self.ops
                     if all(_known(d) for d in triple)]
        if not known_ops:
            return
        for triple, node in self.charges:
            if not all(_known(d) for d in triple):
                continue
            if any(all(self._compatible(c, o)
                       for c, o in zip(triple, op_triple))
                   for op_triple, _ in known_ops):
                continue
            charged = ", ".join(dim_repr(d) for d in triple)
            nearest = ", ".join(dim_repr(d) for d in known_ops[0][0])
            self.analysis.emit(
                RULE_SHAPE, self.mod, node,
                f"charged GEMM dimensions ({charged}) match no operand "
                f"shape computed in this function (nearest op is "
                f"({nearest})); the kernel model is billing the wrong "
                f"problem size",
                self.fn.qualname)


def _merge_env(a: Dict[str, Tuple], b: Dict[str, Tuple]) -> Dict[str, Tuple]:
    out: Dict[str, Tuple] = {}
    for name, va in a.items():
        vb = b.get(name)
        if vb is None or va[0] != vb[0]:
            continue
        if va[0] == "dim" and same(va[1], vb[1]):
            out[name] = va
        elif va[0] in ("arr", "shapetup") \
                and all(same(x, y) for x, y in zip(va[1], vb[1])):
            out[name] = va
    return out


def _timed_scope(mod: ModuleInfo) -> bool:
    if "repro/gpu/" in mod.relpath:
        return True
    targets = set(mod.imports.values()) | set(mod.from_imports.values())
    return any(t == "repro.gpu.streams"
               or t.startswith("repro.gpu.streams.")
               for t in targets)


def _is_math_node(node: ast.AST) -> bool:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return True
    if isinstance(node, ast.Call):
        dotted = call_name(node.func)
        leaf = dotted.rsplit(".", 1)[-1] if dotted else ""
        if leaf == "_mm":
            return True
        if leaf in _BACKEND_MATH and isinstance(node.func, ast.Attribute):
            return call_name(node.func.value).split(".")[-1] == "backend"
    return False


def _is_charge_node(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = call_name(node.func)
    leaf = dotted.rsplit(".", 1)[-1] if dotted else ""
    if isinstance(node.func, ast.Attribute):
        return bool(_T_HOOK.match(leaf)) or leaf in _CHARGE_LEAVES
    return leaf in ("submit", "submit_group")


def _first_math(stmts: Sequence[ast.stmt]) -> Optional[ast.AST]:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if _is_math_node(node):
                return node
    return None


def _contains_charge(stmts: Sequence[ast.stmt]) -> bool:
    return any(_is_charge_node(node)
               for stmt in stmts for node in ast.walk(stmt))


# ---------------------------------------------------------------------------
# The project pass
# ---------------------------------------------------------------------------

class ShapeAnalysis:
    """Runs the symbolic shape pass over a :class:`SymbolTable`.

    Same engine contract as
    :class:`repro.analysis.dataflow.ProjectAnalysis`: construct, call
    :meth:`run`, read ``findings_by_file``; the per-file RS121/RS123
    shims in :mod:`repro.analysis.rules_shapes` replay the raw findings
    through the noqa machinery.
    """

    def __init__(self, table: SymbolTable):
        self.table = table
        self.findings: List[RawFinding] = []
        self._seen_keys: Set[Tuple] = set()

    def run(self) -> "ShapeAnalysis":
        for mod in self.table.all_modules:
            for fn in mod.all_functions:
                _ShapeFlow(self, mod, fn).analyze()
        self.findings.sort(key=lambda f: (f.relpath, f.line, f.rule, f.col))
        return self

    @property
    def findings_by_file(self) -> Dict[str, List[RawFinding]]:
        out: Dict[str, List[RawFinding]] = {}
        for f in self.findings:
            out.setdefault(f.relpath, []).append(f)
        return out

    def emit(self, rule: str, mod: ModuleInfo, node: ast.AST,
             message: str, context: str) -> None:
        raw = RawFinding(rule=rule, relpath=mod.relpath,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0),
                         message=message, context=context)
        if raw.key() in self._seen_keys:
            return
        self._seen_keys.add(raw.key())
        self.findings.append(raw)
