"""Span recording around negpolylog's public functions, installed from outside.

A traced run replaces every binding of each wrapped function -- the module
that defines it, every module that imported it by name, and module-level
dicts that hold it (the CLI's builder tables) -- and the RationalFunction
arithmetic methods, with a wrapper that records a span: name, start, end,
parent span and op id, plus a flag (a gcd of positive degree, or rf_eval
raising PoleError).  Spans stay in memory in flat arrays and are written
out when the run ends; self time, in raw wall seconds, is derived from
them afterwards.
``restore`` puts every original binding back.

Where each layer should show a change (layer metric -> end-to-end metric,
workload): combinatorics, algebra.rf_arith, algebra.z_ddz, algebra.substitute,
polylog.li_neg_operator/li_neg_stirling/cross_route, circular and hyperbolic
derivative_poly, ladder.exact -> ops_per_s and op_tail_ms, exact-build;
algebra.poly_gcd -> ops_per_s, exact-build; op_tail_ms, cli-session;
setup_s, numeric-eval; algebra.rf_eval, jets.*, circular/hyperbolic.route,
inverse.verify_identity, ladder.leibniz -> ops_per_s and op_p50_ms,
numeric-eval (pole_errors -> failed ops); polylog.accessor -> setup_s,
numeric-eval; op_tail_ms, cli-session; algebra.render and cli.* -> op_p50_ms
and op_tail_ms, cli-session.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from pathlib import Path

# layer name -> (module, function) pairs naming where each wrapped function is defined
FUNCTION_LAYERS = {
    "combinatorics": [("combinatorics", f) for f in ("stirling2_row", "eulerian_b_row", "binomial", "factorial")],
    "algebra.poly_gcd": [("algebra", "poly_gcd")],
    "algebra.z_ddz": [("algebra", "z_ddz")],
    "algebra.substitute": [("algebra", "substitute")],
    "algebra.rf_eval": [("algebra", "rf_eval")],
    "algebra.render": [("algebra", f) for f in ("rf_to_text", "rf_to_latex", "rf_to_json", "poly_text")],
    "polylog.accessor": [("polylog", f) for f in ("li_neg", "chi_neg", "ti_neg")],
    "polylog.li_neg_operator": [("polylog", "li_neg_operator")],
    "polylog.li_neg_stirling": [("polylog", "li_neg_stirling")],
    "polylog.cross_route": [("polylog", "chi_from_li"), ("polylog", "ti_from_chi")],
    "jets.jet_lift": [("jets", "jet_lift")],
    "jets.apply_operator_power": [("jets", "apply_operator_power")],
    "circular.route": [
        ("circular", f)
        for f in (
            "csc_derivative_eval", "csc_derivative_via_li", "csc_derivative_binomial",
            "sec_derivative_eval", "sec_derivative_via_li", "sec_derivative_binomial",
        )
    ],
    "hyperbolic.route": [
        ("hyperbolic", f)
        for f in ("csch_derivative_eval", "sech_derivative_eval", "li_relation_coth", "li_relation_tanh")
    ],
    "circular.derivative_poly": [
        ("circular", f) for f in ("cot_derivative_poly", "tan_derivative_poly", "derivative_poly_recurrence")
    ],
    "hyperbolic.derivative_poly": [("hyperbolic", f) for f in ("coth_derivative_poly", "tanh_derivative_poly")],
    "inverse.verify_identity": [("inverse", "verify_identity"), ("inverse", "verify_generic_operand")],
    "ladder.exact": [("ladder", f) for f in ("verify_ladder_exact", "chi_ladder", "ti_ladder")],
    "ladder.leibniz": [("ladder", "leibniz_csc_route")],
}

RF_ARITH_METHODS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)

LAYERS = list(FUNCTION_LAYERS) + ["algebra.rf_arith"]

SETUP_OP = -1


class Tracer:
    """Flat, append-only span store; one open-span stack (single thread)."""

    def __init__(self):
        self.names: list[str] = []  # "layer:function"
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.flag = array.array("b")
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def set_op(self, op_id: int):
        self.op_id = op_id

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str, flag_of=None, error_flag=None):
        """``fn`` recording a span per call; flagged when flag_of(result) or it raises error_flag."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, ops, flags = self.parent, self.op, self.flag

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            flags.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if error_flag is not None and isinstance(exc, error_flag):
                    flags[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if flag_of is not None and flag_of(result):
                flags[idx] = 1
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def _patch(self, holder, key, new, is_dict: bool):
        old = holder[key] if is_dict else getattr(holder, key)
        self._patches.append((holder, key, old, is_dict))
        if is_dict:
            holder[key] = new
        else:
            setattr(holder, key, new)

    def install(self, pkg: str = "negpolylog"):
        """Wrap every binding of the layer functions in the loaded ``pkg`` modules."""
        modules = [m for k, m in list(sys.modules.items()) if k == pkg or k.startswith(pkg + ".")]
        algebra = sys.modules[pkg + ".algebra"]
        errors = sys.modules[pkg + ".errors"]
        replacements = {}  # id(original) -> wrapper
        for layer, targets in FUNCTION_LAYERS.items():
            for mod_name, attr in targets:
                fn = getattr(sys.modules[f"{pkg}.{mod_name}"], attr)
                flag_of = error_flag = None
                if layer == "algebra.poly_gcd":
                    flag_of = lambda g: g.degree > 0  # noqa: E731
                elif layer == "algebra.rf_eval":
                    error_flag = errors.PoleError
                replacements[id(fn)] = (fn, self.wrap(fn, f"{layer}:{attr}", flag_of, error_flag))
        for mod in modules:
            for key, val in list(vars(mod).items()):
                hit = replacements.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, key, hit[1], False)
                elif type(val) is dict:
                    for dkey, dval in list(val.items()):
                        dhit = replacements.get(id(dval))
                        if dhit is not None and dhit[0] is dval:
                            self._patch(val, dkey, dhit[1], True)
        rf = algebra.RationalFunction
        for meth in RF_ARITH_METHODS:
            fn = rf.__dict__[meth]
            self._patch(rf, meth, self.wrap(fn, f"algebra.rf_arith:{meth}"), False)

    def restore(self):
        for holder, key, old, is_dict in reversed(self._patches):
            if is_dict:
                holder[key] = old
            else:
                setattr(holder, key, old)
        self._patches.clear()

    # -- output ------------------------------------------------------------
    def dump(self, path: Path):
        """Write the spans: a JSON header line, then the raw arrays in order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.name),
                  "arrays": ["name:H", "start:d", "end:d", "parent:i", "op:i", "flag:b"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent, self.op, self.flag):
                arr.tofile(fh)

    def stats(self) -> "SpanStats":
        return SpanStats.from_tracer(self)


class SpanStats:
    """Per-function aggregates derived from spans: calls, self time, flags, hits."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.flagged: dict[str, int] = {}
        self.leaf_calls: dict[str, int] = {}  # spans with no child span

    @classmethod
    def from_tracer(cls, tr: Tracer) -> "SpanStats":
        out = cls()
        out.add(tr.names, tr.name, tr.start, tr.end, tr.parent, tr.flag)
        return out

    @classmethod
    def from_file(cls, path: Path) -> "SpanStats":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["count"]
            arrays = []
            for spec in header["arrays"]:
                arr = array.array(spec.split(":")[1])
                arr.fromfile(fh, n)
                arrays.append(arr)
        name, start, end, parent, _op, flag = arrays
        out = cls()
        out.add(header["names"], name, start, end, parent, flag)
        return out

    def add(self, names, name, start, end, parent, flag):
        n = len(name)
        child_time = [0.0] * n
        has_child = bytearray(n)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
                has_child[p] = 1
        for i in range(n):
            key = names[name[i]]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + (end[i] - start[i]) - child_time[i]
            if flag[i]:
                self.flagged[key] = self.flagged.get(key, 0) + 1
            if not has_child[i]:
                self.leaf_calls[key] = self.leaf_calls.get(key, 0) + 1

    def merge(self, other: "SpanStats"):
        for mine, theirs in ((self.calls, other.calls), (self.self_s, other.self_s),
                             (self.flagged, other.flagged), (self.leaf_calls, other.leaf_calls)):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v

    def layer(self, layer: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k.split(":")[0] == layer)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) for every layer, zero where the layer did not run."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (int(self.layer(layer, self.calls)), "count")
            out[f"{layer}.self_s"] = (self.layer(layer, self.self_s), "s")
        gcd_calls = self.layer("algebra.poly_gcd", self.calls)
        out["algebra.poly_gcd.nontrivial_frac"] = (
            self.layer("algebra.poly_gcd", self.flagged) / gcd_calls if gcd_calls else 0.0, "ratio")
        out["algebra.rf_eval.pole_errors"] = (int(self.layer("algebra.rf_eval", self.flagged)), "count")
        # a cache hit builds nothing, so its span has no child span
        acc_calls = self.layer("polylog.accessor", self.calls)
        out["polylog.accessor.hit_frac"] = (
            self.layer("polylog.accessor", self.leaf_calls) / acc_calls if acc_calls else 0.0, "ratio")
        return out
