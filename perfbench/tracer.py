"""Per-layer tracing of the qtstirling package, installed from outside it.

`Tracer.install()` wraps public functions of the package modules and
rebinds each wrapper in every `qtstirling.*` namespace that holds the
original, because the modules import each other's names with
`from .x import y`.  A wrapped call is a span: its self time is its duration
minus the time of the wrapped calls made inside it.  Spans are aggregated in
memory per layer (calls and self time) and read out once, by `metrics()`,
when the run ends.

RationalFn operators and sympy's polynomial gcd get no span each: they are
counters (calls and time) kept beside the spans, and their time stays in
the self time of the span that called them.  Among themselves they are
timed as self time, so `algebra.mul.s` leaves out the gcd calls a product
makes.  An operator that another operator of the same layer calls
(`a - b` calls `a + (-b)`) counts as one call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("algebra", "partitions", "pochhammer", "wfunctions", "qtnumbers",
           "stirling", "verify", "reports")

#: layer -> (module, public functions timed as that layer)
SPANS = {
    "algebra.subs": ("algebra", ("subs_rational",)),
    "algebra.flip": ("algebra", ("flip_qt",)),
    "algebra.limit": ("algebra", ("limit_q_to_1", "substitute_t_eq_q_pow")),
    "algebra.evaluate": ("algebra", ("evaluate",)),
    "algebra.str": ("algebra", ("canonical_str",)),
    "pochhammer.poch": ("pochhammer", ("poch", "poch_partition", "poch_partition_flipped",
                                       "poch_multi")),
    "partitions.enum": ("partitions", ("subpartitions", "horizontal_strip_predecessors",
                                       "partitions_between", "partitions_in_box")),
    "wfunctions.w": ("wfunctions", ("w_multi", "w_hat_multi", "w_staircase")),
    "wfunctions.skew": ("wfunctions", ("w_skew_single", "w_hat_skew_single", "h_factor")),
    "wfunctions.w_bar": ("wfunctions", ("w_bar",)),
    "wfunctions.duality": ("wfunctions", ("duality_check",)),
    "qtnumbers.binomial": ("qtnumbers", ("qt_binomial",)),
    "qtnumbers.bracket": ("qtnumbers", ("qt_bracket", "bracket_rect")),
    "qtnumbers.products": ("qtnumbers", ("h_product", "g_product")),
    "stirling.s": ("stirling", ("s1", "s2")),
    "stirling.uv": ("stirling", ("u_matrix", "v_matrix")),
    "stirling.limit": ("stirling", ("u_limit", "v_limit", "u_limit_direct", "v_limit_direct",
                                    "f_factor")),
    "stirling.valgebra": ("stirling", ("valgebra_multiply",)),
    "verify.parse": ("verify", ("parse_expression",)),
    "reports.compare": ("reports", ("equality_report", "zero_report")),
}

#: layer -> RationalFn methods timed as that layer
OPERATORS = {
    "algebra.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "algebra.mul": ("__mul__", "__rmul__"),
    "algebra.div": ("__truediv__", "__rtruediv__", "inverse"),
    "algebra.pow": ("__pow__",),
}

#: hit-ratio groups over the memos found by introspection: name -> qualified names
MEMO_GROUPS = {
    "wfunctions.skew.hit_ratio": ("wfunctions.w_skew_single", "wfunctions.w_hat_skew_single",
                                  "wfunctions.h_factor"),
    "qtnumbers.products.hit_ratio": ("qtnumbers.h_product", "qtnumbers.g_product"),
}

LAYERS = ("algebra.gcd", *OPERATORS, *SPANS)


def metric_names(identity_ids) -> list[str]:
    """Every per-layer metric, in print order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.s"]
    names += ["algebra.gcd.nontrivial_frac", "algebra.canon.calls", "algebra.mul.out_terms",
              *MEMO_GROUPS, "stirling.memo.hit_ratio", "memo.entries", "memo.hit_ratio"]
    names += [f"verify.identity.{i}.s" for i in identity_ids]
    names.append("trace.overhead_frac")
    return names


def unit_of(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith(".out_terms"):
        return "terms"
    return "count"


class Tracer:
    """Spans and counters of one traced run; create, `install()`, run, read `metrics()`."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer, start, child time]
        self.op_stack: list[list] = []  # open operator and gcd calls, same frames
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.gcd_nontrivial = 0
        self.canon = 0
        self.mul_terms = 0
        self.memos: dict[str, object] = {}
        self.dict_memos: dict[str, dict] = {}

    # -- span wrappers -----------------------------------------------------
    def _close(self, frame: list, stack: list, count: bool = True):
        dur = time.perf_counter() - frame[1]
        stack.pop()
        if count:
            self.calls[frame[0]] += 1
        self.self_s[frame[0]] += dur - frame[2]
        if stack:
            stack[-1][2] += dur

    def _timed(self, layer: str, fn, stack: list, merge_nested: bool):
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if merge_nested and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, stack)

        return wrapper

    def span(self, layer: str, fn):
        return self._timed(layer, fn, self.stack, merge_nested=False)

    def op(self, layer: str, fn):
        return self._timed(layer, fn, self.op_stack, merge_nested=True)

    def generator_span(self, layer: str, fn):
        """Time an enumerator across its iteration, not at generator creation."""
        stack, close, calls = self.stack, self._close, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            it = fn(*args, **kwargs)

            def drive():
                while True:
                    frame = [layer, time.perf_counter(), 0.0]
                    stack.append(frame)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(frame, stack, count=False)
                    yield value

            return drive()

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        mods = {m: importlib.import_module(f"qtstirling.{m}") for m in MODULES}
        namespaces = [importlib.import_module("qtstirling"), *mods.values()]
        self._find_memos(mods)

        replace = {}
        for layer, (mod, names) in SPANS.items():
            for name in names:
                fn = getattr(mods[mod], name, None)
                if fn is None:  # gone from the package: the layer reads 0
                    continue
                if inspect.isgeneratorfunction(fn):
                    replace[id(fn)] = self.generator_span(layer, fn)
                else:
                    replace[id(fn)] = self.span(layer, fn)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(ns, name, wrapper)

        algebra = mods["algebra"]
        rf = algebra.RationalFn
        for layer, methods in OPERATORS.items():
            for name in methods:
                if name in rf.__dict__:
                    setattr(rf, name, self.op(layer, rf.__dict__[name]))
        self._count_products(rf)
        self._count_canonicalisations(algebra)
        self._trace_gcd(type(algebra.ONE.num))

    def _find_memos(self, mods):
        """Every lru_cache and module-level cache dict reachable from the modules."""
        for mod_name, mod in mods.items():
            for name, value in vars(mod).items():
                if callable(getattr(value, "cache_info", None)):
                    owner = getattr(value, "__module__", "").rpartition(".")[2]
                    self.memos.setdefault(f"{owner}.{value.__name__}", value)
                elif isinstance(value, dict) and "cache" in name.lower():
                    self.dict_memos[f"{mod_name}.{name}"] = value

    def _count_products(self, rf):
        mul = rf.__mul__
        tracer = self

        @functools.wraps(mul)
        def counted(a, b):
            out = mul(a, b)
            if isinstance(out, rf):
                tracer.mul_terms += len(out.num) + len(out.den)
            return out

        rf.__mul__ = rf.__rmul__ = counted

    def _count_canonicalisations(self, algebra):
        """Count calls of the reduction RationalFn construction runs unless told not to."""
        canonical = getattr(algebra, "_canonical", None)
        if canonical is None:
            return
        tracer = self

        @functools.wraps(canonical)
        def counted(*args, **kwargs):
            tracer.canon += 1
            return canonical(*args, **kwargs)

        algebra._canonical = counted

    def _trace_gcd(self, poly_cls):
        gcd = poly_cls.gcd
        timed = self.op("algebra.gcd", gcd)
        tracer = self

        @functools.wraps(gcd)
        def counted(f, g):
            out = timed(f, g)
            if out != f.ring.one:
                tracer.gcd_nontrivial += 1
            return out

        poly_cls.gcd = counted

    # -- read-out ----------------------------------------------------------
    def _hit_ratio(self, names) -> float:
        hits = misses = 0
        for name in names:
            if name not in self.memos:
                continue
            info = self.memos[name].cache_info()
            hits += info.hits
            misses += info.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self, identity_seconds: dict[str, float], identity_ids) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.s"] = self.self_s.get(layer, 0.0)
        gcd_calls = self.calls.get("algebra.gcd", 0)
        mul_calls = self.calls.get("algebra.mul", 0)
        out["algebra.gcd.nontrivial_frac"] = self.gcd_nontrivial / gcd_calls if gcd_calls else 0.0
        out["algebra.canon.calls"] = self.canon
        out["algebra.mul.out_terms"] = self.mul_terms / mul_calls if mul_calls else 0.0
        for metric, names in MEMO_GROUPS.items():
            out[metric] = self._hit_ratio(names)
        out["stirling.memo.hit_ratio"] = self._hit_ratio(
            [n for n in self.memos if n.startswith("stirling.")])
        out["memo.entries"] = (sum(m.cache_info().currsize for m in self.memos.values())
                               + sum(len(d) for d in self.dict_memos.values()))
        out["memo.hit_ratio"] = self._hit_ratio(list(self.memos))
        for i in identity_ids:
            out[f"verify.identity.{i}.s"] = identity_seconds.get(i, 0.0)
        return out
