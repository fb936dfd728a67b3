"""Per-layer self time and counts for a traced benchmark run.

The traced run wraps public names of the ``cablejones`` package at the place
where their callers look them up, records one span per wrapped call, and puts
the originals back when the run ends.  A layer's self time is the duration of
its spans minus the part covered by spans nested inside them.  A hook whose
target no longer exists is reported as absent, not treated as an error.

Nothing here changes what the package computes: the colored Jones wrapper
only swaps the caller's memo dict for a counting one with the same contents.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


class NullTracer:
    """Stand-in for untraced runs: calls straight through."""

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Accumulates self time, inclusive time, calls and counters per layer."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._child_s = [0.0]  # time covered by nested spans, per open span

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, layer, fn, *args, **kwargs):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            nested = self._child_s.pop()
            self._child_s[-1] += elapsed
            self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - nested
            self.total_s[layer] = self.total_s.get(layer, 0.0) + elapsed
            self.calls[layer] = self.calls.get(layer, 0) + 1

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json; absent hooks read 0."""
        s, calls, n = self.self_s, self.calls, self.counts
        return {
            "jones.colored_jones_s": s.get("jones", 0.0),
            "jones.memo_hits": n.get("jones.memo_hits", 0),
            "jones.memo_misses": n.get("jones.memo_misses", 0),
            "jones.memo_oversize": n.get("jones.memo_oversize", 0),
            "trinomial.tables": calls.get("trinomial", 0),
            "trinomial.s": s.get("trinomial", 0.0),
            "laurent.acc_adds": calls.get("laurent.acc_add", 0),
            "laurent.acc_coeffs_added": n.get("laurent.acc_coeffs_added", 0),
            "laurent.acc_add_s": s.get("laurent.acc_add", 0.0),
            "laurent.acc_result_s": s.get("laurent.acc_result", 0.0),
            "laurent.mul_calls": calls.get("laurent.mul", 0),
            "laurent.mul_s": s.get("laurent.mul", 0.0),
            "laurent.div_qint_calls": calls.get("laurent.div_qint", 0),
            "laurent.div_qint_span": n.get("laurent.div_qint_span", 0),
            "laurent.div_qint_s": s.get("laurent.div_qint", 0.0),
            "laurent.eval_calls": calls.get("laurent.eval", 0),
            "laurent.eval_s": s.get("laurent.eval", 0.0),
            "laurent.powers_calls": calls.get("laurent.powers", 0),
            "laurent.powers_s": s.get("laurent.powers", 0.0),
            "laurent.derivative_calls": calls.get("laurent.derivative", 0),
            "laurent.derivative_s": s.get("laurent.derivative", 0.0),
            "laurent.exact_divide_calls": calls.get("laurent.exact_divide", 0),
            "laurent.exact_divide_s": s.get("laurent.exact_divide", 0.0),
            "asympt.rows": calls.get("asympt.row", 0),
            "asympt.row_s": self.total_s.get("asympt.row", 0.0),
            "asympt.post_s": (self.total_s.get("asympt.row", 0.0)
                              - self.total_s.get("jones", 0.0)),
            "linkexpr.parse_s": s.get("linkexpr.parse", 0.0),
            "trace.absent_hooks": len(self.absent),
        }


class CountingMemo(dict):
    """A memo dict that counts lookups that hit, lookups that miss, and stores."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hits = self.misses = self.stores = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


def _jones_hook(tracer, fn):
    @functools.wraps(fn)
    def colored_jones(e, colors, memo=None):
        counting = CountingMemo(memo or {})
        try:
            return tracer.call("jones", fn, e, colors, counting)
        finally:
            tracer.count("jones.memo_hits", counting.hits)
            tracer.count("jones.memo_misses", counting.misses)
            # A miss that was never stored is a result too wide to memoize.
            tracer.count("jones.memo_oversize", counting.misses - counting.stores)
            if memo is not None:
                memo.update(counting)
    return colored_jones


def _span_hook(layer, counter=None):
    def make(tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(tracer, args)
            return tracer.call(layer, fn, *args, **kwargs)
        return wrapper
    return make


def _span_of(arg) -> int:
    return len(getattr(arg, "coeffs", ()))


def _count_acc_coeffs(tracer, args):
    # PolyAccumulator.add(self, coeff, shift, poly)
    if len(args) >= 4:
        tracer.count("laurent.acc_coeffs_added", _span_of(args[3]))


def _count_div_span(tracer, args):
    # divide_by_quantum_integer(a, n)
    if args:
        tracer.count("laurent.div_qint_span", _span_of(args[0]))


# (module, class or None, attribute, wrapper factory).  Each name is patched
# where its caller looks it up, so jones' and asympt's own imports are hooked.
HOOKS = (
    ("cablejones.jones", None, "trinomial_table", _span_hook("trinomial")),
    ("cablejones.asympt", None, "colored_jones", _jones_hook),
    ("cablejones.asympt", None, "divide_by_quantum_integer",
     _span_hook("laurent.div_qint", _count_div_span)),
    ("cablejones.jones", None, "divide_by_quantum_integer",
     _span_hook("laurent.div_qint", _count_div_span)),
    ("cablejones.laurent", "PolyAccumulator", "add",
     _span_hook("laurent.acc_add", _count_acc_coeffs)),
    ("cablejones.laurent", "PolyAccumulator", "result",
     _span_hook("laurent.acc_result")),
    ("cablejones.laurent", "LaurentPoly", "__mul__", _span_hook("laurent.mul")),
    ("cablejones.laurent", "LaurentPoly", "eval_at_root", _span_hook("laurent.eval")),
    ("cablejones.laurent", "LaurentPoly", "derivative",
     _span_hook("laurent.derivative")),
    ("cablejones.laurent", "LaurentPoly", "exact_divide",
     _span_hook("laurent.exact_divide")),
    ("cablejones.laurent", "RootOfUnityPoint", "powers", _span_hook("laurent.powers")),
)


def hook_name(module: str, cls: str | None, attr: str) -> str:
    return f"{module}.{cls}.{attr}" if cls else f"{module}.{attr}"


def _owner(module: str, cls: str | None):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


@contextmanager
def traced(tracer: Tracer):
    """Install every hook that still has a target; restore all on exit."""
    patches = []
    try:
        for module, cls, attr, make in HOOKS:
            owner = _owner(module, cls)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                tracer.absent.append(hook_name(module, cls, attr))
                continue
            patches.append((owner, attr, original))
            setattr(owner, attr, make(tracer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
