"""Global flop accounting.

Every multiply-bearing kernel increments one shared counter, keyed by kernel
class. A multiply-add pair counts as 2 flops (the usual convention); pure
elementwise adds and scalar rescalings are not counted, matching how nominal
formulas like 4n^3/3 are derived.

Every add also lands in the flop scope open in the calling context, if
any (see flop_scope), so one reduction can count its own flops while
others run on other threads; the runtime carries the context into its
pool threads.

Classes: "matmul" is 2mkn for every kernels.matmul call; "panel" is 2mkn
for every product of a QR or LQ panel's column steps and of build_w,
charged from a closed form once per panel and once per build_w call;
"house" is 3L per Householder reflector of length L; "syr2k" is 4k per
entry of the lower trapezoid of the strip a kernels.syr2k_lower call
updates, the whole rank-2k update.

Each class counts the same for every schedule, split and worker count: a
schedule that cuts the trailing update into other column strips charges
the same entries to "syr2k". At n=384, w=32, b=24 every SEVP variant
counts 42,038,272 "matmul", 4,739,584 "panel", 186,384 "house" and
32,245,888 "syr2k" flops, 79,210,128 in total.
"""

import contextvars
import threading
from contextlib import contextmanager

CLASSES = ("matmul", "panel", "house", "syr2k")

# The counter of the flop scope open in this context, or None.
_SCOPE = contextvars.ContextVar("bandred_flop_scope", default=None)
# One lock for every counter, so an add counts into its counter and the
# open scope under a single acquisition.
_LOCK = threading.Lock()


class FlopCounter:
    def __init__(self):
        self._by_class = {}

    def add(self, kind, amount):
        """Count amount flops of class kind here and in the flop scope
        open in the calling context."""
        if amount <= 0:
            return
        amount = int(amount)
        scope = _SCOPE.get()
        with _LOCK:
            self._by_class[kind] = self._by_class.get(kind, 0) + amount
            if scope is not None:
                scope._by_class[kind] = scope._by_class.get(kind, 0) + amount

    def snapshot(self):
        """Per-class totals plus a 'total' key; a plain dict copy. Every
        class in CLASSES is present, 0 when nothing was counted."""
        with _LOCK:
            out = dict.fromkeys(CLASSES, 0)
            out.update(self._by_class)
        out["total"] = sum(out.values())
        return out

    @property
    def total(self):
        with _LOCK:
            return sum(self._by_class.values())

    def reset(self):
        with _LOCK:
            self._by_class.clear()


# Shared instance: kernels add to it, benchmarks snapshot/reset around runs.
FLOPS = FlopCounter()


@contextmanager
def flop_scope():
    """Open a flop scope for the calling context and yield its counter.

    While the scope is open, every flop added in this context, including
    tasks that the runtime runs for it on pool threads, is counted in the
    yielded FlopCounter as well as in FLOPS.  Flops of other threads'
    reductions stay out of it.
    """
    counter = FlopCounter()
    token = _SCOPE.set(counter)
    try:
        yield counter
    finally:
        _SCOPE.reset(token)
