"""Global flop accounting.

Every multiply-bearing kernel increments one shared counter, keyed by kernel
class. A multiply-add pair counts as 2 flops (the usual convention); pure
elementwise adds and scalar rescalings are not counted, matching how nominal
formulas like 4n^3/3 are derived.

Classes: "matmul" is 2mkn for every kernels.matmul call; "house" is 3L per
Householder reflector of length L; "syr2k" is 4*k*d(d+1)/2 for each d x d
diagonal block of kernels.syr2k_lower, the triangle it keeps (its
rectangular body goes through matmul and counts there).
"""

import threading

CLASSES = ("matmul", "house", "syr2k")


class FlopCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self._by_class = {}

    def add(self, kind, amount):
        if amount <= 0:
            return
        with self._lock:
            self._by_class[kind] = self._by_class.get(kind, 0) + int(amount)

    def snapshot(self):
        """Per-class totals plus a 'total' key; a plain dict copy. Every
        class in CLASSES is present, 0 when nothing was counted."""
        with self._lock:
            out = dict.fromkeys(CLASSES, 0)
            out.update(self._by_class)
        out["total"] = sum(out.values())
        return out

    @property
    def total(self):
        with self._lock:
            return sum(self._by_class.values())

    def reset(self):
        with self._lock:
            self._by_class.clear()


# Shared instance: kernels add to it, benchmarks snapshot/reset around runs.
FLOPS = FlopCounter()


def snapshot_flops():
    return FLOPS.snapshot()


def reset_flops():
    FLOPS.reset()
