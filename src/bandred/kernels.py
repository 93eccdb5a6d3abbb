"""Deterministic dense kernels: Householder reflectors, blocked left-looking
QR/LQ panel factorizations, compact-WY construction and application, and the
Level-3 primitives every reduction update routes through.

Determinism contract: matmul accumulates over the inner dimension in strict
sequential order. Each output entry gets one rounded product and one rounded
sum per inner index, in inner order; numpy ufuncs round the multiply and the
add separately (no FMA contraction). So each entry's bit pattern depends only
on its own row of A, column of B, alpha, beta and the inner order -- never on
how the output is tiled, split across tasks or shared among workers.
That property is what lets the look-ahead variants repartition updates
freely while staying bitwise comparable to the reference schedule.

The work is still vectorized, by one strategy: C is cut into column tiles of
at most SCRATCH entries, one broadcast multiply forms a chunk of inner
products in a scratch stack, one tile-shaped slot per inner index, and one
slot-wide np.add per inner index sums the chunk into the tile in order. A
chunk holds as many slots as fit SCRATCH, so the stack stays within
max(SCRATCH, rows of C) entries for any inner length. np.add.reduce, einsum,
@, np.dot and BLAS gemm are deliberately not used: they sum pairwise or in
shape-dependent blocks and do not have this stability.

Every kernel shares its output among workers by one rule, _share: one
worker (workers None or of count 1) sums the whole output in one sweep;
two or more share an output of more than SHARE_ABOVE rows or columns in
one contiguous piece each, cut at near-equal cost. The bits depend on
neither, nor on SCRATCH. apply_wy_right is apply_wy_left run on A^T.

The panels, build_w, symm_lower, syr2k_lower, and every product of a
symmetric reduction's tasks (the X products, and the WY applications to
the mid block and to Q) sum through compiled C (_SUM_SOURCE) with the
NumPy step's bits: every entry's chain runs in inner order, one rounded
product and one rounded add per index, and no loop vectorizes across an
inner index. Five entry points:
- bandred_product runs matmul's whole step (beta, alpha, sum) over any
  strides, at the addresses of the views (_product). _COMPILED_SUM hands
  it the panels' inner-block updates and the SEVP X products and WY
  applications (apply_wy_left/apply_wy_right called with
  _sum=_COMPILED_SUM), one call per worker's rows. These are matmul
  calls, which check the shapes and charge "matmul", 2mkn per call;
- bandred_panel_column runs a panel column's step after house_gen, the
  four products of _column as four bandred_product calls, and
  bandred_build_w runs build_w's b column products: a Python-level call
  per product costs more than the product's arithmetic. They charge
  "panel" from closed forms, once per panel (_column_flops) and once per
  build_w call, as the NumPy path does;
- bandred_symm_lower sums symm_lower from A2's lower triangle
  (_SymmLower), a matmul call;
- bandred_syr2k_lower runs syr2k_lower's whole strip, or one worker's
  piece of its columns per call when workers share it (_syr2k). It
  charges "syr2k" once, never "matmul".
The C is built on first use with `cc -O3 -ffp-contract=off -fPIC -shared`
(no FMA contraction, no -ffast-math or -fassociative-math, no
-march=native) into a per-user cache, $XDG_CACHE_HOME/bandred or
~/.cache/bandred, and loaded with ctypes, which releases the GIL for each
call. On x86-64 glibc each entry point is built twice through
target_clones, for AVX2 and for the base ISA, and the loader picks the
one the CPU runs; the AVX2 target has no FMA, so the clones have the
same bits. Elsewhere the plain build results. Without a compiler, or if
the build fails or the cache directory is not private to the user, it
warns once and every kernel takes its NumPy path; so do operands that are
not aligned float64. matmul's default step, and with it apply_wy_left and
apply_wy_right unless told otherwise, stays on _numpy_step, so the SVD
reductions' applications and Z/X products sum in NumPy.

The vector norm (sqrt(x.dot(x)), np.linalg.norm's expression) appears only
in house_gen, where every schedule makes the identical call on identical data.
"""

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .flops import FLOPS

# Two or more workers share a kernel's output only when it has more rows
# (or columns) than this (see _share); below it one worker sums it all. No
# entry's bits depend on it.
SHARE_ABOVE = 128
# Scratch of one _accumulate call, in float64 entries (128 KB), or one
# column of C where that is taller. Fixed: how a sum is computed depends
# only on operand shapes, never on workers or workload.
SCRATCH = 16384
# Columns (qr_panel) or rows (lq_panel) factored before the panel's next
# inner block is updated at once. Unlike SHARE_ABOVE, it sets the bits.
PANEL_INNER_B = 16
# Blue's thresholds for an unscaled 2-norm: inside (RTMIN, RTMAX) no square
# of the sum can have underflowed or overflowed, so the norm is accurate as
# it stands; outside, house_gen rescales by max|x| first.
_F64 = np.finfo(np.float64)
RTMIN = float(np.sqrt(_F64.tiny / _F64.eps))
RTMAX = float(np.sqrt(_F64.max) * _F64.eps)


def _as2d(a, name):
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array")
    return a


def _slots(depth, rows, cols):
    """Scratch stack of depth rows x cols slots, each laid out by columns."""
    return np.empty((depth, cols, rows)).transpose(0, 2, 1)


def _accumulate(A, B, C):
    """C += A*B: per entry, one rounded product and one rounded sum for each
    inner index, summed in strict inner order. A already carries alpha. A C
    laid out by rows is summed as C^T = B^T A^T: the same products in the
    same order, down C's unit stride.

    C is cut into column tiles of at most SCRATCH entries (one column at
    least, for C taller than SCRATCH). For each chunk of inner indices, one
    broadcast multiply writes the products into a scratch stack, one slot
    shaped like the tile per index, and one np.add per slot adds them into
    the tile in inner order. The chunk holds as many slots as fit SCRATCH
    (one at least), so the stack never holds more than max(SCRATCH, rows)
    entries, whatever k and n are.

    np.add.reduce, einsum, @ and np.dot are never used: they sum pairwise or
    in BLAS-chosen blocks, so their bits depend on the operand shapes.
    """
    if C.strides[0] > C.strides[1]:
        A, B, C = B.T, A.T, C.T
    rows, k = A.shape
    n = C.shape[1]
    cols = min(n, max(1, SCRATCH // rows))
    kc = min(k, max(1, SCRATCH // (rows * cols)))
    stack = _slots(kc, rows, cols)
    for c0 in range(0, n, cols):
        c1 = min(c0 + cols, n)
        Ct = C[:, c0:c1]
        for p0 in range(0, k, kc):
            p1 = min(p0 + kc, k)
            st = stack[: p1 - p0, :, : c1 - c0]
            np.multiply(A[:, p0:p1].T[:, :, None], B[p0:p1, None, c0:c1], out=st)
            for prod in st:
                np.add(Ct, prod, out=Ct)


_SUM_SOURCE = r"""
#include <limits.h> /* defines __GLIBC__ where the C library is glibc */
/* Where the loader can pick a clone at load time (ifunc: x86-64 glibc, with
   a compiler that knows target_clones), each entry point is built twice, for
   AVX2 and for the base ISA. The avx2 target brings no FMA and the build
   keeps -ffp-contract=off, so both clones round alike; define
   BANDRED_NO_CLONES for the plain build. */
#if defined(__x86_64__) && defined(__GNUC__) && defined(__GLIBC__) \
    && defined(__has_attribute) && !defined(BANDRED_NO_CLONES)
#if __has_attribute(target_clones)
#define BANDRED_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef BANDRED_CLONES
#define BANDRED_CLONES
#endif

/* matmul's whole step at addresses the caller knows, strides in entries:
   C := alpha*A*B + beta*C. Each column of C is scaled by beta (zeroed when
   beta == 0, kept when beta == 1); unless alpha == 0, each entry then adds
   one rounded product per p ascending, A's entry first multiplied by alpha
   unless alpha == 1. These are matmul's roundings in matmul's order. A
   one-row C keeps each chain in a register; otherwise the i loop is
   innermost, across entries: for unit-stride A and C a compiler may
   vectorize it, never across p. */
BANDRED_CLONES
void bandred_product(long m, long n, long k, double alpha, double beta,
                     const double *a, long ar, long ac, const double *b,
                     long br, long bc, double *c, long cr, long cc)
{
    for (long j = 0; j < n; j++) {
        double *cj = c + j * cc;
        for (long i = 0; i < m; i++)
            cj[i * cr] = beta == 0.0 ? 0.0 : beta == 1.0 ? cj[i * cr] : cj[i * cr] * beta;
        if (alpha == 0.0)
            continue;
        if (m == 1) {
            double s = cj[0];
            for (long p = 0; p < k; p++)
                s += (alpha == 1.0 ? a[p * ac] : a[p * ac] * alpha) * b[p * br + j * bc];
            cj[0] = s;
            continue;
        }
        for (long p = 0; p < k; p++) {
            const double *ap = a + p * ac;
            const double bv = b[p * br + j * bc];
            if (ar == 1 && cr == 1)
                for (long i = 0; i < m; i++)
                    cj[i] += (alpha == 1.0 ? ap[i] : ap[i] * alpha) * bv;
            else
                for (long i = 0; i < m; i++)
                    cj[i * cr] += (alpha == 1.0 ? ap[i * ar] : ap[i * ar] * alpha) * bv;
        }
    }
}

/* symm_lower: rows r0..r1 of out = S*W, S the symmetric j x j matrix whose
   lower triangle a holds (entry (r, p) at a[r*ar + p*ac]). Rows r0..r1 of
   column p of S go to s first; each entry of out sums from +0.0 over p
   ascending. */
BANDRED_CLONES
void bandred_symm_lower(long r0, long r1, long j, long n, const double *a,
                        long ar, long ac, const double *w, long wr, long wc,
                        double *out, long ldo, double *s)
{
    for (long c = 0; c < n; c++)
        for (long r = r0; r < r1; r++)
            out[r + c * ldo] = 0.0;
    for (long p = 0; p < j; p++) {
        const long d = p < r0 ? r0 : p > r1 ? r1 : p;
        for (long r = r0; r < d; r++)
            s[r - r0] = a[p * ar + r * ac];
        for (long r = d; r < r1; r++)
            s[r - r0] = a[r * ar + p * ac];
        for (long c = 0; c < n; c++) {
            const double wv = w[p * wr + c * wc];
            double *oc = out + c * ldo;
            for (long r = r0; r < r1; r++)
                oc[r] += s[r - r0] * wv;
        }
    }
}

/* syr2k_lower: columns c0..c1 of the lower triangle of the j x j matrix a
   (entry (r, c) at a[r*ar + c*ac]) get a += x*y^T + y*x^T, x and y j x k.
   Each entry (r, c), r >= c, adds x[r,p]*y[c,p] for p ascending, then
   y[r,p]*x[c,p] for p ascending: one rounded product and one rounded add
   per term. The r loop is innermost, across entries: for unit-stride
   operands a compiler may vectorize it, never across p. */
BANDRED_CLONES
void bandred_syr2k_lower(long c0, long c1, long j, long k, double *a, long ar,
                         long ac, const double *x, long xr, long xc,
                         const double *y, long yr, long yc)
{
    const int unit = ar == 1 && xr == 1 && yr == 1;
    for (long c = c0; c < c1; c++) {
        double *acol = a + c * ac;
        for (long t = 0; t < 2 * k; t++) {
            /* t < k: x's column times y's entry; then y's times x's */
            const long p = t < k ? t : t - k;
            const double *u = t < k ? x + p * xc : y + p * yc;
            const double v = t < k ? y[c * yr + p * yc] : x[c * xr + p * xc];
            const long ur = t < k ? xr : yr;
            if (unit)
                for (long r = c; r < j; r++)
                    acol[r] += u[r] * v;
            else
                for (long r = c; r < j; r++)
                    acol[r * ar] += u[r * ur] * v;
        }
    }
}

/* A panel's column i after house_gen (_column): the j x b frame q (entry
   (r, c) at q[r*qr + c*qc]) gets beta at (i, i) and v's tail below it, the
   column-major y (j x b) gets v (length j - i) in its column i, H_i is
   applied to the frame's columns i+1..e-1 (for an LQ panel, lq != 0, with
   -tau folded into the other factor) and t (b x b, column-major) gets
   column i. Each product is one bandred_product call on the operands and
   strides that _column hands _numpy_step, so the bits are _column's. */
BANDRED_CLONES
void bandred_panel_column(long j, long b, long i, long e, long lq, double tau,
                          double beta, const double *v, double *q, long qr,
                          long qc, double *y, double *t)
{
    const long l = j - i, n = e - i - 1;
    double *yv = y + i * (j + 1), *rest = q + i * (qr + qc) + qc;
    double t1[n > 0 ? n : 1], tmp[i > 0 ? i : 1];
    for (long r = 0; r < l; r++)
        yv[r] = v[r];
    q[i * (qr + qc)] = beta;
    for (long r = 1; r < l; r++)
        q[(i + r) * qr + i * qc] = v[r];
    if (n > 0 && tau != 0.0) {
        bandred_product(1, n, l, 1.0, 0.0, yv, j, 1, rest, qr, qc, t1, 1, 1);
        if (lq)
            bandred_product(n, l, 1, -tau, 1.0, t1, 1, 1, yv, j, 1, rest, qc, qr);
        else
            bandred_product(l, n, 1, -tau, 1.0, yv, 1, j, t1, 1, 1, rest, qr, qc);
    }
    if (i > 0) {
        bandred_product(i, 1, l, 1.0, 0.0, y + i, j, 1, yv, 1, j, tmp, 1, b);
        bandred_product(i, 1, i, -tau, 0.0, t, 1, b, tmp, 1, b, t + i * b, 1, b);
    }
    t[i * (b + 1)] = -tau;
}

/* build_w: column c of the column-major j x b w is y's first c + 1
   columns times t's column c (y's entry (r, p) at y[r*yr + p*yc], t's
   likewise), one bandred_product call per column. */
BANDRED_CLONES
void bandred_build_w(long j, long b, const double *y, long yr, long yc,
                     const double *t, long tr, long tc, double *w)
{
    for (long c = 0; c < b; c++)
        bandred_product(j, 1, c + 1, 1.0, 0.0, y, yr, yc, t + c * tc, tr, tc, w + c * j, 1, j);
}
"""
# No FMA contraction and no reassociation (-ffast-math, -fassociative-math):
# either changes bits. No -march=native: a library cached in a home directory
# shared between hosts must run on each of them (the AVX2 clones are picked
# at load time, by the CPU that runs them).
_SUM_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


def _find_cc():
    return shutil.which("cc")


def _default_cache_dir():
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "bandred"


def _private_dir(path):
    """path, made with mode 0700 if missing. A directory another user owns
    or can write is refused: the library loaded from it runs as our code."""
    path = Path(path)
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"cache directory {path} is not private to this user "
                      f"(owner uid {st.st_uid}, mode {st.st_mode & 0o777:o})")
    return path


def _build_sum(cc, flags, directory):
    """The shared library of _SUM_SOURCE built with flags in directory,
    compiled only if absent. The name is keyed by the source, the flags and
    the machine type; the build is written under a temporary name and moved
    into place, so a concurrent process never loads half a file."""
    key = "\0".join((_SUM_SOURCE, *flags, platform.machine()))
    key = hashlib.sha256(key.encode()).hexdigest()[:16]
    lib = Path(directory) / f"accumulate-{key}.so"
    if not lib.exists():
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            src, out = Path(tmp) / "accumulate.c", Path(tmp) / "accumulate.so"
            src.write_text(_SUM_SOURCE)
            subprocess.run([cc, *flags, "-o", str(out), str(src)],
                           check=True, capture_output=True, timeout=120)
            os.replace(out, lib)
    return lib


# Argument types of each entry point of _SUM_SOURCE: l long, d double,
# p pointer.
_ENTRY_POINTS = {
    "product": "lllddpllpllpll",
    "symm_lower": "llllpllpllplp",
    "syr2k_lower": "llllpllpllpll",
    "panel_column": "lllllddppllpp",
    "build_w": "llpllpllp",
}


def _load_lib(lib):
    """The entry points of the library at lib, typed, by their names in
    _ENTRY_POINTS."""
    dll = ctypes.CDLL(str(lib))
    types = {"l": ctypes.c_long, "d": ctypes.c_double, "p": ctypes.c_void_p}
    fns = {}
    for name, args in _ENTRY_POINTS.items():
        fn = getattr(dll, f"bandred_{name}")
        fn.argtypes = tuple(types[c] for c in args)
        fn.restype = None
        fns[name] = fn
    return SimpleNamespace(**fns)


def _product(fn, alpha, A, B, beta, C):
    """C := alpha*A*B + beta*C by one call of the compiled product fn at the
    addresses of the views (strides go in entries). A C laid out by rows is
    summed as C^T = B^T A^T when alpha is 1, so the loop runs down C's unit
    stride: the same products in the same order."""
    if alpha == 1.0 and C.strides[0] > C.strides[1]:
        A, B, C = B.T, A.T, C.T
    (ar, ac), (br, bc), (cr, cc) = A.strides, B.strides, C.strides
    fn(C.shape[0], C.shape[1], A.shape[1], alpha, beta, A.ctypes.data, ar >> 3, ac >> 3,
       B.ctypes.data, br >> 3, bc >> 3, C.ctypes.data, cr >> 3, cc >> 3)


class _CompiledSum:
    """The compiled _SUM_SOURCE, built and loaded on first use. Called, it is
    a matmul step that hands C's rows to bandred_product; lib_for hands the
    entry points to build_w, symm_lower, syr2k_lower and the panels. If the
    build fails it warns once and every caller takes its NumPy path; so do
    operands that are not aligned float64 and outputs that are not
    writeable."""

    def __init__(self, cache_dir=None):
        self._cache_dir = cache_dir
        self._lock = threading.Lock()
        self._ready = False
        self._lib = None

    def _load(self):
        with self._lock:
            if not self._ready:
                try:
                    cc = _find_cc()
                    if cc is None:
                        raise OSError("no C compiler 'cc' on PATH")
                    cache = _private_dir(self._cache_dir or _default_cache_dir())
                    self._lib = _load_lib(_build_sum(cc, _SUM_FLAGS, cache))
                except (OSError, subprocess.SubprocessError) as e:
                    warnings.warn(f"bandred: compiled sum unavailable ({e}); the panels' column "
                                  "steps and inner-block updates, build_w, symm_lower, "
                                  "syr2k_lower, the SEVP X products and the SEVP WY applications "
                                  "use the NumPy sum: same bits and flops, slower",
                                  RuntimeWarning, stacklevel=4)
                finally:
                    # Also when the warning is raised as an error: the
                    # lookup and the build run once per process either way.
                    self._ready = True

    def lib_for(self, *operands, out=()):
        """The loaded entry points, or None where the NumPy path must run:
        no library, an operand or output that is not aligned float64, or an
        output that is not writeable."""
        if not self._ready:
            self._load()
        arrays = (*operands, *out)
        if (self._lib is None or not all(x.dtype == np.float64 and x.flags.aligned for x in arrays)
                or not all(x.flags.writeable for x in out)):
            return None
        return self._lib

    def __call__(self, alpha, A, B, beta, C, workers):
        lib = self.lib_for(A, B, out=(C,))
        if lib is None:
            _numpy_step(alpha, A, B, beta, C, workers)
        else:
            _share(workers, C.shape[0],
                   lambda r0, r1: _product(lib.product, alpha, A[r0:r1], B, beta, C[r0:r1]))


_COMPILED_SUM = _CompiledSum()


def _share(workers, size, run, cost=None):
    """run(lo, hi) over [0, size): once over the whole range unless two or
    more workers share more than SHARE_ABOVE items. Then workers.map gets
    one contiguous piece per worker, never an empty one, each cut at the
    item boundary nearest its even share of the cost. cost lists each
    item's cost in order; by default every item costs one."""
    if workers is None or workers.count == 1 or size <= SHARE_ABOVE:
        run(0, size)
        return
    count = min(workers.count, size)
    upto = np.cumsum(np.ones(size) if cost is None else cost)  # cost of items 0..i
    bounds = [0]
    for q in range(1, count):
        cut = int(np.abs(upto - upto[-1] * q / count).argmin()) + 1
        bounds.append(min(max(cut, bounds[-1] + 1), size - count + q))
    bounds.append(size)
    workers.map(lambda piece: run(*piece), list(zip(bounds, bounds[1:])))


def _numpy_step(alpha, A, B, beta, C, workers):
    """matmul's step in NumPy: C scaled by beta, alpha folded into A, and
    _accumulate over C's rows."""
    if beta == 0.0:
        C[...] = 0.0
    elif beta != 1.0:
        np.multiply(C, beta, out=C)
    if alpha == 0.0 or A.size == 0 or C.size == 0:
        return
    if alpha != 1.0:
        A = A * alpha  # one rounding per entry, as if folded in at each step
    _share(workers, C.shape[0], lambda r0, r1: _accumulate(A[r0:r1], B, C[r0:r1]))


class _SymmLower:
    """matmul's step for symm_lower: out := sym(A2) * W (alpha 1, beta 0)
    read straight from A2's lower triangle; two or more workers share its
    rows (_share)."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, alpha, A2, W, beta, out, workers):
        j, n = out.shape
        o = out if out.strides[0] == 8 else np.empty((j, n), order="F")
        (ar, ac), (wr, wc) = A2.strides, W.strides

        def run(r0, r1):
            s = np.empty(r1 - r0)
            self.fn(r0, r1, j, n, A2.ctypes.data, ar >> 3, ac >> 3, W.ctypes.data, wr >> 3,
                    wc >> 3, o.ctypes.data, o.strides[1] >> 3, s.ctypes.data)

        _share(workers, j, run)
        if o is not out:
            out[...] = o


def matmul(alpha, A, B, beta, C, workers=None, *, _sum=_numpy_step):
    """C := alpha*A*B + beta*C with a fixed summation order over the inner
    dimension (strictly sequential, one rounded product and one rounded sum
    per inner index).

    Pass transposed views (A.T / B.T) for transposed operands. Two or more
    workers share C's rows (_share); one worker sums all of C in one
    sweep. Results are bitwise identical for any worker count. matmul checks
    the shapes, charges the flops and runs _sum(alpha, A, B, beta, C,
    workers), the step: _numpy_step, or in compiled C _COMPILED_SUM (the
    panels' inner-block updates, the SEVP X products and WY applications)
    or _SymmLower (symm_lower). Every step gives the same bits.
    """
    _as2d(A, "A"), _as2d(B, "B"), _as2d(C, "C")
    m, k = A.shape
    k2, n = B.shape
    if k != k2 or C.shape != (m, n):
        raise ValueError(f"matmul shape mismatch: {A.shape} x {B.shape} -> {C.shape}")
    if alpha != 0.0 and k and m and n:
        FLOPS.add("matmul", 2 * m * k * n)
    _sum(alpha, A, B, beta, C, workers)
    return C


def house_gen(x):
    """Householder reflector for a vector: (I - tau*v*v^T) x = beta*e1.

    v[0] = 1. Sign convention: beta = -sign(x[0]) * ||x||, with x[0] = 0
    treated as positive -- applied unconditionally, so a vector with zero
    tail still gets its sign flipped (tau = 2). The all-zero vector yields
    tau = 0, beta = 0 (identity reflector). The norm is sqrt(x.dot(x)), with
    np.linalg.norm's bits; a sum of squares that overflows is rescaled, not
    warned of.
    """
    x = np.array(x, dtype=np.float64, order="C")  # a contiguous copy, as norm's dot takes it
    if x.ndim != 1 or x.size < 1:
        raise ValueError("house_gen needs a vector of length >= 1")
    L = x.size
    FLOPS.add("house", 3 * L)
    v = np.zeros(L)
    v[0] = 1.0
    with np.errstate(over="ignore"):
        nrm = float(np.sqrt(x.dot(x)))
    if not RTMIN < nrm < RTMAX:
        # The sum of squares may have under- or overflowed: take the norm of
        # x / max|x| instead. Unit-scale vectors never get here, so their
        # bits do not change.
        s = float(np.max(np.abs(x)))
        if s > 0.0:
            y = x / s
            nrm = s * float(np.sqrt(y.dot(y)))
    if nrm == 0.0:
        return v, 0.0, 0.0
    sign = -1.0 if x[0] < 0 else 1.0
    beta = -sign * nrm
    v0 = x[0] - beta  # = x[0] + sign*nrm: same signs, no cancellation
    if L > 1:
        np.divide(x[1:], v0, out=v[1:])
    tau = (beta - x[0]) / beta
    return v, float(tau), float(beta)


@dataclass
class PanelFactors:
    """Compact-WY factors of a blocked panel: Q = I + W * Y^T, W = Y * T.

    y: j x b unit lower-trapezoidal reflector vectors (column i is v_i).
    t: b x b upper triangular, accumulated so that W = Y*T directly (for a
       single reflector, W = -tau*v, i.e. T[0,0] = -tau).
    r_or_l: the b x b triangular panel factor (R for QR, L for LQ).
    tau: the b reflector scalars.
    """

    y: np.ndarray
    t: np.ndarray
    w: np.ndarray
    r_or_l: np.ndarray
    tau: np.ndarray

    @property
    def j(self):
        return self.y.shape[0]

    @property
    def b(self):
        return self.y.shape[1]


def build_w(Y, T):
    """W = Y * T, column by column (T is upper triangular, so column i only
    involves Y's first i+1 columns): 2j(i+1) "panel" flops for column i,
    charged at once. The compiled sum runs it in one bandred_build_w call."""
    _as2d(Y, "Y"), _as2d(T, "T")
    j, b = Y.shape
    if T.shape != (b, b):
        raise ValueError("build_w: T must be b x b")
    FLOPS.add("panel", j * b * (b + 1))
    W = np.zeros((j, b), order="F")
    lib = _COMPILED_SUM.lib_for(Y, T)
    if lib is None:
        for i in range(b):
            _numpy_step(1.0, Y[:, : i + 1], T[: i + 1, i : i + 1], 0.0, W[:, i : i + 1], None)
    else:
        (yr, yc), (tr, tc) = Y.strides, T.strides
        lib.build_w(j, b, Y.ctypes.data, yr >> 3, yc >> 3, T.ctypes.data, tr >> 3, tc >> 3,
                    W.ctypes.data)
    return W


def _column(Q, Y, T, v, tau, beta, i, e, lq):
    """Column i of _panel after house_gen, in NumPy: store beta, v's tail
    and v (in Y), apply H_i to the rest of the inner block, and extend the
    compact-WY triangle, T[0:i, i] = -tau * T[0:i, 0:i] * (Y[i:, 0:i]^T v),
    T[i, i] = -tau. Y's earlier columns are zero above row i, so the dot
    only needs their tail rows. bandred_panel_column makes the same four
    products."""
    Y[i:, i] = v
    Q[i, i] = beta
    Q[i + 1 :, i] = v[1:]
    vcol = Y[i:, i : i + 1]
    if e - i > 1 and tau != 0.0:
        rest = Q[i:, i + 1 : e]
        t1 = np.zeros((1, e - i - 1), order="F")  # v^T times rest
        _numpy_step(1.0, vcol.T, rest, 0.0, t1, None)
        if lq:  # the rows' A := A - ((A v) tau) v^T: -tau folds into A v
            _numpy_step(-tau, t1.T, vcol.T, 1.0, rest.T, None)
        else:
            _numpy_step(-tau, vcol, t1, 1.0, rest, None)
    if i > 0:
        tmp = np.zeros((i, 1), order="F")  # Y's tail rows^T times v
        _numpy_step(1.0, Y[i:, :i].T, vcol, 0.0, tmp, None)
        _numpy_step(-tau, T[:i, :i], tmp, 0.0, T[:i, i : i + 1], None)
    T[i, i] = -tau


def _column_flops(j, b, tau):
    """2mkn over the products _column makes in a j x b panel with
    reflector scalars tau, in closed form. Column i of an inner block
    that ends at e makes 2ij flops (Y's tail rows^T v, 2i(j-i), and T's
    column, 2i^2) and 4(j-i)(e-i-1) applying H_i; where tau is 0 it makes
    only Y's tail rows^T v."""
    flops = j * b * (b - 1)
    for s in range(0, b, PANEL_INNER_B):
        # the block's n columns apply H_i to d = e-i-1 = 0..n-1 columns of
        # j-i = j-e+1+d rows: 4(j-e+1+d)d summed over d
        n = min(PANEL_INNER_B, b - s)
        flops += 2 * (j - s - n + 1) * n * (n - 1) + 2 * (n - 1) * n * (2 * n - 1) // 3
    for i in np.flatnonzero(tau == 0.0).tolist():
        e = min(i - i % PANEL_INNER_B + PANEL_INNER_B, b)
        flops -= 2 * i * i + 4 * (j - i) * (e - i - 1)
    return flops


def _panel(Q, lq):
    """Blocked left-looking QR of the j x b frame Q in place: a QR panel, or
    (lq) the transpose of an LQ panel. Returns Y, T, W and tau.

    The frame serves both panels: an LQ panel's reflectors act on its rows,
    which are the frame's columns, and every entry below sums the same
    products in the same order either way. The one difference is where -tau
    folds when H_i is applied (see _column). Each column after house_gen is
    one bandred_panel_column call where the compiled sum is loaded, and
    _column otherwise; the inner-block updates are matmul calls on the
    compiled sum. The column steps are charged to "panel" at once, from
    _column_flops; the bits and flops are the same on either path.
    """
    j, b = Q.shape
    Y = np.zeros((j, b), order="F")
    T = np.zeros((b, b), order="F")
    tau = np.zeros(b)
    lib = _COMPILED_SUM.lib_for(out=(Q,))
    if lib is not None:
        qr, qc = (x >> 3 for x in Q.strides)
        q, y, t = Q.ctypes.data, Y.ctypes.data, T.ctypes.data
    for s in range(0, b, PANEL_INNER_B):
        e = min(s + PANEL_INNER_B, b)
        if s > 0:
            # left-looking: apply the s accumulated reflectors to this block,
            # Q^T A = A + Y (T^T (Y^T A))
            blk = Q[:, s:e]
            u1 = np.zeros((s, e - s), order="F")
            matmul(1.0, Y[:, :s].T, blk, 0.0, u1, _sum=_COMPILED_SUM)
            u2 = np.zeros((s, e - s), order="F")
            matmul(1.0, T[:s, :s].T, u1, 0.0, u2, _sum=_COMPILED_SUM)
            matmul(1.0, Y[:, :s], u2, 1.0, blk, _sum=_COMPILED_SUM)
        for i in range(s, e):
            v, ti, beta = house_gen(Q[i:, i])
            tau[i] = ti
            if lib is None:
                _column(Q, Y, T, v, ti, beta, i, e, lq)
            else:
                lib.panel_column(j, b, i, e, lq, ti, beta, v.ctypes.data, q, qr, qc, y, t)
    FLOPS.add("panel", _column_flops(j, b, tau))
    return Y, T, build_w(Y, T), tau


def qr_panel(P):
    """Blocked left-looking QR of a j x b panel (j >= b >= 1), in place.

    P's top b x b becomes R (reflector tails remain below it, as usual).
    Returns fresh PanelFactors; the panel view can be mutated afterwards
    without invalidating them.
    """
    _as2d(P, "P")
    j, b = P.shape
    if j < b or b < 1:
        raise ValueError(f"qr_panel needs j >= b >= 1, got {j} x {b}")
    Y, T, W, tau = _panel(P, lq=False)
    R = np.triu(P[:b, :b]).copy(order="F")
    return PanelFactors(y=Y, t=T, w=W, r_or_l=R, tau=tau)


def lq_panel(P):
    """Blocked left-looking LQ of a b x j panel (j >= b >= 1), in place;
    reflectors act on rows. P's leftmost b x b becomes L (lower triangular).

    Factors contract: V = I + W * Y^T applied from the right,
    A := A + (A*W)*Y^T. It is qr_panel's recurrence on P^T, with the same
    bits as the row-wise recurrence (see _panel).
    """
    _as2d(P, "P")
    b, j = P.shape
    if j < b or b < 1:
        raise ValueError(f"lq_panel needs b x j with j >= b >= 1, got {b} x {j}")
    Y, T, W, tau = _panel(P.T, lq=True)
    L = np.tril(P[:b, :b]).copy(order="F")
    return PanelFactors(y=Y, t=T, w=W, r_or_l=L, tau=tau)


def _apply_wy(A, factors, workers, _sum):
    """A := A + Y*(W^T*A), both products summed through _sum, matmul's step.

    Each column of A is updated on its own, so the result is bitwise
    invariant under any column split of A; two or more workers share the
    columns (_share), one worker runs the whole A as one pair of matmuls.
    W^T*A is laid out like A (by rows when A is, as the transpose of a
    column-major array is), so both products' outputs share one layout.
    """
    if A.size == 0:
        return
    b = factors.y.shape[1]
    order = "C" if A.strides[0] > A.strides[1] else "F"

    def run(c0, c1):
        blk = A[:, c0:c1]
        t1 = np.zeros((b, c1 - c0), order=order)
        matmul(1.0, factors.w.T, blk, 0.0, t1, _sum=_sum)
        matmul(1.0, factors.y, t1, 1.0, blk, _sum=_sum)

    _share(workers, A.shape[1], run)


def apply_wy_left(A, factors, workers=None, *, _sum=_numpy_step):
    """A := A + Y*(W^T*A), the left application of Q^T = (I + W*Y^T)^T,
    shared among workers by A's columns (see _apply_wy)."""
    j = factors.y.shape[0]
    if _as2d(A, "A").shape[0] != j:
        raise ValueError(f"apply_wy_left: A has {A.shape[0]} rows, factors have j={j}")
    _apply_wy(A, factors, workers, _sum)
    return A


def apply_wy_right(A, factors, workers=None, *, _sum=_numpy_step):
    """A := A + (A*W)*Y^T, the right application of I + W*Y^T, run as the
    left one on A^T, A^T := A^T + Y*(W^T*A^T): each entry sums the same
    products (IEEE products commute) in the same inner order, so the bits
    and flops are those of (A*W)*Y^T. Workers share A's rows."""
    j = factors.y.shape[0]
    if _as2d(A, "A").shape[1] != j:
        raise ValueError(f"apply_wy_right: A has {A.shape[1]} cols, factors have j={j}")
    _apply_wy(A.T, factors, workers, _sum)
    return A


def symm_lower(A2, W, out, workers=None):
    """out := sym(A2) * W where only A2's lower triangle is authoritative.

    Each entry of out is one sequential sum over the whole inner range, as
    one matmul over the full symmetric operand would give. The compiled sum
    reads that operand straight from A2's lower triangle; two or more
    workers share out's rows (_share). Without it, the operand is
    assembled as a j x j transient and summed by matmul. The accumulator
    starts at +0.0, and a rounded sum is -0.0 only when both terms are, so
    a zero's sign in A2 never reaches out.
    """
    _as2d(A2, "A2"), _as2d(W, "W"), _as2d(out, "out")
    j = A2.shape[0]
    if A2.shape != (j, j) or W.shape[0] != j or out.shape != (j, W.shape[1]):
        raise ValueError("symm_lower shape mismatch")
    if j == 0:
        return out
    lib = _COMPILED_SUM.lib_for(A2, W, out=(out,))
    if lib is None:
        S = np.tril(A2) + np.tril(A2, -1).T
        return matmul(1.0, S, W, 0.0, out, workers)
    return matmul(1.0, A2, W, 0.0, out, workers, _sum=_SymmLower(lib.symm_lower))


def _syr2k(fn, S, X, Y, c0, c1):
    """Columns c0..c1 of syr2k_lower on the strip S by one call of the
    compiled fn at the operands' addresses (strides go in entries)."""
    j, k = X.shape
    (sr, sc), (xr, xc), (yr, yc) = S.strides, X.strides, Y.strides
    fn(c0, c1, j, k, S.ctypes.data, sr >> 3, sc >> 3, X.ctypes.data, xr >> 3, xc >> 3,
       Y.ctypes.data, yr >> 3, yc >> 3)


def syr2k_lower(S, X, Y, workers=None):
    """S += X*Y^T + Y*X^T on the lower trapezoid of the strip S, exactly:
    S is j x c with c <= j, its top-left entry on the diagonal of the
    symmetric matrix it is cut from, and X and Y are j x k.

    Each lower entry (r, c) adds X[r, p]*Y[c, p] for p ascending, then
    Y[r, p]*X[c, p] for p ascending: one chain of inner length 2k, in an
    order that no column split of the strip changes. The compiled sum runs
    the whole strip in one call (bandred_syr2k_lower); two or more workers
    share its columns (_share), one call per piece, the pieces near-equal in
    lower entries (column c holds j - c). Without it, each column sums as
    two _numpy_step calls. Either way the whole update is charged once to
    "syr2k", 4k per lower entry of the strip.
    """
    _as2d(S, "S"), _as2d(X, "X"), _as2d(Y, "Y")
    j, c = S.shape
    if c > j or X.shape[0] != j or Y.shape != X.shape:
        raise ValueError("syr2k_lower shape mismatch")
    k = X.shape[1]
    if c == 0 or k == 0:
        return S
    FLOPS.add("syr2k", 2 * k * c * (2 * j - c + 1))
    lib = _COMPILED_SUM.lib_for(X, Y, out=(S,))
    if lib is None:
        def run(c0, c1):
            for i in range(c0, c1):
                col = S[i:, i : i + 1]
                _numpy_step(1.0, X[i:], Y[i : i + 1].T, 1.0, col, None)
                _numpy_step(1.0, Y[i:], X[i : i + 1].T, 1.0, col, None)
    else:
        def run(c0, c1):
            _syr2k(lib.syr2k_lower, S, X, Y, c0, c1)
    _share(workers, c, run, cost=range(j, j - c, -1))
    return S
