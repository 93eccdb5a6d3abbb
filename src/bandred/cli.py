"""Benchmark harness: deterministic inputs, timing, CSV output, verification.

Matrix generation uses SplitMix64 so that runs are reproducible bit for bit
across platforms and reimplementations; see the README for the exact
constants.  All diagnostics go to stderr, CSV rows go to stdout.  Exit
status is 1 when a requested verification fails and 2 on configuration
errors; everything else exits 0.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

import numpy as np

from .depgraph import analyze_overlap, build_dag, enumerate_tasks, to_dot
from .oracles import band_check, spectrum_deviation
from .runtime import EventTrace, ExecGroups
from .sevp import SevpConfig, SevpVariant, reduce_sym_band, sevp_nominal_flops
from .svd import SvdConfig, SvdForm, SvdVariant, reduce_band_svd, svd_nominal_flops

__all__ = [
    "gen_sym",
    "gen_general",
    "save_matrix",
    "load_matrix",
    "main",
]

CSV_HEADER = "algo,m,n,w,b,ts,tp,seconds,gflops,verify_max_dev,best"

_SEVP_VARIANTS = {
    "sevp-ref": SevpVariant.REFERENCE,
    "sevp-v1": SevpVariant.V1,
    "sevp-v2": SevpVariant.V2,
}
_SVD_VARIANTS = {
    "svd-ref": SvdVariant.REFERENCE,
    "svd-sim": SvdVariant.SIMULTANEOUS,
    "svd-v1": SvdVariant.V1,
    "svd-v2": SvdVariant.V2,
}
_ALGOS = [*_SEVP_VARIANTS, "svd-triband", *_SVD_VARIANTS, "depgraph"]


def _splitmix64_unit(count: int, seed: int) -> np.ndarray:
    """count floats in (0, 1) from SplitMix64 streams seeded at ``seed``.

    Element i uses the state seed + (i+1) * 0x9E3779B97F4A7C15 mod 2^64 and
    the standard finalizer; the top 53 bits map to (0, 1) with a half-ulp
    offset so 0.0 is never produced.
    """
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54


def gen_general(m: int, n: int, seed: int) -> np.ndarray:
    """m x n matrix with entries uniform in (0, 1), deterministic in seed.

    Values are assigned in column-major order so the same (m, n, seed)
    yields the same bits regardless of how the caller stores the result.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    return _splitmix64_unit(m * n, seed).reshape((m, n), order="F")


def gen_sym(n: int, seed: int) -> np.ndarray:
    """Symmetric n x n matrix: (G + G^T) / 2 over the same stream as
    gen_general(n, n, seed)."""
    g = gen_general(n, n, seed)
    return np.asfortranarray((g + g.T) / 2.0)


def save_matrix(path: str, a: np.ndarray) -> None:
    """Plain-text dump: first line "rows cols", then column-major values,
    one per line, with 17 significant digits (value-exact on reload)."""
    a = np.asarray(a, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for v in a.flatten(order="F"):
            fh.write(f"{v:.16e}\n")


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise ValueError(f"{path}: first line must be 'rows cols'")
        m, n = int(head[0]), int(head[1])
        vals = np.array(fh.read().split(), dtype=np.float64)
    if vals.size != m * n:
        raise ValueError(f"{path}: expected {m * n} values, found {vals.size}")
    return vals.reshape((m, n), order="F")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bandred-bench",
        description="Benchmark the band reduction variants and analyze "
                    "their look-ahead dependencies.")
    p.add_argument("--algo", required=True, choices=_ALGOS)
    p.add_argument("--n", type=int, help="column dimension (rows too for SEVP)")
    p.add_argument("--m", type=int,
                   help="row dimension, SVD algos and depgraph (default: n)")
    p.add_argument("--w", type=int, help="target bandwidth (default: 16)")
    p.add_argument("--b", type=int, nargs="+",
                   help="block sizes, one row each; with more than one, the "
                        "fastest row is repeated with best=1 (default: 16 "
                        "capped at w, or w/2 for V1)")
    p.add_argument("--seed", type=int, help="input seed (default: 0)")
    p.add_argument("--threads", type=int, help="total workers (default: 1)")
    p.add_argument("--ts", type=int,
                   help="workers in the sequential group (0: no look-ahead; "
                        "default: 1)")
    p.add_argument("--verify", action="store_true", default=None,
                   help="check spectrum/singular values against NumPy's "
                        "LAPACK and the band profile; failures exit 1")
    p.add_argument("--dump", metavar="FILE", help="write the input matrix")
    p.add_argument("--load", metavar="FILE",
                   help="read the input matrix instead of generating it")
    p.add_argument("--trace", metavar="FILE", help="write the event trace")
    p.add_argument("--dot", metavar="FILE",
                   help="write the dependency DAG (depgraph only)")
    p.add_argument("--form", choices=["triband", "band"],
                   help="reduction form analyzed by depgraph (default: "
                        "triband)")
    p.add_argument("--ratio", type=int,
                   help="depgraph bandwidth ratio: w = ratio * b (default: 1)")
    return p


# The options of one mode only, by name, with their defaults. They parse to
# None, so main can tell a given option from an omitted one.
_BENCH_ONLY = {"verify": False, "threads": 1, "ts": 1, "trace": None,
               "dump": None, "load": None, "seed": 0, "w": 16}
_DEPGRAPH_ONLY = {"dot": None, "form": "triband", "ratio": 1}


def _legal_blocks(args) -> list[int]:
    if args.b:
        return args.b
    cap = args.w // 2 if args.algo in ("sevp-v1", "svd-v1") else args.w
    return [max(1, min(16, cap))]


def _verify(a_in, res, is_sevp, w):
    """(ok, deviation): the LAPACK spectra of input and band agree to 1e-11
    relative, and nothing lies outside the band."""
    kind, bws = ("eig", (w, w)) if is_sevp else ("sv", (res.lower_bw, res.upper_bw))
    dev = spectrum_deviation(a_in, res.band, kind)
    return dev <= 1e-11 and band_check(res.band, *bws) == 0.0, dev


def _config(algo, m, n, w, b):
    if algo in _SEVP_VARIANTS:
        return SevpConfig(n=n, w=w, b=b, variant=_SEVP_VARIANTS[algo])
    if algo == "svd-triband":
        return SvdConfig(m=m, n=n, w=w, b=b, form=SvdForm.TRIANGULAR_BAND)
    return SvdConfig(m=m, n=n, w=w, b=b, variant=_SVD_VARIANTS[algo])


def _run_bench(args, parser) -> int:
    is_sevp = args.algo.startswith("sevp")
    if args.load:
        try:
            a_in = load_matrix(args.load)
        except (OSError, ValueError) as exc:
            parser.error(f"--load: {exc}")
        m, n = a_in.shape
        if is_sevp and m != n:
            parser.error(f"{args.algo} needs a square matrix, "
                         f"loaded {m}x{n}")
        if not np.isfinite(np.tril(a_in) if is_sevp else a_in).all():
            parser.error(f"--load: {args.load} holds NaN or Inf "
                         f"where {args.algo} reads it")
    elif args.n is None:
        parser.error("--n is required unless --load is given")
    # A library error names the library's parameters; the options of the
    # step that raised it go in front.
    options = "--load" if args.load else "--n/--m"
    try:
        if not args.load:
            a_in = (gen_sym(args.n, args.seed) if is_sevp else
                    gen_general(args.n if args.m is None else args.m, args.n, args.seed))
        m, n = a_in.shape
        options += "/--w/--b"
        configs = [_config(args.algo, m, n, args.w, b) for b in _legal_blocks(args)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for cfg in configs:
                cfg.validate()
        options = "--threads/--ts"
        groups = ExecGroups(args.threads, args.ts)
    except ValueError as exc:
        parser.error(f"{options}: {exc}")

    if args.dump:
        save_matrix(args.dump, a_in)
    print(CSV_HEADER, flush=True)
    # m < n runs through the transpose, so charge the transposed problem
    nominal = (sevp_nominal_flops(n) if is_sevp
               else svd_nominal_flops(max(m, n), min(m, n)))
    failed = False
    best_row, best_gf = None, -1.0
    sweep_trace = EventTrace()  # each reduction restarts groups.trace
    with groups:
        for cfg in configs:
            t0 = time.perf_counter()
            if is_sevp:
                res = reduce_sym_band(a_in, cfg, groups)
            else:
                res = reduce_band_svd(a_in, cfg, groups)
            secs = time.perf_counter() - t0
            sweep_trace.records += groups.trace.records
            gf = nominal / secs / 1e9
            dev_txt = ""
            if args.verify:
                ok, dev = _verify(a_in, res, is_sevp, args.w)
                dev_txt = repr(dev)
                if not ok:
                    failed = True
                    print(f"verify FAILED: {args.algo} m={m} n={n} "
                          f"w={args.w} b={cfg.b} max_dev={dev}",
                          file=sys.stderr)
            row = [args.algo, str(m), str(n), str(args.w), str(cfg.b),
                   str(groups.ts_count), str(groups.tp_count),
                   repr(secs), repr(gf), dev_txt, ""]
            print(",".join(row), flush=True)
            if gf > best_gf:
                best_gf, best_row = gf, row
        if len(configs) > 1:
            print(",".join(best_row[:-1] + ["1"]), flush=True)
        if args.trace:
            sweep_trace.dump(args.trace)
    return 1 if failed else 0


def _run_depgraph(args, parser) -> int:
    if args.b and len(args.b) > 1:
        parser.error("depgraph takes one --b")
    b = args.b[0] if args.b else 2
    w = args.ratio * b
    n = args.n if args.n is not None else 24
    m = args.m if args.m is not None else n
    form = SvdForm.TRIANGULAR_BAND if args.form == "triband" else SvdForm.BAND
    try:
        tasks = enumerate_tasks(m, n, w, b, form)
        dag = build_dag(tasks, m, n, w, b, form)
        report = analyze_overlap(dag, w, b, form)
    except ValueError as exc:
        parser.error(f"--n/--m/--b/--ratio: {exc}")
    print(f"form={args.form} m={m} n={n} w={w} b={b} "
          f"tasks={len(dag.nodes)} edges={len(dag.edges)} "
          f"steady={len(report.steady_iterations)} "
          f"left={report.left_feasible} right={report.right_feasible} "
          f"both={report.both_feasible}", file=sys.stderr)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(dag))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.algo == "depgraph":
        foreign = [*_BENCH_ONLY]
    else:
        foreign = [*_DEPGRAPH_ONLY, *(["m"] if args.algo in _SEVP_VARIANTS else [])]
    for name in foreign:
        if getattr(args, name) is not None:
            parser.error(f"--{name} does not apply to --algo {args.algo}")
    for name in ("n", "m", "seed"):
        if args.load is not None and getattr(args, name) is not None:
            parser.error(f"--{name} does not apply with --load")
    for name, default in {**_BENCH_ONLY, **_DEPGRAPH_ONLY}.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.algo == "depgraph":
        return _run_depgraph(args, parser)
    return _run_bench(args, parser)


if __name__ == "__main__":
    sys.exit(main())
