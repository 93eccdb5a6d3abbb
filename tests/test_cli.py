from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from bandred import (
    gen_general,
    gen_sym,
    load_matrix,
    save_matrix,
    sevp_nominal_flops,
    svd_nominal_flops,
)

HEADER = "algo,m,n,w,b,ts,tp,seconds,gflops,verify_max_dev,best"


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "bandred", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _rows(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines and lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


# --- deterministic input generation ----------------------------------------


def _splitmix_ref(seed, i):
    """Independent big-int reimplementation of the generator for one index."""
    mask = (1 << 64) - 1
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z = z ^ (z >> 31)
    return float(z >> 11) * 2.0**-53 + 2.0**-54


def test_gen_general_matches_reference_stream():
    A = gen_general(5, 3, seed=42)
    for r in (0, 4):
        for c in (0, 2):
            assert A[r, c] == _splitmix_ref(42, c * 5 + r)  # column-major index


def test_gen_general_deterministic_and_seed_sensitive():
    a = gen_general(16, 9, 7)
    assert np.array_equal(a, gen_general(16, 9, 7))
    assert not np.array_equal(a, gen_general(16, 9, 8))
    assert np.all((a > 0.0) & (a < 1.0))


def test_gen_sym_is_symmetric_and_matches_stream():
    n = 64
    S = gen_sym(n, 3)
    assert np.array_equal(S, S.T)
    G = gen_general(n, n, 3)
    assert np.array_equal(S, (G + G.T) / 2.0)
    assert np.all((S > 0.0) & (S < 1.0))


def test_gen_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_general(0, 4, 0)


def test_save_load_roundtrip_is_exact(tmp_path):
    A = gen_general(7, 5, 9) * 1e6 - 5e5  # exercise exponents and signs
    path = tmp_path / "m.txt"
    save_matrix(path, A)
    assert np.array_equal(load_matrix(path), A)
    head = path.read_text().splitlines()[0]
    assert head == "7 5"


def test_load_rejects_inconsistent_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError):
        load_matrix(path)


# --- benchmark mode ---------------------------------------------------------


def test_basic_run_emits_one_csv_row():
    proc = _run("--algo", "sevp-ref", "--n", "24", "--w", "4", "--b", "2")
    assert proc.returncode == 0
    rows = _rows(proc)
    assert len(rows) == 1
    algo, m, n, w, b, ts, tp, secs, gf, dev, best = rows[0]
    assert (algo, m, n, w, b) == ("sevp-ref", "24", "24", "4", "2")
    assert (ts, tp) == ("1", "0")
    assert float(secs) > 0.0
    assert dev == "" and best == ""


def test_gflops_column_is_nominal_over_seconds():
    proc = _run("--algo", "svd-ref", "--n", "20", "--m", "26", "--w", "4", "--b", "2")
    rows = _rows(proc)
    _, m, n, _, _, _, _, secs, gf, _, _ = rows[0]
    nominal = svd_nominal_flops(26, 20)
    assert float(gf) == nominal / float(secs) / 1e9


def test_verify_passes_and_reports_deviation():
    proc = _run(
        "--algo", "sevp-v2", "--n", "30", "--w", "6", "--b", "4",
        "--threads", "2", "--verify",
    )
    assert proc.returncode == 0, proc.stderr
    rows = _rows(proc)
    dev = rows[0][9]
    assert dev != ""
    assert 0.0 <= float(dev) <= 1e-11 * 30  # eigenvalues of gen_sym(30) are O(n)


def test_verify_runs_at_sizes_above_256():
    # LAPACK checks every size: n = 300 SEVP, min(m, n) = 160 SVD
    for args in (("--algo", "sevp-ref", "--n", "300"),
                 ("--algo", "svd-sim", "--m", "200", "--n", "160")):
        proc = _run(*args, "--w", "8", "--b", "4", "--verify")
        assert proc.returncode == 0, (args, proc.stderr)
        assert 0.0 <= float(_rows(proc)[0][9]) <= 1e-11 * 300


def test_triband_algo_runs_and_verifies():
    proc = _run(
        "--algo", "svd-triband", "--n", "12", "--m", "16", "--w", "2", "--b", "2",
        "--verify",
    )
    assert proc.returncode == 0, proc.stderr
    assert _rows(proc)[0][0] == "svd-triband"


def test_wide_matrix_charges_the_transposed_problem():
    # m < n reduces A^T internally; gflops must use the transposed nominal
    proc = _run(
        "--algo", "svd-triband", "--m", "14", "--n", "20", "--w", "2", "--b", "2",
        "--verify",
    )
    assert proc.returncode == 0, proc.stderr
    row = _rows(proc)[0]
    assert (row[1], row[2]) == ("14", "20")
    assert float(row[8]) == svd_nominal_flops(20, 14) / float(row[7]) / 1e9


def test_config_errors_exit_2():
    checks = [
        ("--algo", "sevp-v1", "--n", "24", "--w", "4", "--b", "3"),  # 2b > w
        ("--algo", "sevp-ref"),  # no --n and no --load
        ("--algo", "sevp-ref", "--n", "24", "--b", "40"),  # b > w
        ("--algo", "sevp-ref", "--n", "24", "--threads", "2", "--ts", "3"),
        ("--algo", "nope", "--n", "8"),
        ("--algo", "sevp-ref", "--n", "24", "--b", "2", "--b-sweep"),
    ]
    for args in checks:
        proc = _run(*args)
        assert proc.returncode == 2, (args, proc.stderr)


def test_block_sweep_emits_best_row():
    proc = _run(
        "--algo", "svd-ref", "--n", "20", "--m", "24", "--w", "4",
        "--b-sweep", "--b-start", "1", "--b-end", "4", "--b-step", "1",
    )
    assert proc.returncode == 0
    rows = _rows(proc)
    assert len(rows) == 5
    assert [r[4] for r in rows[:4]] == ["1", "2", "3", "4"]
    assert all(r[10] == "" for r in rows[:4])
    best = rows[4]
    assert best[10] == "1"
    assert best[:10] in [r[:10] for r in rows[:4]]
    assert float(best[8]) == max(float(r[8]) for r in rows[:4])


def test_v1_sweep_defaults_cap_at_half_w():
    proc = _run(
        "--algo", "sevp-v1", "--n", "30", "--w", "8",
        "--b-sweep", "--b-start", "2", "--b-step", "2",
    )
    assert proc.returncode == 0
    rows = _rows(proc)
    assert [r[4] for r in rows[:-1]] == ["2", "4"]  # default end is w/2


def test_dump_and_load_reproduce_the_run(tmp_path):
    dump = tmp_path / "in.txt"
    p1 = _run(
        "--algo", "sevp-ref", "--n", "20", "--w", "4", "--b", "2",
        "--seed", "5", "--dump", str(dump), "--verify",
    )
    assert p1.returncode == 0
    assert np.array_equal(load_matrix(dump), gen_sym(20, 5))
    p2 = _run(
        "--algo", "sevp-ref", "--w", "4", "--b", "2", "--load", str(dump), "--verify"
    )
    assert p2.returncode == 0
    blank = lambda r: r[:7] + r[9:]  # timing fields differ between runs
    assert [blank(r) for r in _rows(p1)] == [blank(r) for r in _rows(p2)]


def test_load_rejects_nonsquare_for_sevp(tmp_path):
    path = tmp_path / "rect.txt"
    save_matrix(path, gen_general(4, 5, 0))
    proc = _run("--algo", "sevp-ref", "--load", str(path))
    assert proc.returncode == 2


def _config_error(proc):
    """A configuration error: exit 2, nothing on stdout, and one error line
    after the usage text, with no traceback."""
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len([ln for ln in proc.stderr.splitlines() if "error:" in ln]) == 1, proc.stderr


def test_bad_load_file_is_a_config_error(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("2 2\n1.0\n2.0\n3.0\n")
    junk = tmp_path / "junk.txt"
    junk.write_text("2 2\n1.0\nx\n3.0\n4.0\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("2 2\n")
    for path in (tmp_path / "missing.txt", short, junk, empty):
        for algo in ("sevp-ref", "svd-ref"):
            _config_error(_run("--algo", algo, "--w", "1", "--load", str(path)))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_load_with_nan_or_inf_where_the_reduction_reads_is_a_config_error(tmp_path, bad):
    """SEVP reads only the lower triangle; the SVD reads every entry."""
    upper, lower = gen_sym(6, 0), gen_sym(6, 0)
    upper[1, 4] = bad
    lower[4, 1] = bad
    for name, a in (("upper", upper), ("lower", lower)):
        save_matrix(tmp_path / name, a)
    args = ("--w", "2", "--b", "1", "--load")
    _config_error(_run("--algo", "sevp-ref", *args, str(tmp_path / "lower")))
    _config_error(_run("--algo", "svd-ref", *args, str(tmp_path / "lower")))
    _config_error(_run("--algo", "svd-ref", *args, str(tmp_path / "upper")))
    ok = _run("--algo", "sevp-ref", *args, str(tmp_path / "upper"))
    assert ok.returncode == 0, ok.stderr
    assert len(_rows(ok)) == 1


def test_dump_waits_for_every_config_check(tmp_path):
    dump = tmp_path / "in.txt"
    for bad in (("--w", "0"), ("--threads", "0"), ("--b", "40")):
        _config_error(_run("--algo", "sevp-ref", "--n", "8", "--dump", str(dump), *bad))
        assert not dump.exists(), bad


def test_trace_file_contains_schedule_events(tmp_path):
    # a b-sweep: each reduction restarts the groups' trace, and the file
    # must still hold every configuration (b = 2 and b = 4)
    trace = tmp_path / "trace.tsv"
    proc = _run(
        "--algo", "sevp-v1", "--n", "30", "--w", "8", "--b-sweep",
        "--b-start", "2", "--b-step", "2", "--threads", "2", "--trace", str(trace),
    )
    assert proc.returncode == 0
    lines = trace.read_text().splitlines()
    ids = [line.split("\t")[0] for line in lines]
    assert ids.count("qr@0") == 2 and any(i.startswith("mid-head@") for i in ids)
    assert "qr@2" in ids and "qr@4" in ids


def test_csv_is_stable_across_runs():
    args = ("--algo", "svd-v2", "--n", "24", "--w", "6", "--b", "4",
            "--threads", "2", "--verify")
    r1, r2 = _run(*args), _run(*args)
    assert r1.returncode == 0 and r2.returncode == 0
    blank = lambda r: r[:7] + r[9:]
    assert [blank(r) for r in _rows(r1)] == [blank(r) for r in _rows(r2)]


# --- depgraph mode ----------------------------------------------------------


def test_depgraph_reports_to_stderr_only(tmp_path):
    proc = _run("--algo", "depgraph", "--ratio", "2")
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "left=True right=True both=False" in proc.stderr
    assert "form=triband" in proc.stderr

    proc = _run("--algo", "depgraph", "--ratio", "2", "--form", "band")
    assert "left=True right=True both=True" in proc.stderr

    proc = _run("--algo", "depgraph", "--ratio", "1")
    assert "left=False right=False both=False" in proc.stderr


def test_depgraph_writes_dot_file(tmp_path):
    dot = tmp_path / "dag.dot"
    proc = _run("--algo", "depgraph", "--ratio", "3", "--dot", str(dot))
    assert proc.returncode == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "->" in text


def test_depgraph_rejects_unanalyzable_configs():
    for args in (("--ratio", "1", "--n", "6"), ("--m", "20", "--n", "24")):
        proc = _run("--algo", "depgraph", *args)
        assert proc.returncode == 2, args
