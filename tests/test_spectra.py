"""The three reductions keep the spectrum, checked against LAPACK: once at
the benchmark sizes, and over a Hypothesis space of shapes, blockings,
matrix contents and scales."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandred import (
    SevpConfig,
    SevpVariant,
    SvdConfig,
    SvdVariant,
    band_check,
    gen_general,
    gen_sym,
    reduce_band_svd,
    reduce_sym_band,
    reduce_tri_band,
)


def test_benchmark_sizes_keep_their_spectra(spectrum_deviation):
    """The benchmark's shapes: SEVP n=384 and SVD 512x256 (band and
    tri-band), w=32, b=16, Reference schedule."""
    S = gen_sym(384, seed=0)
    band = reduce_sym_band(S, SevpConfig(n=384, w=32, b=16)).band
    assert band_check(band, 32, 32) == 0.0
    assert spectrum_deviation(S, band, "eig") <= 1e-11
    G = gen_general(512, 256, seed=0)
    for res in (reduce_band_svd(G, SvdConfig(m=512, n=256, w=32, b=16)),
                reduce_tri_band(G, 32, 16)):
        assert band_check(res.band, res.lower_bw, res.upper_bw) == 0.0
        assert spectrum_deviation(G, res.band, "sv") <= 1e-11


# --- property tests --------------------------------------------------------

CONTENTS = ("random", "zero_columns", "rank_deficient", "graded", "zero")
SCALES = (1.0, 1e160, 1e-160, 1e300, 1e-300)


def _general(rng, m, n, content):
    """An m x n matrix of the given content, entries of order one."""
    if content == "zero":
        return np.zeros((m, n))
    if content == "rank_deficient":
        r = int(rng.integers(0, min(m, n)))
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    G = rng.standard_normal((m, n))
    if content == "zero_columns":
        G[:, rng.random(n) < 0.3] = 0.0
    elif content == "graded":
        G *= np.logspace(0, -12, n)
    return G


def _symmetric(rng, n, content):
    """A symmetric n x n matrix of the given content: zero columns come with
    their rows, a rank-deficient one is X D X^T with r < n, a graded one is
    D S D with D = diag(logspace(0, -12))."""
    if content == "zero":
        return np.zeros((n, n))
    if content == "rank_deficient":
        r = int(rng.integers(0, n))
        X = rng.standard_normal((n, r))
        return X @ np.diag(rng.choice([-1.0, 1.0], r)) @ X.T
    G = rng.standard_normal((n, n))
    S = (G + G.T) / 2.0
    if content == "zero_columns":
        zero = rng.random(n) < 0.3
        S[:, zero] = 0.0
        S[zero, :] = 0.0
    elif content == "graded":
        d = np.logspace(0, -12, n)
        S = d[:, None] * S * d[None, :]
    return S


@st.composite
def _case(draw, square):
    """Shape (m < n included unless square), w in 1..8, b in 1..w, content,
    scale and seed."""
    m = draw(st.integers(1, 40))
    n = m if square else draw(st.integers(1, 40))
    w = draw(st.integers(1, 8))
    return dict(
        m=m, n=n, w=w, b=draw(st.integers(1, w)),
        content=draw(st.sampled_from(CONTENTS)),
        scale=draw(st.sampled_from(SCALES)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _legal(variants, b, w):
    """Drop V1 where it needs 2b <= w; V2 runs any b <= w."""
    return [v for v in variants if v.value != "v1" or 2 * b <= w]


def _check(spectrum_deviation, A, band, lower_bw, upper_bw, s, kind):
    """A finite band, nothing off the band, and the spectrum of band/s within
    1e-11 of that of A/s."""
    assert np.isfinite(band).all()
    assert band_check(band, lower_bw, upper_bw) == 0.0
    assert spectrum_deviation(A / s, band / s, kind) <= 1e-11


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:V2 with 2b <= w:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(case=_case(square=True), data=st.data())
def test_sym_band_keeps_eigenvalues(case, data, spectrum_deviation):
    n, w, b, s = case["n"], case["w"], case["b"], case["scale"]
    variant = data.draw(st.sampled_from(_legal(list(SevpVariant), b, w)))
    A = _symmetric(np.random.default_rng(case["seed"]), n, case["content"]) * s
    band = reduce_sym_band(A, SevpConfig(n=n, w=w, b=b, variant=variant)).band
    _check(spectrum_deviation, A, band, w, w, s, "eig")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:V2 with 2b <= w:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(case=_case(square=False), data=st.data())
def test_band_svd_keeps_singular_values(case, data, spectrum_deviation):
    m, n, w, b, s = case["m"], case["n"], case["w"], case["b"], case["scale"]
    variant = data.draw(st.sampled_from(_legal(list(SvdVariant), b, w)))
    A = _general(np.random.default_rng(case["seed"]), m, n, case["content"]) * s
    res = reduce_band_svd(A, SvdConfig(m=m, n=n, w=w, b=b, variant=variant))
    _check(spectrum_deviation, A, res.band, res.lower_bw, res.upper_bw, s, "sv")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(case=_case(square=False))
def test_tri_band_keeps_singular_values(case, spectrum_deviation):
    m, n, w, b, s = case["m"], case["n"], case["w"], case["b"], case["scale"]
    A = _general(np.random.default_rng(case["seed"]), m, n, case["content"]) * s
    res = reduce_tri_band(A, w, b)
    _check(spectrum_deviation, A, res.band, res.lower_bw, res.upper_bw, s, "sv")
