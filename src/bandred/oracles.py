"""Verification helpers: exact band-pattern scans, residual norms and a
spectrum comparison.

The spectral oracle is LAPACK through NumPy (np.linalg.eigvalsh for
eigenvalues, np.linalg.svd(compute_uv=False) for singular values), at
every size. It shares no code with the reduction kernels, and its
backward stability bounds each computed value's error by a small multiple
of eps times the matrix norm, well inside the 1e-11 relative tolerance the
checks use; so agreement between the two is independent evidence that a
reduction kept the spectrum.
"""

import numpy as np


def band_check(B, lower_bw, upper_bw):
    """Exact max |entry| outside the band (i-j > lower_bw or j-i > upper_bw).

    Reads stored values; no tolerance. Empty off-band set gives 0.0.
    """
    B = np.asarray(B)
    m, n = B.shape
    i = np.arange(m)[:, None]
    j = np.arange(n)[None, :]
    mask = (i - j > lower_bw) | (j - i > upper_bw)
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(B[mask])))


def orth_residual(Q):
    """|| Q^T Q - I ||_F."""
    Q = np.asarray(Q, dtype=np.float64)
    n = Q.shape[1]
    return float(np.linalg.norm(Q.T @ Q - np.eye(n)))


def spectrum_deviation(A, band, kind):
    """Max deviation between the LAPACK spectra of A and of band, relative
    to max |spectrum of A|: eigenvalues (np.linalg.eigvalsh) for kind
    "eig", singular values (np.linalg.svd) for kind "sv". Spectra of
    different lengths give inf; a zero spectrum of A gives 0.0 when band's
    is zero too and inf otherwise."""
    if kind == "eig":
        want, got = np.linalg.eigvalsh(A), np.linalg.eigvalsh(band)
    elif kind == "sv":
        want, got = np.linalg.svd(A, compute_uv=False), np.linalg.svd(band, compute_uv=False)
    else:
        raise ValueError(f"kind is 'eig' or 'sv', got {kind!r}")
    if want.shape != got.shape:
        return float("inf")
    dev = float(np.max(np.abs(want - got), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    if scale == 0.0:
        return 0.0 if dev == 0.0 else float("inf")
    return dev / scale
