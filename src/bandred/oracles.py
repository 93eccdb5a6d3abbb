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


def spectra_match(a, b, tol):
    """Compare two sorted spectra; returns (within_tol, max_deviation)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False, float("inf")
    if a.size == 0:
        return True, 0.0
    dev = float(np.max(np.abs(a - b)))
    return dev <= tol, dev
