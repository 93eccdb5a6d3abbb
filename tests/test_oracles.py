from __future__ import annotations

import numpy as np

from bandred import band_check, orth_residual, spectra_match


def test_band_check_identity_is_zero():
    assert band_check(np.eye(6), 0, 0) == 0.0


def test_band_check_is_exact_not_a_norm():
    B = np.array(
        [
            [1.0, 2.0, 0.5, 0.0],
            [3.0, 1.0, 2.0, -7.0],
            [0.25, 3.0, 1.0, 2.0],
            [0.0, -0.125, 3.0, 1.0],
        ]
    )
    # bandwidth (1,1): offband entries are 0.5, 0.0, -7.0, 0.25, 0.0, -0.125
    assert band_check(B, 1, 1) == 7.0
    assert band_check(B, 3, 3) == 0.0


def test_band_check_whole_matrix_in_band():
    assert band_check(np.full((3, 5), 9.0), 4, 4) == 0.0


def test_orth_residual_identity():
    assert orth_residual(np.eye(7)) == 0.0


def test_orth_residual_rotation_tiny():
    c, s = np.cos(0.3), np.sin(0.3)
    Q = np.array([[c, -s], [s, c]])
    assert orth_residual(Q) <= 4 * np.finfo(np.float64).eps


def test_spectra_match_identical():
    a = np.array([3.0, 2.0, -1.0])
    ok, dev = spectra_match(a, a.copy(), 1e-15)
    assert ok and dev == 0.0


def test_spectra_match_inside_and_outside_tol():
    a = np.array([3.0, 2.0, -1.0])
    b = a + 5e-13
    ok, dev = spectra_match(a, b, 1e-12)
    assert ok and 4e-13 <= dev <= 1e-12
    ok2, _ = spectra_match(a, a + 2e-12, 1e-12)
    assert not ok2


def test_spectra_match_shape_mismatch():
    ok, dev = spectra_match(np.zeros(3), np.zeros(4), 1.0)
    assert not ok and dev == float("inf")
