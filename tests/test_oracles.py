from __future__ import annotations

import numpy as np
import pytest

from bandred import band_check, orth_residual, spectrum_deviation


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


def test_spectrum_deviation_of_identical_spectra_is_zero():
    A = np.diag([3.0, 2.0, -1.0])
    assert spectrum_deviation(A, A.copy(), "eig") == 0.0
    assert spectrum_deviation(A, A.copy(), "sv") == 0.0


def test_spectrum_deviation_of_a_zero_matrix():
    Z = np.zeros((3, 3))
    assert spectrum_deviation(Z, Z.copy(), "eig") == 0.0
    assert spectrum_deviation(Z, np.diag([0.0, 0.0, 1e-300]), "sv") == float("inf")


def test_spectrum_deviation_is_relative():
    A = np.diag([3.0, 2.0, -1.0])
    dev = spectrum_deviation(A, A * (1 + 5e-13), "eig")
    assert 4e-13 <= dev <= 1e-12


def test_spectrum_deviation_of_spectra_of_different_lengths_is_inf():
    assert spectrum_deviation(np.eye(3), np.eye(4), "eig") == float("inf")
    assert spectrum_deviation(np.eye(1), np.eye(3), "sv") == float("inf")


def test_spectrum_deviation_rejects_an_unknown_kind():
    with pytest.raises(ValueError):
        spectrum_deviation(np.eye(2), np.eye(2), "qr")
