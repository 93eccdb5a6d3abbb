from __future__ import annotations

# Import the package before anything else pulls in numpy, so the BLAS thread
# pins in bandred.__init__ take effect for the whole test process.
import bandred  # noqa: F401
import bandred.lookahead
import numpy as np
import pytest
from bandred import depgraph, spectra_match


@pytest.fixture
def captured_plans(monkeypatch):
    """Every PhasePlan the reductions hand to run_phase, in order.

    Wraps run_phase where the reductions' shared run loop (lookahead.run)
    looks it up, so the tasks, their declared spans and the phase order are
    exactly what ran."""
    plans = []
    real = bandred.runtime.run_phase

    def capture(plan, groups):
        plans.append(plan)
        return real(plan, groups)

    monkeypatch.setattr(bandred.lookahead, "run_phase", capture)
    return plans


@pytest.fixture
def reference_nodes(captured_plans):
    """nodes(b): the captured Reference run as depgraph TaskNodes (see
    depgraph._phase_nodes), then the capture is cleared."""

    def nodes(b):
        assert not any(p.seq_tasks for p in captured_plans), "the Reference runs one task list"
        out = depgraph._phase_nodes(captured_plans, b)
        captured_plans.clear()
        return out

    return nodes


@pytest.fixture(scope="session")
def spectrum_deviation():
    """spectrum_deviation(A, band, kind), the tests' one spectrum check.
    Handed out as a fixture: perfbench/tests/conftest.py is also a
    top-level module named conftest, so a test cannot import this one."""
    return _spectrum_deviation


def _spectrum_deviation(A, band, kind):
    """Max deviation between the LAPACK spectra of A and of band, relative
    to max |spectrum of A|: eigenvalues (np.linalg.eigvalsh) for kind
    "eig", singular values (np.linalg.svd) for kind "sv". A zero spectrum
    of A gives 0.0 when band's is zero too and inf otherwise."""
    if kind == "eig":
        want, got = np.linalg.eigvalsh(A), np.linalg.eigvalsh(band)
    elif kind == "sv":
        want, got = np.linalg.svd(A, compute_uv=False), np.linalg.svd(band, compute_uv=False)
    else:
        raise ValueError(f"kind is 'eig' or 'sv', got {kind!r}")
    _, dev = spectra_match(want, got, 0.0)
    scale = float(np.max(np.abs(want), initial=0.0))
    if scale == 0.0:
        return 0.0 if dev == 0.0 else float("inf")
    return dev / scale
