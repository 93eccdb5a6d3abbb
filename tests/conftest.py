from __future__ import annotations

# Import the package before anything else pulls in numpy, so the BLAS thread
# pins in bandred.__init__ take effect for the whole test process.
import bandred  # noqa: F401
import bandred.lookahead
import pytest
from bandred import depgraph


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

