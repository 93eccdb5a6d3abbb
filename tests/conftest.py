from __future__ import annotations

import re

# Import the package before anything else pulls in numpy, so the BLAS thread
# pins in bandred.__init__ take effect for the whole test process.
import bandred  # noqa: F401
import bandred.sevp
import bandred.svd
import pytest
from bandred import TaskKind, depgraph


@pytest.fixture
def captured_plans(monkeypatch):
    """Every PhasePlan the reductions hand to run_phase, in order.

    Wraps run_phase where sevp and svd look it up, so the tasks, their
    declared spans and the phase order are exactly what ran."""
    plans = []
    real = bandred.runtime.run_phase

    def capture(plan, groups):
        plans.append(plan)
        return real(plan, groups)

    for mod in (bandred.sevp, bandred.svd):
        monkeypatch.setattr(mod, "run_phase", capture)
    return plans


_NODE_KINDS = {
    "qr": TaskKind.QR_PANEL,
    "lq": TaskKind.LQ_PANEL,
    "left": TaskKind.LEFT_UPDATE,
    "right": TaskKind.RIGHT_UPDATE,
}


@pytest.fixture
def reference_nodes(captured_plans):
    """nodes(b): the captured Reference run as depgraph TaskNodes, then the
    capture is cleared.

    The kind comes from the task-id prefix and the iteration is the phase
    index. Each update task is split on the global b-grid, with the panel
    range taken from the first span it reads."""

    def nodes(b):
        out = []
        for it, plan in enumerate(captured_plans):
            assert not plan.seq_tasks, "the Reference runs one task list"
            for task in plan.par_tasks:
                kind = _NODE_KINDS[re.split("[-@]", task.task_id, maxsplit=1)[0]]
                (own,) = task.writes
                if kind in (TaskKind.QR_PANEL, TaskKind.LQ_PANEL):
                    out.append(depgraph._panel_node(kind, it, own.rows, own.cols))
                else:
                    panel = task.reads[0]
                    out += depgraph._update_nodes(
                        kind, it, (panel.rows, panel.cols), own.rows, own.cols, b
                    )
        captured_plans.clear()
        return out

    return nodes
