"""Pins of the fault path: recovery and anti-entropy outcomes stay fixed.

Orphan recovery reads a replica's accepted options of one transaction
through a per-transaction index, in accept order, and anti-entropy walks
the store once per tick.  Neither order may change what the cluster does.
Two fault schedules run under history capture on every available backend:
the committed example plan (loss windows and a replica crash) and a seeded
campaign plan with a coordinator crash, which drives orphan recovery
through to recovered aborts.  The history digest, the summed anti-entropy
repairs, the summed recovered aborts and the message count must equal the
values recorded before the index and the one-pass walk existed.
"""

from __future__ import annotations

import pytest

import repro.cluster
from repro import engine
from repro.check import campaign
from repro.faults import FaultPlan
from repro.ops import reset_txid_counter

BACKENDS = ["python"] + (["compiled"] if engine.compiled_available() else [])

#: Seed 5's campaign plan: two latency spikes, a us_west partition and a
#: crash of the us_east coordinator at 2607 ms.
COORDINATOR_CRASH_SEED = 5

#: (history digest, ae_repairs, recovered_aborts, messages_sent).
EXAMPLE_PLAN_PIN = (
    "68210b8ad27bb965ee8aa098b8a6b162931f05f5b28954448765e15f0094b8e2", 9, 1, 3657,
)
COORDINATOR_CRASH_PIN = (
    "3d78c76f01569629f94b838b6b02c4b705dfe1ec06d6c8ff690ea6f60acc3d20", 3, 9, 2393,
)


def _run(monkeypatch, backend, seed, plan=None):
    """One checked schedule; returns its pin tuple and violation count."""
    built = []

    class Capturing(repro.cluster.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    # ``run_schedule`` imports ``Cluster`` from ``repro.cluster`` when called.
    monkeypatch.setattr(repro.cluster, "Cluster", Capturing)
    reset_txid_counter()
    with engine.use(backend):
        row = campaign.run_schedule(seed=seed, plan=plan)
    (cluster,) = built
    assert engine.backend_name(cluster.sim) == backend
    replicas = cluster.replicas.values()
    pin = (
        row["digest"],
        sum(replica.ae_repairs for replica in replicas),
        sum(replica.recovered_aborts for replica in replicas),
        cluster.network.messages_sent,
    )
    return pin, len(row["violations"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_example_plan_pinned(monkeypatch, backend):
    payload = campaign.load_plan("examples/campaign_plan.json")
    pin, violations = _run(
        monkeypatch, backend, payload["seed"], FaultPlan.from_dict(payload["plan"])
    )
    assert violations == 0
    assert pin == EXAMPLE_PLAN_PIN


@pytest.mark.parametrize("backend", BACKENDS)
def test_coordinator_crash_plan_pinned(monkeypatch, backend):
    pin, violations = _run(monkeypatch, backend, COORDINATOR_CRASH_SEED)
    assert violations == 0
    assert pin == COORDINATOR_CRASH_PIN
    assert pin[2] > 0  # the schedule really exercises orphan recovery
