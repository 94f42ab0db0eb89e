"""Per-category tracer gates: a category no sink wants costs a branch.

Hot call sites (kernel dispatch, message send and delivery, WAL append,
Paxos rounds and votes, stage spans) check ``tracer.wants_<category>``
before building a record.  With only a history recorder attached, none of
them may build one, and the kernel must take its bare drain loop; a sink
that wants ``sim`` still sees every dispatch; and the history itself is
the same whichever other categories are captured.
"""

from __future__ import annotations

import pytest

from repro import engine, obs
from repro.check.history import HistoryRecorder
from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetConfig, PlanetSession
from repro.obs.events import GATED_CATEGORIES, Tracer

BACKENDS = ["python"] + (["compiled"] if engine.compiled_available() else [])
SITES = ("us_west", "us_east", "ireland", "singapore", "tokyo")


class CollectingSink(obs.Sink):
    def __init__(self):
        self.events = []
        self.spans = []

    def on_event(self, event):
        self.events.append(event)

    def on_span(self, span):
        self.spans.append(span)


def _run(backend, attach):
    """A contended guessing workload; ``attach(sim)`` wires the sinks."""
    cluster = Cluster(ClusterConfig(seed=17, backend=backend))
    assert engine.backend_name(cluster.sim) == backend
    attach(cluster.sim)
    cluster.load({"a": 0, "b": 0})
    config = PlanetConfig(default_guess_threshold=0.5)
    sessions = [PlanetSession(cluster, site, config=config) for site in SITES]
    for index in range(20):
        session = sessions[index % len(sessions)]
        key = "ab"[index % 2]
        tx = session.transaction().read(key).write(key, index)
        cluster.sim.schedule(index * 7.0, session.submit, tx)
    cluster.run()
    return cluster


@pytest.fixture
def built_records(monkeypatch):
    """Categories of every record the tracer is asked to build."""
    categories = []

    def spy(method, category_index):
        def wrapper(self, *args, **kwargs):
            categories.append(args[category_index])
            return method(self, *args, **kwargs)

        return wrapper

    # emit(time, category, ...), begin(time, category, ...),
    # span(start, end, category, ...)
    monkeypatch.setattr(Tracer, "emit", spy(Tracer.emit, 1))
    monkeypatch.setattr(Tracer, "begin", spy(Tracer.begin, 1))
    monkeypatch.setattr(Tracer, "span", spy(Tracer.span, 2))
    return categories


def _count_dispatch_hooks(monkeypatch, backend):
    kernel = engine.get_kernel(backend)
    calls = []
    original = kernel._observe_dispatch

    def counting(self, event):
        calls.append(event)
        return original(self, event)

    monkeypatch.setattr(kernel, "_observe_dispatch", counting)
    return calls


def test_gates_follow_sink_categories():
    tracer = Tracer()
    assert not any(getattr(tracer, "wants_" + c) for c in GATED_CATEGORIES)
    history, everything = CollectingSink(), CollectingSink()
    tracer.add_sink(history, categories=("history",))
    assert tracer.enabled
    assert not any(getattr(tracer, "wants_" + c) for c in GATED_CATEGORIES)
    tracer.add_sink(CollectingSink(), categories=("wal",))
    assert tracer.wants_wal and not tracer.wants_message
    tracer.add_sink(everything)
    assert all(getattr(tracer, "wants_" + c) for c in GATED_CATEGORIES)
    for sink in list(tracer._sinks):
        tracer.remove_sink(sink)
    assert not tracer.enabled
    assert not any(getattr(tracer, "wants_" + c) for c in GATED_CATEGORIES)


@pytest.mark.parametrize("backend", BACKENDS)
def test_history_only_builds_no_hot_records(monkeypatch, backend, built_records):
    dispatches = _count_dispatch_hooks(monkeypatch, backend)
    recorder = HistoryRecorder()
    cluster = _run(backend, recorder.attach)
    assert cluster.sim.events_processed > 0
    assert len(recorder.history()) > 0
    assert dispatches == []
    assert "history" in built_records
    assert not set(built_records) & set(GATED_CATEGORIES)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sim_sink_sees_every_dispatch(monkeypatch, backend):
    dispatches = _count_dispatch_hooks(monkeypatch, backend)
    sink = CollectingSink()
    cluster = _run(
        backend, lambda sim: sim.tracer.add_sink(sink, categories=("sim",))
    )
    names = [(e.category, e.name) for e in sink.events]
    assert names == [("sim", "dispatch")] * cluster.sim.events_processed
    assert len(dispatches) == cluster.sim.events_processed


@pytest.mark.parametrize("backend", BACKENDS)
def test_history_digest_independent_of_other_categories(backend):
    alone = HistoryRecorder()
    _run(backend, alone.attach)

    beside = HistoryRecorder()
    everything = CollectingSink()

    def attach_both(sim):
        beside.attach(sim)
        sim.tracer.add_sink(everything)

    _run(backend, attach_both)
    categories = {e.category for e in everything.events}
    categories |= {s.category for s in everything.spans}
    assert set(GATED_CATEGORIES) <= categories
    assert alone.history().digest() == beside.history().digest()
