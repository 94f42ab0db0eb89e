"""Per-layer self time, measured by wrapping public entry points from outside.

:func:`traced` replaces each entry point in :data:`ENTRY_POINTS` with a
span that records its duration and subtracts the time of the spans nested
inside it, so every layer is charged only for its own work (its *self
time*).  Handlers that commit protocols register on a storage node are
wrapped as they are registered and charged to the layer of the module that
defines them.  Every replaced attribute is put back when the context exits.

Work no span covers, such as private callbacks the simulator runs directly
(network delivery, timeouts, delayed admission), is charged to ``sim``,
whose ``Simulator.run`` span encloses the whole drain.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

LAYERS = ("sim", "net", "storage", "paxos", "mdcc", "baselines", "core", "obs", "check")

#: (module, owner, attribute, layer): ``owner`` is a class in ``module``, or
#: None when the attribute is a function of the module itself.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator", "run", "sim"),
    ("repro.net.network", "Network", "send", "net"),
    ("repro.storage.node", "StorageNode", "receive", "storage"),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage"),
    ("repro.paxos.acceptor", "OptionAcceptor", "handle_accept", "paxos"),
    ("repro.mdcc.coordinator", "MdccCoordinator", "execute", "mdcc"),
    ("repro.mdcc.coordinator", "MdccCoordinator", "receive", "mdcc"),
    ("repro.mdcc.coordinator", "MdccCoordinator", "progress", "mdcc"),
    ("repro.baselines.twopc", "TwoPcCoordinator", "execute", "baselines"),
    ("repro.baselines.twopc", "TwoPcCoordinator", "receive", "baselines"),
    ("repro.core.session", "PlanetSession", "submit", "core"),
    ("repro.core.session", "PlanetSession", "evaluate_likelihood", "core"),
    ("repro.core.likelihood", "CommitLikelihoodModel", "likelihood", "core"),
    ("repro.core.admission", "AdmissionController", "decide", "core"),
    ("repro.obs.events", "Tracer", "emit", "obs"),
    ("repro.check.history", "HistoryRecorder", "on_event", "obs"),
    ("repro.check.checker", None, "check_history", "check"),
    ("repro.check.predict", None, "predict_history", "check"),
)

REGISTER_HANDLER = ("repro.storage.node", "StorageNode", "register_handler")


def layer_of_module(module_name: str) -> str:
    """``repro.mdcc.replica`` -> ``mdcc``; anything else -> ``storage``."""
    parts = module_name.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "storage"


class LayerClock:
    """Self time and call counts per layer, plus calls per entry point."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.entry_calls: Dict[str, int] = {}
        # One accumulator per open span for the time of its children, above
        # a bottom slot that top-level spans add to.
        self._child_s: List[float] = [0.0]

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        self_s, calls, entry_calls = self.self_s, self.calls, self.entry_calls
        entry_calls.setdefault(name, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_s = self._child_s
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - child_s.pop()
                child_s[-1] += elapsed
                calls[layer] += 1
                entry_calls[name] += 1

        return span


def _resolve(module_name: str, owner_name):
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name)


@contextmanager
def traced(clock: LayerClock) -> Iterator[LayerClock]:
    """Install every span for the duration of the block, then restore."""
    saved: List[Tuple[object, str, object]] = []

    def replace(owner, attr: str, value) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for module_name, owner_name, attr, layer in ENTRY_POINTS:
            owner = _resolve(module_name, owner_name)
            name = f"{owner_name or module_name}.{attr}"
            replace(owner, attr, clock.wrap(layer, name, owner.__dict__[attr]))

        module_name, owner_name, attr = REGISTER_HANDLER
        node_cls = _resolve(module_name, owner_name)
        register = node_cls.__dict__[attr]

        def register_handler(node, message_type, handler):
            qualname = getattr(handler, "__qualname__", type(handler).__name__)
            layer = layer_of_module(getattr(handler, "__module__", "") or "")
            return register(node, message_type, clock.wrap(layer, qualname, handler))

        replace(node_cls, attr, register_handler)
        yield clock
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
