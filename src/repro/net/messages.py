"""Base message type for everything that crosses the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(slots=True)
class Message:
    """Base class for network messages.

    Concrete protocol messages (Paxos, MDCC, 2PC) subclass this near the
    protocol code that handles them.  ``sender`` and ``recipient`` are node
    ids assigned by :class:`~repro.net.network.Network`.  A message carries
    nothing that depends on process history, so its repr, and with it the
    byte counters, is the same in every run with the same seed.

    Hot-path notes: instances are ``__slots__``-backed (one small object per
    simulated message, no per-instance dict), ``kind`` is a class attribute
    stamped at subclass creation rather than a property computing
    ``type(self).__name__`` per metric label, and the wire-size proxy is
    cached after its first computation.
    """

    sender: str = field(default="", kw_only=True)
    recipient: str = field(default="", kw_only=True)
    sent_at: float = field(default=0.0, kw_only=True)
    _approx_size: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    #: The message's type name, used as the ``kind=`` metric/trace label.
    kind = "Message"

    def __init_subclass__(cls, **kwargs) -> None:
        # Explicit two-arg super: ``dataclass(slots=True)`` re-creates the
        # class, so the zero-arg form's ``__class__`` cell would still point
        # at the discarded pre-slots class object.
        super(Message, cls).__init_subclass__(**kwargs)
        cls.kind = cls.__name__

    def approx_size_bytes(self) -> int:
        """Rough wire-size proxy used by the byte counters.

        The simulator has no serialisation layer, so the length of the
        dataclass repr stands in; what matters for the per-kind byte
        metrics is the *relative* weight of option payloads vs. votes.
        The value is computed once per instance — callers only invoke it
        after the routing fields are stamped.
        """
        size = self._approx_size
        if size is None:
            size = self._approx_size = len(repr(self))
        return size
