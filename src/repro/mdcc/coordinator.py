"""Transaction coordinator (app-server side) of the MDCC engine.

The coordinator lives in the client's data center.  It serves reads from the
local replica, proposes one option per written record to every replica, counts
votes per record, and decides: commit iff every record's option is chosen by a
quorum; abort as soon as any record's option can no longer reach quorum, or
when the transaction's deadline expires.

PLANET plugs in via two seams:

* the :class:`~repro.ops.TxEvents` hooks, called on every vote and decision;
* :meth:`MdccCoordinator.progress`, a structured snapshot of per-record vote
  state that the commit-likelihood model evaluates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.mdcc import protocol
from repro.mdcc.options import Option, make_option
from repro.net.messages import Message
from repro.net.network import Network, NetworkNode
from repro.net.topology import Datacenter
from repro.ops import AbortReason, Decision, Outcome, TxEvents, TxRequest, WriteOp
from repro.paxos.ballot import classic_quorum, fast_quorum
from repro.paxos.learner import QuorumTracker
from repro.paxos.proposer import BallotGenerator
from repro.sim.kernel import Simulator


@dataclass
class MdccConfig:
    """Tuning knobs of the engine.

    ``use_fast_path``: propose options directly with the fast ballot (one
    wide-area round trip, fast quorum).  When False the coordinator runs a
    classic prepare round first (two round trips, majority quorum) — the
    ablation knob for experiment A2.

    ``optimistic_abort``: the protocol variant of Jepsen et al. — abort on
    the *first* rejecting Phase2b vote instead of waiting for the record's
    quorum to become provably impossible.  Trades a higher abort rate (a
    single straggler's stale view kills the transaction) for earlier abort
    decisions, which is exactly the latency/abort trade-off the f7/f9
    baselines measure.

    ``unsafe_skip_quorum_check``: test-only mutation seeded for the
    consistency checker's own validation — commit as soon as every record
    has a *single* accept instead of a quorum.  Deliberately breaks the
    option-acceptance invariant; never enable outside checker tests.
    """

    use_fast_path: bool = True
    default_deadline_ms: Optional[float] = None
    optimistic_abort: bool = False
    unsafe_skip_quorum_check: bool = False


@dataclass
class RecordProgress:
    """Vote state of one record's option, as exposed to the predictor.

    The coordinator shares one instance among every snapshot taken until
    the record's next vote, so treat it as read-only.
    """

    key: str
    accepts: int
    rejects: int
    quorum: int
    n: int
    outstanding_dcs: Tuple[Datacenter, ...]
    proposed_at: float


@dataclass
class ProgressSnapshot:
    """Everything the likelihood model needs about one in-flight transaction."""

    txid: str
    records: List[RecordProgress]
    submitted_at: float
    deadline_at: Optional[float]


class _InflightTx:
    """Coordinator-side state for one running transaction."""

    __slots__ = (
        "request", "events", "options", "trackers", "proposed_at", "records",
        "deadline_at", "decided", "timeout_event", "prepare_votes", "phase",
        "ballot", "round_span",
    )

    def __init__(self, request: TxRequest, events: TxEvents) -> None:
        self.request = request
        self.events = events
        self.options: Dict[str, Option] = {}
        self.trackers: Dict[str, QuorumTracker] = {}
        self.proposed_at: Dict[str, float] = {}
        # The predictor's view of each record, in write order.  A record's
        # entry is replaced, never mutated, when it gets a vote, so the
        # snapshots ``progress`` already handed out stay valid.
        self.records: Dict[str, RecordProgress] = {}
        self.deadline_at: Optional[float] = None
        self.prepare_votes: Dict[str, Set[str]] = {}
        self.decided = False
        self.timeout_event = None
        self.phase = "read"
        self.ballot = None
        self.round_span = None  # open obs span for the current Paxos round


class MdccCoordinator(NetworkNode):
    def __init__(
        self,
        node_id: str,
        datacenter: Datacenter,
        sim: Simulator,
        network: Network,
        replica_ids: Sequence[str],
        config: Optional[MdccConfig] = None,
    ) -> None:
        super().__init__(node_id, datacenter)
        self.sim = sim
        self.config = config if config is not None else MdccConfig()
        self.replica_ids = list(replica_ids)
        self.local_replica_id = self._pick_local_replica(network)
        # (replica_id, Datacenter) in replica-id order: the order in which a
        # record lists its outstanding replicas' DCs.
        self._sorted_replicas: Tuple[Tuple[str, Datacenter], ...] = tuple(
            (replica_id, network.node(replica_id).datacenter)
            for replica_id in sorted(set(self.replica_ids))
        )
        self.ballots = BallotGenerator(
            node_id, tracer=sim.tracer, clock=self._clock, metrics=sim.metrics
        )
        self._inflight: Dict[str, _InflightTx] = {}
        self.decisions: List[Decision] = []
        self.crashed = False
        network.register(self)

    def _clock(self) -> float:
        return self.sim.now

    def _pick_local_replica(self, network: Network) -> str:
        for replica_id in self.replica_ids:
            if network.node(replica_id).datacenter.index == self.datacenter.index:
                return replica_id
        raise ValueError(f"no replica in coordinator DC {self.datacenter.name}")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, request: TxRequest, events: Optional[TxEvents] = None) -> None:
        """Run ``request`` to a decision; progress reported through ``events``."""
        if request.txid in self._inflight:
            raise ValueError(f"transaction {request.txid} already in flight")
        events = events if events is not None else TxEvents()
        request.submitted_at = self.sim.now
        if request.deadline_ms is None:
            request.deadline_ms = self.config.default_deadline_ms
        tx = _InflightTx(request, events)
        self._inflight[request.txid] = tx
        if request.deadline_ms is not None:
            tx.deadline_at = request.submitted_at + request.deadline_ms
            tx.timeout_event = self.sim.schedule(
                request.deadline_ms, self._on_timeout, request.txid
            )
        self._start_reads(tx)

    def crash(self) -> None:
        """Fail-stop the coordinator.

        Incoming messages and pending timers are ignored from now on; no
        decision will ever be made for this coordinator's in-flight
        transactions.  The crash is atomic between events, so a decision is
        either fully broadcast or not made at all — the assumption the
        replica-side orphan-recovery protocol relies on.
        """
        self.crashed = True

    def abort(self, txid: str) -> bool:
        """Application-initiated abort of an in-flight transaction.

        Safe at any point before the decision: the coordinator is the only
        decider, so it simply decides ABORTED/CLIENT and broadcasts the
        abort, releasing any accepted options.  Returns False when the
        transaction has already decided (too late — the outcome stands).
        """
        tx = self._inflight.get(txid)
        if tx is None or tx.decided:
            return False
        self._decide(tx, Outcome.ABORTED, AbortReason.CLIENT)
        return True

    def progress(self, txid: str) -> Optional[ProgressSnapshot]:
        """Structured vote state for the likelihood model (None once decided)."""
        tx = self._inflight.get(txid)
        if tx is None or tx.phase != "accept":
            return None
        return ProgressSnapshot(
            txid=txid,
            records=list(tx.records.values()),
            submitted_at=tx.request.submitted_at,
            deadline_at=tx.deadline_at,
        )

    def _record_progress(
        self, tx: _InflightTx, key: str, tracker: QuorumTracker
    ) -> RecordProgress:
        """A fresh view of one record's vote state, for ``tx.records``."""
        return RecordProgress(
            key=key,
            accepts=tracker.accepts,
            rejects=tracker.rejects,
            quorum=tracker.quorum,
            n=tracker.n,
            outstanding_dcs=tracker.outstanding_values(self._sorted_replicas),
            proposed_at=tx.proposed_at[key],
        )

    # ------------------------------------------------------------------
    # Read phase
    # ------------------------------------------------------------------
    def _start_reads(self, tx: _InflightTx) -> None:
        request = tx.request
        keys = set(request.reads)
        # Writes with an unstamped read version need the current version too.
        keys.update(
            op.key for op in request.writes if isinstance(op, WriteOp) and op.read_version is None
        )
        if not keys:
            self._start_commit(tx)
            return
        tx.phase = "read"
        self.send(
            self.local_replica_id,
            protocol.ReadRequest(txid=request.txid, keys=tuple(sorted(keys))),
        )

    #: Local replicas trail decisions by roughly a WAL sync plus an intra-DC
    #: hop; retrying a session-guarantee read at this cadence converges fast.
    READ_RETRY_DELAY_MS = 1.0

    def _on_read_reply(self, msg: protocol.ReadReply) -> None:
        tx = self._inflight.get(msg.txid)
        if tx is None or tx.decided or tx.phase != "read":
            return
        request = tx.request
        for key, (version, value) in msg.results.items():
            request.read_results[key] = value
            request.read_versions[key] = version
            for op in request.writes:
                if isinstance(op, WriteOp) and op.key == key and op.read_version is None:
                    op.read_version = version
        stale = tuple(
            key
            for key, minimum in request.min_versions.items()
            if request.read_versions.get(key, 0) < minimum
        )
        if stale:
            # Session guarantee (read-your-writes): the local replica has
            # not yet applied a decision this session already observed.
            # Re-read shortly; the decision broadcast is already in flight.
            metrics = self.sim.metrics
            if metrics.enabled:
                metrics.inc("mdcc.read_retries")
            self.sim.schedule(
                self.READ_RETRY_DELAY_MS,
                self.send,
                self.local_replica_id,
                protocol.ReadRequest(txid=request.txid, keys=stale),
            )
            # Unstamp write versions for the stale keys so the retry restamps.
            for op in request.writes:
                if isinstance(op, WriteOp) and op.key in stale:
                    op.read_version = None
            return
        tx.events.on_reads_complete(request, self.sim.now)
        self._start_commit(tx)

    # ------------------------------------------------------------------
    # Commit phase
    # ------------------------------------------------------------------
    def _start_commit(self, tx: _InflightTx) -> None:
        request = tx.request
        if request.is_read_only():
            self._decide(tx, Outcome.COMMITTED, AbortReason.NONE)
            return
        n = len(self.replica_ids)
        if self.config.use_fast_path:
            tx.ballot = self.ballots.fast_ballot()
            quorum = fast_quorum(n)
        else:
            tx.ballot = self.ballots.next_classic()
            quorum = classic_quorum(n)
        tx_keys = tuple(sorted(op.key for op in request.writes))
        for op in request.writes:
            option = dataclasses.replace(
                make_option(request.txid, op, isolation=request.isolation),
                tx_keys=tx_keys,
            )
            tx.options[option.key] = option
            tx.trackers[option.key] = QuorumTracker(n, quorum)
        if self.config.use_fast_path:
            self._send_accepts(tx)
        else:
            self._send_prepares(tx)
        tx.events.on_commit_started(request, self.sim.now)

    def _send_prepares(self, tx: _InflightTx) -> None:
        tx.phase = "prepare"
        metrics = self.sim.metrics
        if metrics.enabled:
            metrics.inc("mdcc.rounds", phase="prepare", path="classic")
        tracer = self.sim.tracer
        if tracer.wants_paxos:
            tx.round_span = tracer.begin(
                self.sim.now, "paxos", "prepare_round",
                track=tx.request.txid, coordinator=self.node_id, keys=len(tx.options),
            )
        for key in tx.options:
            tx.prepare_votes[key] = set()
            for replica_id in self.replica_ids:
                self.send(
                    replica_id,
                    protocol.Phase1a(txid=tx.request.txid, key=key, ballot=tx.ballot),
                )

    def _on_phase1b(self, msg: protocol.Phase1b) -> None:
        tx = self._inflight.get(msg.txid)
        if tx is None or tx.decided or tx.phase != "prepare":
            return
        if not msg.promised:
            self._decide(tx, Outcome.ABORTED, AbortReason.BALLOT)
            return
        votes = tx.prepare_votes[msg.key]
        votes.add(msg.sender)
        majority = classic_quorum(len(self.replica_ids))
        if all(len(v) >= majority for v in tx.prepare_votes.values()):
            self._send_accepts(tx)

    def _send_accepts(self, tx: _InflightTx) -> None:
        tx.phase = "accept"
        now = self.sim.now
        metrics = self.sim.metrics
        if metrics.enabled:
            fast = tx.ballot.fast if tx.ballot is not None else True
            metrics.inc(
                "mdcc.rounds", phase="accept", path="fast" if fast else "classic"
            )
        tracer = self.sim.tracer
        if tracer.wants_paxos:
            tracer.end(tx.round_span, now)  # classic path: prepare round done
            tx.round_span = tracer.begin(
                now, "paxos", "accept_round",
                track=tx.request.txid, coordinator=self.node_id, keys=len(tx.options),
                fast=tx.ballot.fast if tx.ballot is not None else True,
            )
        for key, option in tx.options.items():
            tx.proposed_at[key] = now
            tx.records[key] = self._record_progress(tx, key, tx.trackers[key])
            for replica_id in self.replica_ids:
                self.send(
                    replica_id,
                    protocol.Phase2a(
                        txid=tx.request.txid, key=key, ballot=tx.ballot, option=option
                    ),
                )

    def _on_phase2b(self, msg: protocol.Phase2b) -> None:
        tx = self._inflight.get(msg.txid)
        if tx is None or tx.decided or tx.phase != "accept":
            return
        tracker = tx.trackers.get(msg.key)
        if tracker is None:
            return
        tracker.add_vote(msg.sender, msg.accepted)
        tx.records[msg.key] = self._record_progress(tx, msg.key, tracker)
        if not msg.accepted:
            metrics = self.sim.metrics
            if metrics.enabled:
                # A replica rejected the option: the record is contended.
                metrics.inc("mdcc.option_conflicts")
        tracer = self.sim.tracer
        if tracer.wants_paxos:
            tracer.emit(
                self.sim.now, "paxos", "vote",
                txid=msg.txid, key=msg.key, replica=msg.sender, accepted=msg.accepted,
                accepts=tracker.accepts, rejects=tracker.rejects,
            )
        tx.events.on_vote(tx.request, msg.key, msg.accepted, self.sim.now)
        if self.config.unsafe_skip_quorum_check:
            # Seeded fault: treat one accept per record as "chosen".  The
            # checker's quorum-backing invariant must flag every commit
            # decided down here.
            if all(t.accepts >= 1 for t in tx.trackers.values()):
                self._decide(tx, Outcome.COMMITTED, AbortReason.NONE)
            elif tracker.doomed:
                self._decide(tx, Outcome.ABORTED, AbortReason.CONFLICT)
            return
        if self.config.optimistic_abort and not msg.accepted:
            # Jepsen et al.'s variant: a single rejection aborts immediately
            # rather than waiting until a quorum is provably impossible.
            self._decide(tx, Outcome.ABORTED, AbortReason.CONFLICT)
        elif tracker.doomed:
            self._decide(tx, Outcome.ABORTED, AbortReason.CONFLICT)
        elif all(t.chosen for t in tx.trackers.values()):
            self._decide(tx, Outcome.COMMITTED, AbortReason.NONE)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _on_timeout(self, txid: str) -> None:
        if self.crashed:
            return
        tx = self._inflight.get(txid)
        if tx is None or tx.decided:
            return
        tx.timeout_event = None
        self._decide(tx, Outcome.ABORTED, AbortReason.TIMEOUT)

    def _decide(self, tx: _InflightTx, outcome: Outcome, reason: AbortReason) -> None:
        tx.decided = True
        tx.phase = "decided"
        if tx.timeout_event is not None:
            tx.timeout_event.cancel()
            tx.timeout_event = None
        del self._inflight[tx.request.txid]
        if tx.options:
            options = tuple(tx.options.values())
            for replica_id in self.replica_ids:
                # One message object per destination: the network stamps
                # sender/recipient on the object, so sharing one instance
                # across in-flight deliveries would race.
                self.send(
                    replica_id,
                    protocol.DecisionMessage(
                        txid=tx.request.txid,
                        commit=outcome is Outcome.COMMITTED,
                        options=options,
                    ),
                )
        metrics = self.sim.metrics
        if metrics.enabled:
            metrics.inc("mdcc.decisions", outcome=outcome.value, reason=reason.value)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.end(tx.round_span, self.sim.now, outcome=outcome.value)
            tx.round_span = None
            tracer.emit(
                self.sim.now, "tx", "decision",
                txid=tx.request.txid, outcome=outcome.value, reason=reason.value,
            )
            # Engine metadata for the checker's quorum-backing invariant:
            # the per-record vote tally the decision was based on.
            # Insertion order of ``trackers`` (write order) keeps the
            # stream deterministic.
            for key, quorum_tracker in tx.trackers.items():
                tracer.emit(
                    self.sim.now, "history", "engine_decision",
                    txid=tx.request.txid, key=key, outcome=outcome.value,
                    accepts=quorum_tracker.accepts,
                    rejects=quorum_tracker.rejects,
                    quorum=quorum_tracker.quorum,
                )
        decision = Decision(
            txid=tx.request.txid, outcome=outcome, reason=reason, decided_at=self.sim.now
        )
        self.decisions.append(decision)
        tx.events.on_decided(tx.request, decision)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        if self.crashed:
            return
        if isinstance(message, protocol.ReadReply):
            self._on_read_reply(message)
        elif isinstance(message, protocol.Phase2b):
            self._on_phase2b(message)
        elif isinstance(message, protocol.Phase1b):
            self._on_phase1b(message)
        else:
            raise RuntimeError(f"coordinator got unexpected {message.kind}")
