"""Speculative commit management: the bridge between engine and application.

One :class:`SpeculationManager` rides along with each submitted transaction
as its :class:`~repro.ops.TxEvents` hook object.  On every replica vote it
re-evaluates the commit likelihood, feeds the progress callback, and fires
the *guess* — the speculative commit — the first time the likelihood crosses
the application's threshold.  At decision time it reconciles the guess
(commit: the guess was right; abort: fire the compensation callback),
updates conflict statistics, and reports the finished transaction back to
the session.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.stages import SPANNED_STAGES, TxStage
from repro.core.transaction import PlanetTransaction
from repro.ops import Decision, TxEvents, TxRequest, WriteOp


class SpeculationManager(TxEvents):
    def __init__(self, tx: PlanetTransaction, session) -> None:
        self.tx = tx
        self.session = session
        # Per-key (accepts, rejects) counts observed through on_vote, kept so
        # conflict statistics survive the coordinator forgetting the tx.
        self.vote_counts: Dict[str, List[int]] = {}
        # Vote-state history per key, consumed by the empirical model and
        # recorded only when the session has one.
        self.state_history: Dict[str, List[Tuple[int, int]]] = {}
        self._stage_span = None  # open obs span for the current stage

    # ------------------------------------------------------------------
    # Observability: one span per non-terminal stage, on the tx's track
    # ------------------------------------------------------------------
    def note_stage(self, stage: TxStage, now: float) -> None:
        tracer = self.session.sim.tracer
        if not tracer.wants_stage:
            return
        tracer.end(self._stage_span, now)
        self._stage_span = (
            tracer.begin(now, "stage", stage.value, track=self.tx.txid)
            if stage in SPANNED_STAGES
            else None
        )

    # ------------------------------------------------------------------
    # TxEvents
    # ------------------------------------------------------------------
    def on_reads_complete(self, request: TxRequest, now: float) -> None:
        self.tx.read_results.update(request.read_results)
        self.session.note_read_versions(request)
        tracer = self.session.sim.tracer
        if tracer.enabled:
            # One client-visible read per key, with the version actually
            # served (engines without version tracking report -1; the
            # checker skips those).  Sorted for a deterministic stream.
            session_id = getattr(self.session, "session_id", "")
            versions = request.read_versions
            for key in sorted(request.read_results):
                tracer.emit(
                    now, "history", "read",
                    txid=self.tx.txid, session=session_id,
                    key=key, version=versions.get(key, -1),
                )

    def on_commit_started(self, request: TxRequest, now: float) -> None:
        self.tx.transition(TxStage.PENDING, now)
        self.note_stage(TxStage.PENDING, now)

    def on_vote(self, request: TxRequest, key: str, accepted: bool, now: float) -> None:
        counts = self.vote_counts.setdefault(key, [0, 0])
        if self.session.empirical_model is not None:
            self.state_history.setdefault(key, []).append((counts[0], counts[1]))
        counts[0 if accepted else 1] += 1

        likelihood = self.session.evaluate_likelihood(self.tx, now)
        if likelihood is None:
            return
        self.tx.likelihood_trace.append((now, likelihood))
        if self.tx.predicted_at_first_vote is None:
            self.tx.predicted_at_first_vote = likelihood
        self.tx.callbacks.fire_progress(self.tx, likelihood)

        threshold = self.tx.guess_threshold
        if (
            threshold is not None
            and self.tx.stage is TxStage.PENDING
            and likelihood >= threshold
        ):
            self.tx.transition(TxStage.GUESSED, now)
            self.note_stage(TxStage.GUESSED, now)
            self.tx.predicted_at_guess = likelihood
            tracer = self.session.sim.tracer
            if tracer.wants_stage:
                tracer.emit(
                    now, "stage", "guess", txid=self.tx.txid, likelihood=likelihood
                )
            if tracer.enabled:
                tracer.emit(
                    now, "history", "guess",
                    txid=self.tx.txid,
                    session=getattr(self.session, "session_id", ""),
                    likelihood=likelihood,
                )
            self.tx.callbacks.fire_guess(self.tx, likelihood)

    def on_decided(self, request: TxRequest, decision: Decision) -> None:
        tx = self.tx
        tx.decision = decision
        now = decision.decided_at
        was_guessed = tx.stage is TxStage.GUESSED
        if decision.committed:
            tx.transition(TxStage.COMMITTED, now)
        else:
            tx.transition(TxStage.ABORTED, now)
        self.note_stage(tx.stage, now)
        tracer = self.session.sim.tracer
        if tracer.enabled:
            # History ordering contract: a committed transaction's writes
            # precede its commit record, and both precede anything a commit
            # callback does (session bookkeeping runs before callbacks, so
            # a follow-up transaction's begin lands after this commit).
            session_id = getattr(self.session, "session_id", "")
            if decision.committed:
                for op in tx.writes:
                    if isinstance(op, WriteOp):
                        tracer.emit(
                            now, "history", "write",
                            txid=tx.txid, session=session_id, key=op.key,
                            kind="w",
                            read_version=(
                                -1 if op.read_version is None else op.read_version
                            ),
                        )
                    else:
                        tracer.emit(
                            now, "history", "write",
                            txid=tx.txid, session=session_id, key=op.key,
                            kind="delta", delta=op.delta, floor=op.floor,
                        )
                tracer.emit(
                    now, "history", "commit", txid=tx.txid, session=session_id
                )
            else:
                tracer.emit(
                    now, "history", "abort",
                    txid=tx.txid, session=session_id, reason=decision.reason.value,
                )
                if was_guessed:
                    # The wrong-guess compensation is the paper's apology;
                    # the checker holds it to exactly-once per wrong guess.
                    tracer.emit(
                        now, "history", "apology", txid=tx.txid, session=session_id
                    )
        # Session bookkeeping (conflict stats, read-your-writes watermarks,
        # metrics) runs BEFORE user callbacks: a callback that immediately
        # issues a follow-up transaction must observe this one's effects.
        self._update_statistics(decision)
        self.session.finish_transaction(tx, self)
        if decision.committed:
            tx.callbacks.fire_commit(tx)
        elif was_guessed:
            tx.callbacks.fire_wrong_guess(tx)
        else:
            tx.callbacks.fire_abort(tx)
        if tx.waiter is not None and not tx.waiter.woken:
            tx.waiter.wake(decision)

    # ------------------------------------------------------------------
    def _update_statistics(self, decision: Decision) -> None:
        conflicts = self.session.conflicts
        quorum = self.session.record_quorum
        n = len(self.session.cluster.replica_ids)
        for key, (accepts, rejects) in self.vote_counts.items():
            # Label the record's experience by its *decided* fate: chosen
            # (quorum reached) or doomed (quorum impossible).  A record left
            # ambiguous at decision time — votes stop arriving once the
            # transaction decides — teaches us nothing and is skipped.
            if accepts >= quorum:
                conflicts.observe_outcome(key, conflicted=False)
            elif rejects > n - quorum:
                conflicts.observe_outcome(key, conflicted=True)
        empirical = self.session.empirical_model
        if empirical is not None:
            for key, history in self.state_history.items():
                accepts, rejects = self.vote_counts[key]
                quorum = self.session.record_quorum
                chosen = accepts >= quorum
                for state in history:
                    empirical.observe(state[0], state[1], chosen)
