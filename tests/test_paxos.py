"""Unit tests for ballots, acceptors, learners and the ballot generator."""

from __future__ import annotations

import pytest

from repro.paxos.acceptor import OptionAcceptor
from repro.paxos.ballot import Ballot, classic_quorum, fast_quorum
from repro.paxos.learner import QuorumTracker
from repro.paxos.proposer import BallotGenerator


def always_valid(option):
    return True, ""


def never_valid(option):
    return False, "conflict"


class TestBallot:
    def test_orders_by_counter_then_proposer(self):
        assert Ballot(1, "a") < Ballot(2, "a")
        assert Ballot(1, "a") < Ballot(1, "b")

    def test_equality(self):
        assert Ballot(1, "a") == Ballot(1, "a")
        assert Ballot(1, "a") != Ballot(1, "a", fast=True)

    def test_repr(self):
        assert "fast" in repr(Ballot(0, "", fast=True))
        assert "classic" in repr(Ballot(1, "p"))


class TestQuorums:
    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 2), (5, 3), (7, 4)])
    def test_classic(self, n, expected):
        assert classic_quorum(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 3), (4, 4), (5, 4), (7, 6)])
    def test_fast(self, n, expected):
        assert fast_quorum(n) == expected

    def test_fast_quorums_intersect_in_classic_quorum(self):
        """The Fast Paxos safety condition: 2*fast - n >= classic."""
        for n in range(1, 20):
            assert 2 * fast_quorum(n) - n >= classic_quorum(n)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            classic_quorum(0)
        with pytest.raises(ValueError):
            fast_quorum(0)


class TestOptionAcceptor:
    def test_accepts_valid_option(self):
        acceptor = OptionAcceptor("k")
        result = acceptor.handle_accept(Ballot(0, "", fast=True), "tx1", "opt", always_valid)
        assert result.accepted
        assert "tx1" in acceptor.accepted

    def test_rejects_invalid_option_with_reason(self):
        acceptor = OptionAcceptor("k")
        result = acceptor.handle_accept(Ballot(0, "", fast=True), "tx1", "opt", never_valid)
        assert not result.accepted
        assert result.reason == "conflict"
        assert "tx1" not in acceptor.accepted

    def test_prepare_promises_higher_ballot(self):
        acceptor = OptionAcceptor("k")
        promised, accepted = acceptor.handle_prepare(Ballot(1, "p"))
        assert promised
        assert accepted == []

    def test_prepare_rejects_lower_ballot(self):
        acceptor = OptionAcceptor("k")
        acceptor.handle_prepare(Ballot(5, "p"))
        promised, _ = acceptor.handle_prepare(Ballot(2, "q"))
        assert not promised

    def test_prepare_returns_accepted_options(self):
        acceptor = OptionAcceptor("k")
        acceptor.handle_accept(Ballot(0, "", fast=True), "tx1", "opt", always_valid)
        _, accepted = acceptor.handle_prepare(Ballot(1, "p"))
        assert [a.option for a in accepted] == ["opt"]

    def test_accept_below_promised_rejected(self):
        acceptor = OptionAcceptor("k")
        acceptor.handle_prepare(Ballot(5, "p"))
        result = acceptor.handle_accept(Ballot(2, "q"), "tx1", "opt", always_valid)
        assert not result.accepted
        assert "below promised" in result.reason

    def test_fast_ballot_rejected_after_classic_promise(self):
        """A classic round revokes the standing fast round."""
        acceptor = OptionAcceptor("k")
        acceptor.handle_prepare(Ballot(5, "p"))
        result = acceptor.handle_accept(Ballot(0, "", fast=True), "tx1", "opt", always_valid)
        assert not result.accepted

    def test_classic_accept_renews_promise(self):
        acceptor = OptionAcceptor("k")
        acceptor.handle_accept(Ballot(3, "p"), "tx1", "opt", always_valid)
        assert acceptor.promised == Ballot(3, "p")

    def test_clear_forgets_transaction(self):
        acceptor = OptionAcceptor("k")
        acceptor.handle_accept(Ballot(0, "", fast=True), "tx1", "opt", always_valid)
        acceptor.clear("tx1")
        assert "tx1" not in acceptor.accepted
        acceptor.clear("tx1")  # idempotent


class TestQuorumTracker:
    def test_chosen_at_quorum(self):
        tracker = QuorumTracker(5, 4)
        for node in "abcd":
            assert not tracker.chosen
            tracker.add_vote(node, True)
        assert tracker.chosen
        assert tracker.decided

    def test_doomed_when_quorum_impossible(self):
        tracker = QuorumTracker(5, 4)
        tracker.add_vote("a", False)
        assert not tracker.doomed  # 4 accepts still possible
        tracker.add_vote("b", False)
        assert tracker.doomed
        assert tracker.decided
        assert not tracker.chosen

    def test_duplicate_votes_ignored(self):
        tracker = QuorumTracker(5, 4)
        tracker.add_vote("a", True)
        tracker.add_vote("a", True)
        tracker.add_vote("a", False)  # flip attempt ignored too
        assert tracker.accepts == 1
        assert tracker.rejects == 0

    def test_outstanding(self):
        tracker = QuorumTracker(5, 4)
        tracker.add_vote("a", True)
        tracker.add_vote("b", False)
        assert tracker.outstanding() == 3
        pairs = [(acceptor, acceptor.upper()) for acceptor in "edcba"]
        assert tracker.outstanding_values(pairs) == ("E", "D", "C")

    def test_needed(self):
        tracker = QuorumTracker(5, 4)
        assert tracker.needed() == 4
        tracker.add_vote("a", True)
        assert tracker.needed() == 3

    def test_invalid_quorum(self):
        with pytest.raises(ValueError):
            QuorumTracker(5, 6)
        with pytest.raises(ValueError):
            QuorumTracker(5, 0)

    def test_repr(self):
        assert "QuorumTracker" in repr(QuorumTracker(5, 4))


class TestBallotGenerator:
    def test_fast_ballot_shared_constant(self):
        a = BallotGenerator("p1").fast_ballot()
        b = BallotGenerator("p2").fast_ballot()
        assert a == b
        assert a.fast

    def test_classic_ballots_increase(self):
        generator = BallotGenerator("p")
        first = generator.next_classic()
        second = generator.next_classic()
        assert first < second
        assert not first.fast

    def test_classic_beats_fast(self):
        generator = BallotGenerator("p")
        assert generator.fast_ballot() < generator.next_classic()
