"""Bit pin: the commit likelihood PLANET reports on every vote.

The per-vote likelihood path carries exactness shortcuts (saturated
deadline terms, in-time terms shared across a transaction's records, a
snapshot that is updated one record at a time).  Each is meant to return
the very floats the full formula returns.  These tests hash every ``(time, likelihood)``
pair of every transaction of seeded f7-style runs at digests recorded
before those shortcuts existed, and compare the shortcut deadline term
against the full formula on dense grids around its thresholds.

If a digest here changes, the likelihood a transaction sees changed: fix
the change, not the pin, unless the model itself was meant to change.
"""

from __future__ import annotations

import hashlib
import math
import struct

import pytest

from repro.core.conflicts import ConflictTracker
from repro.core.likelihood import (
    CommitLikelihoodModel,
    LikelihoodConfig,
    _lognormal_cdf,
    _lognormal_cdf_ln,
    poisson_binomial_tail,
)
from repro.experiments.common import microbench_run
from repro.mdcc.coordinator import ProgressSnapshot, RecordProgress
from repro.net.latency import LatencyModel
from repro.net.topology import EC2_FIVE_DC
from repro.ops import reset_txid_counter
from repro.workload.spikes import Spike

_SQRT2 = math.sqrt(2.0)

# Digests of the likelihood traces below, recorded with the full formula on
# every vote (no shortcuts).
F7_TRACE_DIGEST = (
    "faecd76db39ae49299374452bca970614e685f1e85d568a774da327485999f98"
)
TIGHT_HOT_TRACE_DIGEST = (
    "7da1e8982663bae59a3acbcb0ab518d539f1fcd4f91fbefa82f428780173409f"
)


def _trace_digest(result) -> tuple:
    sha = hashlib.sha256()
    pairs = 0
    for tx in result.all_transactions:
        sha.update(tx.txid.encode())
        for now, likelihood in tx.likelihood_trace:
            sha.update(struct.pack("<dd", now, likelihood))
            pairs += 1
    return sha.hexdigest(), pairs


def test_f7_likelihood_trace_is_pinned():
    """The f7_guess_vs_commit primary run: 5 s timeouts, uniform keys."""
    reset_txid_counter()
    result = microbench_run(
        seed=11,
        n_keys=5_000,
        rate_tps=4.0,
        clients_per_dc=2,
        duration_ms=6_000.0,
        warmup_ms=600.0,
        timeout_ms=5_000.0,
        guess_threshold=0.95,
    )
    digest, pairs = _trace_digest(result)
    assert pairs > 1_000
    assert digest == F7_TRACE_DIGEST


def test_tight_deadline_hot_key_likelihood_trace_is_pinned():
    """Hot keys, a 700 ms timeout and a 6x spike on links into us_east:
    rejects, doomed records, overdue responses and deadline terms strictly
    between 0 and 1, so every branch of the full formula runs too."""
    reset_txid_counter()
    result = microbench_run(
        seed=5,
        n_keys=500,
        hot_keys=16,
        rate_tps=4.0,
        clients_per_dc=2,
        duration_ms=6_000.0,
        warmup_ms=600.0,
        timeout_ms=700.0,
        guess_threshold=0.9,
        spikes=[Spike(2_000.0, 2_500.0, multiplier=6.0, dst_name="us_east")],
    )
    digest, pairs = _trace_digest(result)
    assert pairs > 1_000
    assert digest == TIGHT_HOT_TRACE_DIGEST


# ----------------------------------------------------------------------
# The shortcuts against the full formula
# ----------------------------------------------------------------------
def _model(coordinator, jitter=0.2, config=None):
    return CommitLikelihoodModel(
        conflicts=ConflictTracker(),
        latency=LatencyModel(EC2_FIVE_DC, jitter_sigma=jitter),
        coordinator_dc=coordinator,
        config=config,
    )


def _reference_in_time(model, dc, elapsed, remaining):
    """The in-time term exactly as written before any shortcut."""
    if not model.config.use_deadline or remaining is None:
        return 1.0
    if remaining <= 0:
        return 0.0
    one_way = model.latency.topology.one_way_ms(model.coordinator_dc, dc)
    median = 2.0 * one_way + model.config.response_overhead_ms
    sigma = model.latency.jitter_sigma / _SQRT2
    if sigma > 0:
        already = _lognormal_cdf_ln(elapsed, math.log(median), sigma)
        by_deadline = _lognormal_cdf_ln(elapsed + remaining, math.log(median), sigma)
    else:
        already = _lognormal_cdf(elapsed, median, sigma)
        by_deadline = _lognormal_cdf(elapsed + remaining, median, sigma)
    if already >= 1.0 - 1e-12:
        return 0.0
    return max(0.0, min(1.0, (by_deadline - already) / (1.0 - already)))


def _reference_record(model, record, now, deadline_at):
    """``record_likelihood`` exactly as written before any shortcut."""
    needed = record.quorum - record.accepts
    if needed <= 0:
        return 1.0
    if record.rejects > record.n - record.quorum:
        return 0.0
    if needed > len(record.outstanding_dcs):
        return 0.0
    elapsed = max(0.0, now - record.proposed_at)
    remaining = None if deadline_at is None else deadline_at - now
    in_time = [
        _reference_in_time(model, dc, elapsed, remaining) for dc in record.outstanding_dcs
    ]
    conflict_p = 1.0 - (1.0 - model.conflicts.conflict_probability(record.key))
    if model.config.correlated_conflicts:
        leak = model.config.conflict_accept_leak
        win_clean = poisson_binomial_tail(in_time, needed)
        win_conflicted = poisson_binomial_tail([leak * t for t in in_time], needed)
        if record.rejects == 0:
            evidence_conflict = conflict_p * (leak ** record.accepts)
            evidence_clean = 1.0 - conflict_p
            denominator = evidence_conflict + evidence_clean
            conflict_post = evidence_conflict / denominator if denominator > 0 else 1.0
        else:
            conflict_post = 1.0
        return (1.0 - conflict_post) * win_clean + conflict_post * win_conflicted
    return poisson_binomial_tail([(1.0 - conflict_p) * t for t in in_time], needed)


def _floats_around(x, count):
    """``count`` consecutive floats below ``x``, ``x`` itself, and ``count`` above."""
    below, above = [], []
    lo = hi = x
    for _ in range(count):
        lo = math.nextafter(lo, 0.0)
        hi = math.nextafter(hi, math.inf)
        below.append(lo)
        above.append(hi)
    return below[::-1] + [x] + above


def _same_bits(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("jitter", [0.2, 0.0], ids=["jitter", "jitter_sigma=0"])
@pytest.mark.parametrize("coordinator", EC2_FIVE_DC.datacenters, ids=str)
def test_in_time_shortcut_matches_formula_around_both_thresholds(coordinator, jitter):
    model = _model(coordinator, jitter=jitter)
    for dc in EC2_FIVE_DC.datacenters:
        median, _, overdue_at, certain_at = model._rtt_params(dc)
        assert 0.0 < overdue_at <= certain_at
        if jitter == 0.0:
            assert overdue_at == certain_at == median
        # The overdue threshold, with deadlines near and far.
        for elapsed in _floats_around(overdue_at, 400):
            for remaining in (1e-3, 1.0, 50.0, 1e6):
                expected = _reference_in_time(model, dc, elapsed, remaining)
                got = model._in_time_probability(dc, elapsed, remaining)
                assert _same_bits(got, expected), (dc, elapsed, remaining, got, expected)
        # The certain-by-deadline threshold, approached from several ages.
        for elapsed in (0.0, 1e-9, median / 3.0, median, math.nextafter(overdue_at, 0.0)):
            for total in _floats_around(certain_at, 400):
                remaining = total - elapsed
                expected = _reference_in_time(model, dc, elapsed, remaining)
                got = model._in_time_probability(dc, elapsed, remaining)
                assert _same_bits(got, expected), (dc, elapsed, remaining, got, expected)
        # A coarse sweep over many orders of magnitude.
        for step in range(-40, 120):
            x = median * 1.1 ** step
            for elapsed, remaining in ((x, 5_000.0), (0.0, x), (x / 2.0, x), (x, 1e-2)):
                expected = _reference_in_time(model, dc, elapsed, remaining)
                got = model._in_time_probability(dc, elapsed, remaining)
                assert _same_bits(got, expected), (dc, elapsed, remaining, got, expected)


_ARMS = {
    "default": (0.2, LikelihoodConfig()),
    "jitter_sigma=0": (0.0, LikelihoodConfig()),
    "use_deadline=False": (0.2, LikelihoodConfig(use_deadline=False)),
    "independent_conflicts": (0.2, LikelihoodConfig(correlated_conflicts=False)),
}


@pytest.mark.parametrize("arm", sorted(_ARMS))
def test_record_and_snapshot_likelihood_match_the_full_formula(arm):
    """Every vote state, outstanding set and age, for every model arm; the
    saturated deadline terms and the per-evaluation in-time terms must give
    the reference floats, whether a record is evaluated alone or inside a
    snapshot."""
    jitter, config = _ARMS[arm]
    coordinator = EC2_FIVE_DC.datacenter("us_west")
    model = _model(coordinator, jitter=jitter, config=config)
    model.conflicts.observe_outcome("hot", conflicted=True)
    dcs = EC2_FIVE_DC.datacenters
    for accepts in range(5):
        for rejects in range(3):
            outstanding = tuple(dcs[accepts + rejects:]) if accepts + rejects < 5 else ()
            for key in ("cold", "hot"):
                records = [
                    RecordProgress(key, accepts, rejects, 4, 5, outstanding, proposed_at)
                    for proposed_at in (0.0, 40.0)
                ]
                for now in (0.0, 30.0, 90.0, 160.0, 300.0, 700.0, 2_000.0, 4_999.0):
                    for deadline_at in (None, 200.0, 5_000.0):
                        expected = 1.0
                        for record in records:
                            want = _reference_record(model, record, now, deadline_at)
                            got = model.record_likelihood(record, now, deadline_at)
                            assert _same_bits(got, want), (record, now, deadline_at)
                            expected *= want
                            if expected == 0.0:
                                break
                        snapshot = ProgressSnapshot("t", records, 0.0, deadline_at)
                        assert _same_bits(model.likelihood(snapshot, now), expected)
