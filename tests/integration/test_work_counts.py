"""Exact work-count gates on an honest distributed double-auction round.

These count work, not time, so they give the same verdict on any host.  They
pin the three per-round costs that used to grow with users times providers:

* the bid agreement decides the whole batch at once — no per-label
  ``majority_decision`` on an honest round;
* every ``UserBid`` is canonically encoded in full at most once, however many
  providers digest the bid vector holding it;
* every ``Allocation`` indexes its per-user and per-provider totals at most
  once, however many totals are asked of it.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

import repro.consensus.multi_consensus as multi_consensus
import repro.net.serialization as serialization
from repro.auctions.base import Allocation, UserBid
from repro.auctions.double_auction import DoubleAuction
from repro.community.workload import DoubleAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.core.framework import CentralizedAuctioneer, DistributedAuctioneer

USERS = 200
PROVIDERS = ["p0", "p1", "p2"]


@pytest.fixture
def honest_round(monkeypatch):
    """Run the round with counting wrappers installed; return the counters."""
    counts = {"votes": 0, "encodes": Counter(), "totals": Counter()}
    keep_alive = []  # so no counted id is reused by a later object

    def counting_vote(values):
        counts["votes"] += 1
        return majority_decision(values)

    def counting_encode(value):
        if isinstance(value, UserBid) and serialization._BYTES_ATTR not in vars(value):
            counts["encodes"][id(value)] += 1
            keep_alive.append(value)
        return encode(value)

    def counting_totals(allocation):
        counts["totals"][id(allocation)] += 1
        keep_alive.append(allocation)
        return build_totals(allocation)

    majority_decision = multi_consensus.majority_decision
    encode = serialization._encode
    build_totals = Allocation.__dict__["_totals"].func
    totals = functools.cached_property(counting_totals)
    totals.__set_name__(Allocation, "_totals")
    monkeypatch.setattr(multi_consensus, "majority_decision", counting_vote)
    monkeypatch.setattr(serialization, "_encode", counting_encode)
    monkeypatch.setattr(Allocation, "_totals", totals)

    bids = DoubleAuctionWorkload(seed=5).generate(USERS, len(PROVIDERS), provider_ids=PROVIDERS)
    report = DistributedAuctioneer(
        DoubleAuction(),
        providers=PROVIDERS,
        config=FrameworkConfig(k=1),
        seed=5,
        measure_compute=False,
    ).run_from_bids(bids)
    monkeypatch.undo()
    assert not report.aborted
    assert report.result == CentralizedAuctioneer(DoubleAuction()).run(bids).result
    return counts


def test_honest_round_casts_no_per_label_vote(honest_round):
    assert honest_round["votes"] == 0


def test_each_user_bid_is_fully_encoded_at_most_once(honest_round):
    encodes = honest_round["encodes"]
    assert len(encodes) >= USERS  # the digests did walk every bid ...
    assert max(encodes.values()) == 1  # ... and each of them only once


def test_each_allocation_indexes_its_totals_at_most_once(honest_round):
    totals = honest_round["totals"]
    assert totals  # the round did ask for totals ...
    assert max(totals.values()) == 1  # ... and no allocation indexed them twice
